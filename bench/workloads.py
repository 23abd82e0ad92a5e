"""The benchmark's workloads: seeded BRB scenarios for ``dagbft.simnet``.

Each workload is a function of ``(seed, smoke)`` that returns a
``Scenario`` whose injection list is the only source of the expected
deliveries. ``smoke`` shrinks the horizon and the label count so that the
benchmark's own tests run in seconds; the make-up stays the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from dagbft.crypto import Ed25519Registry, KeyRegistry
from dagbft.protocol import Label
from dagbft.simnet import BehaviorSpec, RequestInjection, Scenario


@dataclass(frozen=True)
class Workload:
    scenario: Scenario
    registry_class: type  # put in place of simnet.KeyRegistry for the run


def _inject(rng: Random, servers: list[int], count: int, last_step: int):
    """``count`` broadcasts from ``servers`` at steps in ``[0, last_step)``,
    each label originated by the server it is injected at."""
    out = []
    for i in range(count):
        server = rng.choice(servers)
        step = rng.randrange(last_step)
        out.append(
            RequestInjection(step, server, Label(server, 1 + i), rng.randrange(1, 1 << 32))
        )
    return sorted(out, key=lambda r: (r.step, r.server, r.label))


def _thirds(max_steps: int) -> tuple[int, ...]:
    return (max_steps // 3, (2 * max_steps) // 3)


def brb_many_labels(seed: int, smoke: bool = False) -> Workload:
    rng = Random(0xB1 * 1_000_003 + seed)
    steps, labels = (30, 12) if smoke else (120, 40)
    scenario = Scenario(
        n=4,
        f=1,
        seed=rng.randrange(1 << 30),
        max_steps=steps,
        delay_bounds=(1, 2),
        cadence=3,
        requests=tuple(_inject(rng, [0, 1, 2, 3], labels, (3 * steps) // 4)),
        snapshot_steps=_thirds(steps),
    )
    return Workload(scenario, KeyRegistry)


def byzantine_reorder(seed: int, smoke: bool = False) -> Workload:
    # The adversaries' ids and targets are fixed: drawing them from the seed
    # made delivery latency and bytes per block swing by half between seeds.
    # Labels arrive in the first 35% of the horizon so that even the slowest
    # delivers before the drain, not at a drain step set by the horizon.
    rng = Random(0xB2 * 1_000_003 + seed)
    steps, labels = (30, 8) if smoke else (120, 12)
    equivocator, selective = 5, 6
    window = (7 * steps) // 20
    requests = _inject(rng, [0, 1, 2, 3, 4], labels, window)
    requests += [
        RequestInjection(rng.randrange(window), byz, Label(byz, 1000 + byz), rng.randrange(1, 1 << 32))
        for byz in (equivocator, selective)
    ]
    scenario = Scenario(
        n=7,
        f=2,
        seed=rng.randrange(1 << 30),
        max_steps=steps,
        delay_bounds=(1, 12),
        cadence=3,
        byzantine=(
            (equivocator, BehaviorSpec("EQUIVOCATE")),
            (selective, BehaviorSpec("SELECTIVE_SEND", targets=(0, 1, 2))),
        ),
        requests=tuple(sorted(requests, key=lambda r: (r.step, r.server, r.label))),
        snapshot_steps=_thirds(steps),
    )
    return Workload(scenario, KeyRegistry)


def ed25519_signed(seed: int, smoke: bool = False) -> Workload:
    rng = Random(0xB3 * 1_000_003 + seed)
    steps, labels = (24, 8) if smoke else (60, 12)
    scenario = Scenario(
        n=7,
        f=2,
        seed=rng.randrange(1 << 30),
        max_steps=steps,
        delay_bounds=(1, 3),
        cadence=3,
        requests=tuple(_inject(rng, list(range(7)), labels, (3 * steps) // 4)),
        snapshot_steps=_thirds(steps),
    )
    return Workload(scenario, Ed25519Registry)


WORKLOADS = {
    "brb-many-labels": brb_many_labels,
    "byzantine-reorder": byzantine_reorder,
    "ed25519-signed": ed25519_signed,
}
