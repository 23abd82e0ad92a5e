"""Seeded scenario generation for the property and acceptance suites.

Every scenario is a pure function of its index, so the suites are exactly
reproducible. Sizes are tuned to keep a correct server's DAG at or below 60
blocks while still giving broadcasts enough rounds to deliver before the
drain.
"""

from __future__ import annotations

from random import Random

from dagbft.protocol import Label
from dagbft.simnet import BehaviorSpec, RequestInjection, Scenario

ADVERSARY_KINDS = (
    "EQUIVOCATE",
    "SILENT",
    "SELECTIVE_SEND",
    "GARBAGE",
    "CRASH_AT",
    "DUPLICATE_REFS",
)


def _behavior(kind: str, rng: Random, n: int, max_steps: int) -> BehaviorSpec:
    if kind == "CRASH_AT":
        return BehaviorSpec(kind, crash_step=rng.randrange(2, max_steps))
    if kind == "SELECTIVE_SEND":
        width = rng.randrange(1, n - 1)
        targets = tuple(sorted(rng.sample(range(n), width)))
        return BehaviorSpec(kind, targets=targets)
    return BehaviorSpec(kind)


def random_scenario(index: int, *, byzantine: bool = True) -> Scenario:
    """Deterministic mixed scenario; alternates n=4/f=1 and n=7/f=2."""
    rng = Random(0xD47 * (index + 1))
    n, f = (4, 1) if index % 2 == 0 else (7, 2)
    cadence = rng.choice((2, 3))
    # n=7 stays at 3 pre-drain rounds: the drain adds up to ~5 more rounds of
    # blocks per server and the determinism suite caps DAGs at 60 blocks
    rounds = 3 if n == 7 else rng.randrange(4, 7)
    max_steps = cadence * rounds

    byz: list[tuple[int, BehaviorSpec]] = []
    if byzantine:
        count = rng.randrange(0, f + 1)
        servers = sorted(rng.sample(range(1, n), count))  # server 0 stays correct
        for i, server in enumerate(servers):
            kind = ADVERSARY_KINDS[(index + i) % len(ADVERSARY_KINDS)]
            byz.append((server, _behavior(kind, rng, n, max_steps)))
    byz_ids = {s for s, _ in byz}

    requests: list[RequestInjection] = []
    late_cap = 3 if n == 7 else min(4, max_steps)
    for i in range(rng.randrange(1, 4)):
        server = rng.randrange(n)
        step = rng.randrange(0, late_cap)
        requests.append(
            RequestInjection(step, server, Label(server, 100 + i), rng.randrange(1, 1000))
        )
    # always at least one broadcast from a correct originator, early
    correct_pool = [s for s in range(n) if s not in byz_ids]
    anchor = rng.choice(correct_pool)
    requests.insert(0, RequestInjection(0, anchor, Label(anchor, 1), 42))

    snap_a = max_steps // 3
    snap_b = (2 * max_steps) // 3
    return Scenario(
        n=n,
        f=f,
        seed=0xBEEF + index,
        max_steps=max_steps,
        delay_bounds=(1, rng.choice((1, 2, 4))),
        cadence=cadence,
        fwd_interval=rng.choice((3, 5)),
        byzantine=tuple(byz),
        requests=tuple(requests),
        snapshot_steps=(snap_a, snap_b) if snap_b > snap_a else (snap_a,),
    )


def adversarial_scenario(index: int) -> Scenario:
    """Deterministic scenario with at least one adversary, cycling through
    every behavior kind; used by the broadcast-preservation suite."""
    rng = Random(0xADA * (index + 1))
    n, f = (4, 1) if index % 2 == 0 else (7, 2)
    cadence = rng.choice((2, 3))
    rounds = 5 if n == 7 else rng.randrange(5, 7)
    max_steps = cadence * rounds

    byz: list[tuple[int, BehaviorSpec]] = []
    first_kind = ADVERSARY_KINDS[index % len(ADVERSARY_KINDS)]
    byz_servers = sorted(rng.sample(range(1, n), f if n == 7 and index % 3 == 0 else 1))
    for i, server in enumerate(byz_servers):
        kind = first_kind if i == 0 else ADVERSARY_KINDS[(index + 3) % len(ADVERSARY_KINDS)]
        byz.append((server, _behavior(kind, rng, n, max_steps)))
    byz_ids = {s for s, _ in byz}

    correct_pool = [s for s in range(n) if s not in byz_ids]
    requests = [RequestInjection(0, correct_pool[0], Label(correct_pool[0], 1), 42)]
    if index % 4 == 0:
        # also a byzantine originator, to make validity vacuous but keep
        # consistency/totality observable
        byz_originator = byz_servers[0]
        requests.append(RequestInjection(1, byz_originator, Label(byz_originator, 2), 57))
    if index % 5 == 0:
        other = correct_pool[-1]
        requests.append(RequestInjection(2, other, Label(other, 3), rng.randrange(1, 1000)))

    snap_a = max_steps // 3
    snap_b = (2 * max_steps) // 3
    return Scenario(
        n=n,
        f=f,
        seed=0xFACE + index,
        max_steps=max_steps,
        delay_bounds=(1, rng.choice((2, 4))),
        cadence=cadence,
        fwd_interval=rng.choice((3, 5)),
        byzantine=tuple(byz),
        requests=tuple(requests),
        snapshot_steps=(snap_a, snap_b) if snap_b > snap_a else (snap_a,),
    )


def wide_scenario(n: int, *, byzantine: bool) -> Scenario:
    """``n`` servers, ``f = (n - 1) // 3``, over three rounds at cadence 3,
    with a broadcast from server 0 and one from server ``n - 1``. With
    ``byzantine``, server ``n - 1`` equivocates and server ``n - 2`` sends
    only to the lower half. Sizes above those of the scenarios above, with
    a horizon short enough for the reference checkers."""
    byz = (
        (n - 1, BehaviorSpec("EQUIVOCATE")),
        (n - 2, BehaviorSpec("SELECTIVE_SEND", targets=tuple(range(n // 2)))),
    )
    return Scenario(
        n=n,
        f=(n - 1) // 3,
        seed=0x51DE + n,
        max_steps=9,
        delay_bounds=(1, 2),
        cadence=3,
        byzantine=byz if byzantine else (),
        requests=(
            RequestInjection(0, 0, Label(0, 1), 42),
            RequestInjection(1, n - 1, Label(n - 1, 2), 57),
        ),
        snapshot_steps=(5,),
    )


def fig_broadcast_scenario(*, labels: int = 1, seed: int = 7) -> Scenario:
    """The lockstep n=4 fixture: constant unit delay, cadence 3, one
    broadcast in the originator's first block (plus optional parallel
    labels). Produces the canonical buffer picture round by round."""
    requests = tuple(
        RequestInjection(0, i % 4, Label(i % 4, 1 + i), 42 + i) for i in range(labels)
    )
    return Scenario(
        n=4,
        f=1,
        seed=seed,
        max_steps=11,
        delay_bounds=(1, 1),
        cadence=3,
        requests=requests,
        snapshot_steps=(5,),
    )
