"""The benchmark's own output checks.

Expectations come from the workload's injection list, never from the
program: a label injected at a correct server that is its originator must
surface exactly once, with the injected value, at every correct server.
Each such (label, correct server) pair is one operation of the benchmark.
Indication payloads are decoded here as the 8-byte big-endian value BRB
broadcasts, without calling into ``dagbft``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # one per failed operation
    problems: list[str] = field(default_factory=list)  # everything else that is wrong
    latencies: list[int] = field(default_factory=list)  # steps, one per passed operation


def _surfaced(events: list[dict]) -> dict[tuple[int, int], dict[int, list[tuple[int, int]]]]:
    """label -> server -> [(step, value)] for every surfaced indication."""
    out: dict[tuple[int, int], dict[int, list[tuple[int, int]]]] = {}
    for ev in events:
        if ev["kind"] == "INDICATE" and ev["surfaced"]:
            label = (ev["label"][0], ev["label"][1])
            value = int.from_bytes(bytes.fromhex(ev["indication"]), "big")
            out.setdefault(label, {}).setdefault(ev["server"], []).append((ev["step"], value))
    return out


def check_deliveries(scenario, events: list[dict]) -> Outcome:
    """Score every expected delivery and check adversary-originated labels
    for agreement: either every correct server surfaces one common value or
    none surfaces the label."""
    byzantine = {server for server, _ in scenario.byzantine}
    correct = [s for s in range(scenario.n) if s not in byzantine]
    expected: dict[tuple[int, int], tuple[int, int]] = {}
    adversarial: set[tuple[int, int]] = set()
    for req in scenario.requests:
        label = (req.label.originator, req.label.nonce)
        if req.server != req.label.originator:
            continue
        if req.server in byzantine:
            adversarial.add(label)
        else:
            expected.setdefault(label, (req.step, req.value))

    surfaced = _surfaced(events)
    outcome = Outcome()
    for label, (step, value) in sorted(expected.items()):
        per_server = surfaced.get(label, {})
        for server in correct:
            outcome.attempted += 1
            got = per_server.get(server, [])
            if len(got) == 1 and got[0][1] == value:
                outcome.latencies.append(got[0][0] - step)
            else:
                outcome.failed += 1
                outcome.failures.append(
                    f"label {label}: server {server} surfaced {[v for _, v in got]}, "
                    f"expected [{value}] once"
                )

    for label in sorted(adversarial):
        per_server = surfaced.get(label, {})
        values = {v for got in per_server.values() for _, v in got}
        if per_server and (set(per_server) != set(correct) or len(values) != 1):
            outcome.problems.append(
                f"adversary label {label}: servers {sorted(per_server)} surfaced {sorted(values)}"
            )
        for server, got in sorted(per_server.items()):
            if len(got) != 1:
                outcome.problems.append(
                    f"adversary label {label}: server {server} surfaced {len(got)} times"
                )

    for label in sorted(set(surfaced) - set(expected) - adversarial):
        outcome.problems.append(f"label {label} surfaced but never injected at its originator")
    return outcome


def check_final_dags(scenario, final_dags: dict) -> list[str]:
    """After the drain every correct server holds the same set of blocks
    built by correct servers."""
    byzantine = {server for server, _ in scenario.byzantine}
    held = {
        server: {ref for ref in dag.refs() if dag.get(ref).builder not in byzantine}
        for server, dag in final_dags.items()
    }
    missing_servers = [s for s in range(scenario.n) if s not in byzantine and s not in held]
    problems = [f"no final DAG for correct server {s}" for s in missing_servers]
    everything = set().union(*held.values()) if held else set()
    for server, refs in sorted(held.items()):
        if refs != everything:
            problems.append(
                f"server {server} lacks {len(everything - refs)} correct-built block(s) after the drain"
            )
    return problems


def check_same_trace(untraced: str, traced: str) -> list[str]:
    """The traced run must serialize to the same bytes as the untraced one."""
    if untraced == traced:
        return []
    a, b = untraced.splitlines(), traced.splitlines()
    first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return [
        f"traced trace differs from the untraced one at line {first + 1} "
        f"({len(a)} vs {len(b)} lines)"
    ]
