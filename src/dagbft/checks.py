"""Trace checkers: replay a recorded run and assert the framework's
guarantees over it.

All checkers consume the parsed event list plus the scenario (the scenario
supplies the correct/byzantine partition and the injected requests, neither
of which is derivable from the trace alone). Violations are report entries,
never exceptions, so a checker can enumerate everything wrong with a forged
trace in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .brb import decode_deliver
from .protocol import Label, Message, message_from_canonical
from .simnet import Scenario


@dataclass
class CheckReport:
    name: str
    violations: list[str] = field(default_factory=list)
    checked: int = 0
    vacuous: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        note = " (vacuous)" if self.vacuous else ""
        return f"{status} {self.name}: {len(self.violations)} violation(s), {self.checked} check(s){note}"


# ---------------------------------------------------------------------------
# Per-server reconstruction
# ---------------------------------------------------------------------------


@dataclass
class _ServerView:
    """One server's recorded perspective: its inserts and its interpretation."""

    inserts: dict[str, dict] = field(default_factory=dict)  # ref -> INSERT event
    insert_step: dict[str, int] = field(default_factory=dict)
    out: dict[tuple[str, Label], tuple[Message, ...]] = field(default_factory=dict)
    fed: dict[tuple[str, Label], tuple[Message, ...]] = field(default_factory=dict)
    state: dict[tuple[str, Label], str] = field(default_factory=dict)
    interpreted: list[str] = field(default_factory=list)


def _decode_label(raw) -> Label:
    return Label(int(raw[0]), int(raw[1]))


def _decode_messages(hexes) -> tuple[Message, ...]:
    return tuple(message_from_canonical(bytes.fromhex(h)) for h in hexes)


def server_views(events: list[dict]) -> dict[int, _ServerView]:
    views: dict[int, _ServerView] = {}
    for ev in events:
        kind = ev["kind"]
        if kind == "INSERT":
            view = views.setdefault(ev["server"], _ServerView())
            ref = ev["ref"]
            if ref not in view.inserts:
                view.inserts[ref] = ev
                view.insert_step[ref] = ev["step"]
        elif kind == "INTERPRET":
            view = views.setdefault(ev["server"], _ServerView())
            ref = ev["ref"]
            view.interpreted.append(ref)
            for act in ev["labels"]:
                label = _decode_label(act["label"])
                view.fed[(ref, label)] = _decode_messages(act["fed"])
                view.out[(ref, label)] = _decode_messages(act["emitted"])
                view.state[(ref, label)] = act["state"]
    return views


def _distinct_preds(insert_event: dict) -> list[str]:
    return list(dict.fromkeys(insert_event["preds"]))


# ---------------------------------------------------------------------------
# Point-to-point link properties over interpretation
# ---------------------------------------------------------------------------


def check_point_to_point(events: list[dict], scenario: Scenario) -> CheckReport:
    """Reliable delivery, no duplication, and authenticity, restated over the
    interpretation events of every correct server."""
    report = CheckReport("point-to-point")
    correct = set(scenario.correct_servers())
    views = server_views(events)
    seen_any = False

    for server in sorted(views):
        if server not in correct:
            continue
        view = views[server]
        if not view.interpreted:
            continue
        seen_any = True
        builder_of = {ref: ev["builder"] for ref, ev in view.inserts.items()}
        children: dict[str, list[str]] = {}
        for ref, ev in view.inserts.items():
            for p in _distinct_preds(ev):
                children.setdefault(p, []).append(ref)

        # reliable delivery: an emitted message appears in the in-buffer of
        # every block by its (correct) receiver that references the emitting block
        for (ref1, label), messages in sorted(
            view.out.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            if builder_of.get(ref1) not in correct:
                continue
            for m in messages:
                if m.receiver not in correct:
                    continue
                for ref2 in children.get(ref1, ()):
                    if builder_of.get(ref2) != m.receiver:
                        continue
                    report.checked += 1
                    if m not in view.fed.get((ref2, label), ()):
                        report.violations.append(
                            f"reliable-delivery: interpreter {server}: message "
                            f"{m.sender}->{m.receiver} from block {ref1[:12]} missing in "
                            f"in-buffer of {ref2[:12]} (label {label.originator}/{label.nonce})"
                        )

        # no duplication: one send is fed at most once along a correct
        # receiver's chain; for correct senders the message itself is unique
        deliveries: dict[tuple[Label, int, Message], list[tuple[str, list[str]]]] = {}
        for (ref2, label), fed in view.fed.items():
            receiver = builder_of.get(ref2)
            if receiver not in correct:
                continue
            for m in fed:
                origins = [
                    p
                    for p in _distinct_preds(view.inserts[ref2])
                    if m in view.out.get((p, label), ())
                ]
                deliveries.setdefault((label, receiver, m), []).append((ref2, origins))
        for (label, receiver, m), feeds in sorted(
            deliveries.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].canonical_bytes())
        ):
            report.checked += 1
            if len(feeds) <= 1:
                continue
            if m.sender in correct:
                report.violations.append(
                    f"no-duplication: interpreter {server}: message {m.sender}->{receiver} "
                    f"(label {label.originator}/{label.nonce}) fed {len(feeds)} times "
                    f"across blocks of server {receiver}"
                )
                continue
            origin_count: dict[str, int] = {}
            for _ref2, origins in feeds:
                for p in origins:
                    origin_count[p] = origin_count.get(p, 0) + 1
            repeated = sorted(p for p, c in origin_count.items() if c > 1)
            if repeated:
                report.violations.append(
                    f"no-duplication: interpreter {server}: origin block {repeated[0][:12]} "
                    f"contributed the same message twice to server {receiver} "
                    f"(label {label.originator}/{label.nonce})"
                )

        # authenticity: a fed message with a correct sender exists in the
        # out-buffer of a referenced block built by that sender
        for (ref2, label), fed in sorted(
            view.fed.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            for m in fed:
                if m.sender not in correct:
                    continue
                report.checked += 1
                preds = _distinct_preds(view.inserts[ref2])
                if not any(
                    builder_of.get(p) == m.sender and m in view.out.get((p, label), ())
                    for p in preds
                ):
                    report.violations.append(
                        f"authenticity: interpreter {server}: message claiming sender "
                        f"{m.sender} in in-buffer of {ref2[:12]} has no signed origin block "
                        f"(label {label.originator}/{label.nonce})"
                    )

    report.vacuous = not seen_any
    return report


# ---------------------------------------------------------------------------
# Reliable broadcast end-to-end properties
# ---------------------------------------------------------------------------


def check_brb(events: list[dict], scenario: Scenario) -> CheckReport:
    """Validity, no duplication, integrity, consistency, totality, per label,
    quantified over correct servers only."""
    report = CheckReport("brb")
    correct = set(scenario.correct_servers())

    broadcast: dict[Label, list[int]] = {}
    for req in scenario.requests:
        # only the label's originator can authenticate the request
        if req.server in correct and req.server == req.label.originator:
            broadcast.setdefault(req.label, []).append(req.value)

    delivered: dict[Label, dict[int, list[int]]] = {}
    for ev in events:
        if ev["kind"] != "INDICATE" or not ev["surfaced"]:
            continue
        server = ev["server"]
        if server not in correct:
            continue
        label = _decode_label(ev["label"])
        value = decode_deliver(bytes.fromhex(ev["indication"]))
        delivered.setdefault(label, {}).setdefault(server, []).append(value)

    labels = sorted(set(broadcast) | set(delivered))
    if not labels:
        report.vacuous = True
        return report

    for label in labels:
        per_server = delivered.get(label, {})
        values_broadcast = broadcast.get(label, [])

        if values_broadcast and label.originator in correct:
            expected = values_broadcast[0]
            for server in sorted(correct):
                report.checked += 1
                got = per_server.get(server, [])
                if expected not in got:
                    report.violations.append(
                        f"validity: label {label.originator}/{label.nonce}: correct "
                        f"originator broadcast {expected} but server {server} delivered {got}"
                    )

        for server, values in sorted(per_server.items()):
            report.checked += 1
            if len(values) > 1:
                report.violations.append(
                    f"no-duplication: label {label.originator}/{label.nonce}: server "
                    f"{server} delivered {len(values)} times"
                )

        if label.originator in correct:
            for server, values in sorted(per_server.items()):
                for value in values:
                    report.checked += 1
                    if value not in broadcast.get(label, []):
                        report.violations.append(
                            f"integrity: label {label.originator}/{label.nonce}: server "
                            f"{server} delivered {value} never broadcast by the correct originator"
                        )

        distinct = {v for values in per_server.values() for v in values}
        report.checked += 1
        if len(distinct) > 1:
            report.violations.append(
                f"consistency: label {label.originator}/{label.nonce}: correct servers "
                f"delivered different values {sorted(distinct)}"
            )

        report.checked += 1
        if per_server and set(per_server) != correct:
            missing = sorted(correct - set(per_server))
            report.violations.append(
                f"totality: label {label.originator}/{label.nonce}: servers {missing} "
                f"never delivered while others did"
            )

    return report


# ---------------------------------------------------------------------------
# Joint DAG convergence
# ---------------------------------------------------------------------------


def _dag_sets(view: _ServerView, up_to_step: int | None) -> tuple[set[str], set[tuple[str, str]]]:
    refs = {
        ref
        for ref, step in view.insert_step.items()
        if up_to_step is None or step <= up_to_step
    }
    edges = {
        (p, ref)
        for ref in refs
        for p in _distinct_preds(view.inserts[ref])
        if p in refs
    }
    return refs, edges


def _extends_sets(
    inner: tuple[set[str], set[tuple[str, str]]],
    outer: tuple[set[str], set[tuple[str, str]]],
) -> bool:
    v1, e1 = inner
    v2, e2 = outer
    if not v1 <= v2:
        return False
    return e1 == {(a, b) for (a, b) in e2 if a in v1 and b in v1}


def check_convergence(
    events: list[dict],
    scenario: Scenario,
    snapshot_steps: tuple[int, ...] | None = None,
) -> CheckReport:
    """Every pair of correct snapshots is jointly contained in every correct
    server's final DAG (with the edge restriction, not mere vertex subset)."""
    report = CheckReport("convergence")
    steps = tuple(snapshot_steps if snapshot_steps is not None else scenario.snapshot_steps)
    correct = sorted(set(scenario.correct_servers()))
    views = server_views(events)
    if not steps or not any(s in views for s in correct):
        report.vacuous = True
        return report

    finals = {s: _dag_sets(views[s], None) for s in correct if s in views}
    snaps = {
        (s, t): _dag_sets(views[s], t) for s in correct if s in views for t in steps
    }
    for s1 in correct:
        for s2 in correct:
            for t1 in steps:
                for t2 in steps:
                    if (s1, t1) not in snaps or (s2, t2) not in snaps:
                        continue
                    v1, e1 = snaps[(s1, t1)]
                    v2, e2 = snaps[(s2, t2)]
                    joint = (v1 | v2, e1 | e2)
                    for target in sorted(finals):
                        report.checked += 1
                        if not _extends_sets(joint, finals[target]):
                            report.violations.append(
                                f"convergence: union of snapshots ({s1}@{t1}, {s2}@{t2}) "
                                f"is not extended by the final DAG of server {target}"
                            )
    return report


# ---------------------------------------------------------------------------
# Cross-server interpretation equality
# ---------------------------------------------------------------------------


def check_interpretation_agreement(events: list[dict], scenario: Scenario) -> CheckReport:
    """For every block interpreted by several correct servers, the per-label
    state digests must coincide."""
    report = CheckReport("interpretation-agreement")
    correct = set(scenario.correct_servers())
    views = server_views(events)
    by_key: dict[tuple[str, Label], dict[str, list[int]]] = {}
    for server, view in views.items():
        if server not in correct:
            continue
        for (ref, label), digest in view.state.items():
            by_key.setdefault((ref, label), {}).setdefault(digest, []).append(server)
    if not by_key:
        report.vacuous = True
        return report
    for (ref, label), digests in sorted(by_key.items()):
        report.checked += 1
        if len(digests) > 1:
            report.violations.append(
                f"agreement: block {ref[:12]} label {label.originator}/{label.nonce} has "
                f"{len(digests)} distinct state digests across correct servers"
            )
    return report


# ---------------------------------------------------------------------------
# Message census
# ---------------------------------------------------------------------------


@dataclass
class Census:
    block_envelopes: int = 0
    fwd_envelopes: int = 0
    noise_envelopes: int = 0
    other_envelopes: int = 0
    wire_protocol_messages: int = 0  # structurally zero: no such envelope kind
    materialized_messages: int = 0
    blocks_built: int = 0
    deliveries_surfaced: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def message_census(events: list[dict]) -> Census:
    """Wire-envelope counts against messages that were only ever materialized
    inside an interpretation; the compression the framework buys."""
    census = Census()
    refs_built: set[str] = set()
    interpreting: int | None = None
    for ev in events:
        kind = ev["kind"]
        if kind == "SEND":
            env = ev.get("envelope")
            if env == "BLOCK":
                census.block_envelopes += 1
            elif env == "FWD":
                census.fwd_envelopes += 1
            elif env == "RAW" or env is None:
                census.noise_envelopes += 1
            else:
                census.other_envelopes += 1
        elif kind == "INSERT":
            refs_built.add(ev["ref"])
        elif kind == "INTERPRET":
            if interpreting is None or ev["server"] < interpreting:
                interpreting = ev["server"]
        elif kind == "INDICATE" and ev["surfaced"]:
            census.deliveries_surfaced += 1
    if interpreting is not None:
        for ev in events:
            if ev["kind"] == "INTERPRET" and ev["server"] == interpreting:
                for act in ev["labels"]:
                    census.materialized_messages += len(act["emitted"])
    census.blocks_built = len(refs_built)
    return census
