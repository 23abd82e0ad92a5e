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
from .crypto import EncodingError
from .protocol import Label, Message, ProtocolError, message_from_canonical
from .simnet import Scenario
from .trace import TraceFormatError


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
    preds: dict[str, list[str]] = field(default_factory=dict)  # ref -> distinct preds
    out: dict[tuple[str, Label], tuple[Message, ...]] = field(default_factory=dict)
    fed: dict[tuple[str, Label], tuple[Message, ...]] = field(default_factory=dict)
    state: dict[tuple[str, Label], str] = field(default_factory=dict)
    interpreted: list[str] = field(default_factory=list)


def _decode_label(raw) -> Label:
    return Label(int(raw[0]), int(raw[1]))


def server_dags(events: list[dict]) -> dict[int, dict[str, dict]]:
    """Each server's DAG as the trace records it: ref -> the first INSERT
    event of that ref at that server, in insertion order. The DAG at a step
    is the entries whose event is at or before that step."""
    dags: dict[int, dict[str, dict]] = {}
    for ev in events:
        if ev["kind"] == "INSERT":
            dags.setdefault(ev["server"], {}).setdefault(ev["ref"], ev)
    return dags


def server_views(events: list[dict]) -> dict[int, _ServerView]:
    """Each server's view, with every distinct message encoding decoded once."""
    views: dict[int, _ServerView] = {}
    for server, dag in server_dags(events).items():
        preds = {ref: list(dict.fromkeys(ev["preds"])) for ref, ev in dag.items()}
        views[server] = _ServerView(inserts=dag, preds=preds)
    messages: dict[str, Message] = {}

    def decode(hexes: list[str], server: int, ref: str) -> tuple[Message, ...]:
        for h in hexes:
            if h not in messages:
                try:
                    messages[h] = message_from_canonical(bytes.fromhex(h))
                except (ValueError, EncodingError) as exc:
                    what = f"server {server} block {ref[:12]}: undecodable message {h[:24]!r}"
                    raise TraceFormatError(what) from exc
        return tuple(messages[h] for h in hexes)

    for ev in events:
        if ev["kind"] == "INTERPRET":
            server, ref = ev["server"], ev["ref"]
            view = views.setdefault(server, _ServerView())
            view.interpreted.append(ref)
            for act in ev["labels"]:
                key = (ref, _decode_label(act["label"]))
                view.fed[key] = decode(act["fed"], server, ref)
                view.out[key] = decode(act["emitted"], server, ref)
                view.state[key] = act["state"]
    return views


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
        for ref, preds in view.preds.items():
            for p in preds:
                children.setdefault(p, []).append(ref)

        # reliable delivery: an emitted message appears in the in-buffer of
        # every block by its (correct) receiver that references the emitting block
        for (ref1, label), messages in sorted(view.out.items()):
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
        deliveries: dict[tuple[Label, int, Message], list[str]] = {}
        for (ref2, label), fed in view.fed.items():
            receiver = builder_of.get(ref2)
            if receiver not in correct:
                continue
            for m in fed:
                deliveries.setdefault((label, receiver, m), []).append(ref2)
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
            # a byzantine sender may send equal messages from several blocks;
            # only one origin block contributing it twice is a duplication
            origin_count: dict[str, int] = {}
            for ref2 in feeds:
                for p in view.preds[ref2]:
                    if m in view.out.get((p, label), ()):
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
        for (ref2, label), fed in sorted(view.fed.items()):
            for m in fed:
                if m.sender not in correct:
                    continue
                report.checked += 1
                if not any(
                    builder_of.get(p) == m.sender and m in view.out.get((p, label), ())
                    for p in view.preds.get(ref2, ())
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
        try:
            value = decode_deliver(bytes.fromhex(ev["indication"]))
        except (ValueError, ProtocolError) as exc:
            what = f"server {server} label {label.originator}/{label.nonce}: undecodable indication"
            raise TraceFormatError(what) from exc
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


def _edges_within(preds: dict[str, list[str]], refs: set[str]) -> set[tuple[str, str]]:
    """The edges among ``refs`` in the DAG ``preds`` describes, which holds them all."""
    return {(p, ref) for ref in refs for p in preds[ref] if p in refs}


def check_convergence(events: list[dict], scenario: Scenario) -> CheckReport:
    """Every pair of correct snapshots is jointly contained in every correct
    server's final DAG (with the edge restriction, not mere vertex subset),
    pair by pair: a final DAG's edge may run between two snapshots."""
    report = CheckReport("convergence")
    steps = tuple(scenario.snapshot_steps)
    views = server_views(events)
    finals = {s: views[s].preds for s in sorted(set(scenario.correct_servers())) if s in views}
    if not steps or not finals:
        report.vacuous = True
        return report

    snaps = {}
    for s, preds in finals.items():
        for t in steps:
            refs = {ref for ref, ev in views[s].inserts.items() if ev["step"] <= t}
            snaps[(s, t)] = (refs, _edges_within(preds, refs))
    for s1 in finals:
        for s2 in finals:
            for t1 in steps:
                for t2 in steps:
                    v1, e1 = snaps[(s1, t1)]
                    v2, e2 = snaps[(s2, t2)]
                    refs, edges = v1 | v2, e1 | e2
                    for target, preds in finals.items():  # in server order
                        report.checked += 1
                        if not (refs <= preds.keys() and edges == _edges_within(preds, refs)):
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
    emitted: dict[int, int] = {}  # server -> messages its interpretation emitted
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
            count = sum(len(act["emitted"]) for act in ev["labels"])
            emitted[ev["server"]] = emitted.get(ev["server"], 0) + count
        elif kind == "INDICATE" and ev["surfaced"]:
            census.deliveries_surfaced += 1
    if emitted:
        census.materialized_messages = emitted[min(emitted)]
    census.blocks_built = len(refs_built)
    return census
