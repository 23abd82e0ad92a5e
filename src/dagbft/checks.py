"""Trace checkers: replay a recorded run and assert the framework's
guarantees over it.

All checkers consume the parsed event list plus the scenario (the scenario
supplies the correct/byzantine partition and the injected requests, neither
of which is derivable from the trace alone). Violations are report entries,
never exceptions, so a checker can enumerate everything wrong with a forged
trace in one pass.

Each checker reads only the trace facts its property names: BRB the
surfaced indications, convergence the INSERT events, agreement the
INTERPRET state digests, and the link properties (point-to-point) the fed
and emitted messages, decoded by :func:`server_views`, its only caller.
Point-to-point decides each distinct block once per pass, from the block's
body, its preds and their bodies and builders, into a check count and the
failed checks, and every server that holds that block reuses the verdict
and sorts the failures into its own report.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain

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


_Buffers = tuple[tuple[Message, ...], tuple[Message, ...]]  # (fed, emitted) of one label
_Sent = tuple[list[Label], list[Message], list[int]]
_NOT_SENT: _Sent = ([], [], [])


class _Body:
    """One INTERPRET ``labels`` list, decoded: label -> (fed, emitted), the
    last entry for a label holding. Bodies are interned by content, so equal
    bodies are one object, and the verdict keys of
    :func:`check_point_to_point` hold bodies by identity."""

    __slots__ = ("acts", "_sent")

    def __init__(self, acts: dict[Label, _Buffers]):
        self.acts = acts
        self._sent: dict[int, _Sent] | None = None

    def sent_to(self, receiver: int) -> _Sent:
        """The messages emitted to ``receiver``, in body order, with the label
        of each and its index in that label's emitted list: three lists, not
        a triple per message, as a pass keeps them."""
        if self._sent is None:
            self._sent = {}
            for label, (_, out) in self.acts.items():
                for i, m in enumerate(out):
                    sent = self._sent.get(m.receiver)
                    if sent is None:
                        sent = self._sent[m.receiver] = ([], [], [])
                    sent[0].append(label)
                    sent[1].append(m)
                    sent[2].append(i)
        return self._sent.get(receiver, _NOT_SENT)


@dataclass
class _ServerView:
    """One server's recorded perspective: its inserts, and the ref and the
    decoded body of each of its INTERPRET events."""

    inserts: dict[str, dict] = field(default_factory=dict)  # ref -> INSERT event
    preds: dict[str, list[str]] = field(default_factory=dict)  # ref -> distinct preds
    interpreted: list[str] = field(default_factory=list)  # refs in INTERPRET order
    bodies: list[_Body] = field(default_factory=list)  # the body of each, in that order


def server_dags(events: list[dict]) -> dict[int, dict[str, dict]]:
    """Each server's DAG as the trace records it: ref -> the first INSERT
    event of that ref at that server, in insertion order. The DAG at a step
    is the entries whose event is at or before that step."""
    dags: dict[int, dict[str, dict]] = {}
    for ev in events:
        if ev["kind"] == "INSERT":
            dags.setdefault(ev["server"], {}).setdefault(ev["ref"], ev)
    return dags


def _distinct_preds(dag: dict[str, dict]) -> dict[str, list[str]]:
    """ref -> the distinct preds, in order, of a :func:`server_dags` DAG's refs."""
    return {ref: list(dict.fromkeys(ev["preds"])) for ref, ev in dag.items()}


def server_views(events: list[dict]) -> dict[int, _ServerView]:
    """Each server's view for the link properties, with every distinct
    message encoding decoded once and every distinct INTERPRET body, keyed by
    its labels' fed and emitted encodings, decoded once. Servers that share
    one ``labels`` list object (a shared report, in memory) find its body
    by the list's id; a trace read from a file finds it by content."""
    views = {s: _ServerView(dag, _distinct_preds(dag)) for s, dag in server_dags(events).items()}
    messages: dict[str, Message] = {}
    by_list: dict[int, tuple[list, _Body]] = {}  # id(labels) -> (labels, body)
    by_content: dict[tuple, _Body] = {}

    def decode(hexes: tuple[str, ...], server: int, ref: str) -> tuple[Message, ...]:
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
            server, ref, labels = ev["server"], ev["ref"], ev["labels"]
            view = views.get(server)
            if view is None:  # a server that interpreted but never inserted
                view = views[server] = _ServerView()
            view.interpreted.append(ref)
            shared = by_list.get(id(labels))
            if shared is None:
                content = tuple(
                    [(tuple(act["label"]), tuple(act["fed"]), tuple(act["emitted"])) for act in labels]
                )
                body = by_content.get(content)
                if body is None:
                    acts = {
                        Label(int(raw[0]), int(raw[1])): (
                            decode(fed, server, ref),
                            decode(out, server, ref),
                        )
                        for raw, fed, out in content
                    }
                    body = by_content[content] = _Body(acts)
                shared = by_list[id(labels)] = (labels, body)  # the list kept keeps its id
            view.bodies.append(shared[1])
    return views


# ---------------------------------------------------------------------------
# Point-to-point link properties over interpretation
# ---------------------------------------------------------------------------

# A block's node at a server is (ref, builder, body): the builder as the
# server's INSERT records it, None if it never inserted the ref, and the
# body None if it never interpreted the ref. Its verdict key is (node, the
# nodes of its distinct preds).
_Node = tuple[str, "int | None", "_Body | None"]
_Key = tuple[_Node, tuple[_Node, ...]]
# A failed check: (section, ref, label, index, receiving ref, property,
# detail). Reliable delivery is section 0: the emitting ref, the message's
# index in that label's emitted list, and the receiving ref. Authenticity is
# section 2: the feeding ref, the message's index in that label's fed list,
# and no receiving ref. A server sorts its failures by the first five.
_Failure = tuple[int, str, Label, int, "str | None", str, str]
_NO_ACT: _Buffers = ((), ())


def _block_keys(view: _ServerView) -> list[_Key]:
    """The verdict key of each block the server inserted or interpreted. A
    ref interpreted twice has one body, the last entry for each label
    holding; a ref interpreted but never inserted has no builder and no
    preds."""
    body_of: dict[str, _Body] = {}
    for ref, body in zip(view.interpreted, view.bodies):
        earlier = body_of.get(ref)
        body_of[ref] = body if earlier is None else _Body({**earlier.acts, **body.acts})
    nodes: dict[str, _Node] = {ref: (ref, None, body) for ref, body in body_of.items()}
    nodes.update((ref, (ref, ev["builder"], body_of.get(ref))) for ref, ev in view.inserts.items())
    return [
        (node, tuple([nodes.get(p) or (p, None, None) for p in view.preds.get(ref, ())]))
        for ref, node in nodes.items()
    ]


def _decide_block(key: _Key, correct: set[int]) -> tuple[int, tuple[_Failure, ...]]:
    """Reliable delivery on a block's in-edges and authenticity of its fed
    messages, decided from the block's verdict key alone: the number of
    checks and the failed ones, which name no server."""
    (ref, builder, body), preds = key
    acts = body.acts if body is not None else {}
    checked, failures = 0, []
    if builder in correct:
        for pred_ref, pred_builder, pred_body in preds:
            if pred_body is None or pred_builder not in correct:
                continue
            labels, messages, indices = pred_body.sent_to(builder)
            checked += len(labels)
            for label, m, i in zip(labels, messages, indices):
                if m not in acts.get(label, _NO_ACT)[0]:
                    detail = (
                        f"message {m.sender}->{m.receiver} from block {pred_ref[:12]} missing in "
                        f"in-buffer of {ref[:12]} (label {label.originator}/{label.nonce})"
                    )
                    failures.append((0, pred_ref, label, i, ref, "reliable-delivery", detail))
    origins: dict[int | None, list[_Body]] = {}  # builder -> the bodies of its preds
    for _, pred_builder, pred_body in preds:
        if pred_body is not None:
            origins.setdefault(pred_builder, []).append(pred_body)
    for label, (fed, _) in acts.items():
        for i, m in enumerate(fed):
            if m.sender not in correct:
                continue
            checked += 1
            if not any(m in pb.acts.get(label, _NO_ACT)[1] for pb in origins.get(m.sender, ())):
                detail = (
                    f"message claiming sender {m.sender} in in-buffer of {ref[:12]} has no "
                    f"signed origin block (label {label.originator}/{label.nonce})"
                )
                failures.append((2, ref, label, i, None, "authenticity", detail))
    return checked, tuple(failures)  # a clean verdict holds the one empty tuple


def _no_duplication(server: int, keys: list[_Key], correct: set[int]) -> tuple[int, list[str]]:
    """No duplication at one server, from its verdict keys: one send is fed
    at most once along a correct receiver's chain; for correct senders the
    message itself is unique. The number of checks, and the violations in
    (label, receiver, message) order."""
    # (label, receiver) -> message -> the preds of its first feeding block
    first: dict[tuple[Label, int], dict[Message, tuple[_Node, ...]]] = {}
    # (label, receiver, message) -> the preds of every feeding block, if several
    repeats: dict[tuple[Label, int, Message], list[tuple[_Node, ...]]] = {}
    for (_, receiver, body), preds in keys:
        if receiver not in correct or body is None:
            continue
        for label, (fed, _) in body.acts.items():
            seen = first.setdefault((label, receiver), {})
            for m in fed:
                if m in seen:
                    repeats.setdefault((label, receiver, m), [seen[m]]).append(preds)
                else:
                    seen[m] = preds
    violations = []
    for (label, receiver, m), feeds in sorted(
        repeats.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].canonical_bytes())
    ):
        if m.sender in correct:
            violations.append(
                f"no-duplication: interpreter {server}: message {m.sender}->{receiver} "
                f"(label {label.originator}/{label.nonce}) fed {len(feeds)} times "
                f"across blocks of server {receiver}"
            )
            continue
        # a byzantine sender may send equal messages from several blocks;
        # only one origin block contributing it twice is a duplication
        origin_count: dict[str, int] = {}
        for preds in feeds:
            for p, _, pred_body in preds:
                if pred_body is not None and m in pred_body.acts.get(label, _NO_ACT)[1]:
                    origin_count[p] = origin_count.get(p, 0) + 1
        repeated = sorted(p for p, c in origin_count.items() if c > 1)
        if repeated:
            violations.append(
                f"no-duplication: interpreter {server}: origin block {repeated[0][:12]} "
                f"contributed the same message twice to server {receiver} "
                f"(label {label.originator}/{label.nonce})"
            )
    return sum(map(len, first.values())), violations


def check_point_to_point(events: list[dict], scenario: Scenario) -> CheckReport:
    """Reliable delivery, no duplication, and authenticity, restated over the
    interpretation events of every correct server.

    Reliable delivery on a block's in-edges and authenticity of its fed
    messages read only the block's verdict key (see :func:`_block_keys`), so
    a pass decides each distinct key once, into its check count and its
    failed checks, and every server holding the key reuses the verdict. A
    server sorts its failures, the receiving block of a reliable-delivery
    failure by its INSERT order there, and reports its reliable-delivery
    failures, then its no-duplication violations, then its authenticity
    failures. No duplication spans a receiver's chain and stays per server;
    a clean result is shared by servers with the same correct-built blocks.
    """
    report = CheckReport("point-to-point")
    correct = set(scenario.correct_servers())
    views = server_views(events)
    verdicts: dict[_Key, tuple[int, tuple[_Failure, ...]]] = {}
    clean_no_dup: dict[frozenset[_Key], int] = {}  # correct-built blocks -> check count
    seen_any = False

    for server in sorted(views):
        if server not in correct:
            continue
        view = views[server]
        if not view.interpreted:
            continue
        seen_any = True
        keys = _block_keys(view)
        checked, failures = 0, []
        for key in keys:
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = _decide_block(key, correct)
            checked += verdict[0]
            failures += verdict[1]
        own = frozenset(key for key in keys if key[0][1] in correct)
        no_dup, violations = clean_no_dup.get(own), []
        if no_dup is None:
            no_dup, violations = _no_duplication(server, keys, correct)
            if not violations:
                clean_no_dup[own] = no_dup
        report.checked += checked + no_dup
        if failures:
            position = {ref: i for i, ref in enumerate(view.inserts)}
            failures.sort(key=lambda f: (*f[:4], position.get(f[4])))
            lines = [f"{f[5]}: interpreter {server}: {f[6]}" for f in failures]
            delivered = sum(f[0] == 0 for f in failures)
            violations = lines[:delivered] + violations + lines[delivered:]
        report.violations += violations

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
        label = Label(int(ev["label"][0]), int(ev["label"][1]))
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


def _one_preds_set(finals: dict[int, dict[str, list[str]]]) -> bool:
    """C1: every ref has one distinct-preds set in every final DAG."""
    merged: dict[str, list[str]] = {}
    for preds in finals.values():
        merged.update(preds)
    for preds in finals.values():
        # equal lists, the common case, are compared in C
        if list(map(merged.__getitem__, preds)) != list(preds.values()) and any(
            set(merged[ref]) != set(ps) for ref, ps in preds.items()
        ):
            return False
    return True


def _snapshots(dag: dict[str, dict], steps: tuple[int, ...]) -> tuple[dict[int, set[str]], bool]:
    """The DAG's snapshot sets ``{ref : INSERT step <= t}`` per step ``t``,
    and C2: whether each of them holds the preds of its refs."""
    cuts = sorted(set(steps))
    layers: list[list[str]] = [[] for _ in cuts]  # refs by the first cut that holds them
    for ref, ev in dag.items():
        i = bisect_left(cuts, ev["step"])
        if i < len(cuts):
            layers[i].append(ref)
    snaps, held, closed = {}, set(), True
    for t, layer in zip(cuts, layers):
        held = held.union(layer)
        snaps[t] = held
        closed = closed and held.issuperset(chain.from_iterable(dag[ref]["preds"] for ref in layer))
    return snaps, closed


def check_convergence(events: list[dict], scenario: Scenario) -> CheckReport:
    """Every pair of correct snapshots is jointly contained in every correct
    server's final DAG (with the edge restriction, not mere vertex subset),
    reported pair by pair in (s1, s2, t1, t2, target) order.

    A snapshot is the set ``{ref : INSERT step <= t}`` of one server. The
    pair test is decided per snapshot when two conditions hold: (C1) every
    ref has one distinct-preds set in every correct server's final DAG, and
    (C2) every snapshot holds the preds of its refs. Then, for a target that
    holds ``v1 | v2``, the edges it has among them are exactly ``e1 | e2``,
    so a pair passes exactly when the target holds ``v1`` and holds ``v2``.
    Simulated traces always meet both (a ref hashes its preds, and a server
    inserts a block only after its preds). When either fails, as in a forged
    trace, each pair's union is compared edge by edge against each target,
    since a final DAG's edge may then run between two snapshots.
    """
    report = CheckReport("convergence")
    steps = tuple(scenario.snapshot_steps)
    correct = set(scenario.correct_servers())
    dags = server_dags(events)
    if correct - dags.keys():  # a correct server that only interpreted has an empty DAG
        interpreters = (ev["server"] for ev in events if ev["kind"] == "INTERPRET")
        dags.update((s, {}) for s in interpreters if s not in dags)
    finals = {s: _distinct_preds(dags[s]) for s in sorted(correct) if s in dags}
    if not steps or not finals:
        report.vacuous = True
        return report

    snaps: dict[tuple[int, int], set[str]] = {}
    closed = True
    for s in finals:
        per_step, ok = _snapshots(dags[s], steps)
        closed = closed and ok
        snaps.update(((s, t), refs) for t, refs in per_step.items())

    if closed and _one_preds_set(finals):
        holds = {
            (key, target): refs <= preds.keys()
            for key, refs in snaps.items()
            for target, preds in finals.items()
        }

        def failing(a, b) -> list[int]:
            return [t for t in finals if not (holds[a, t] and holds[b, t])]

    else:
        edges = {key: _edges_within(finals[key[0]], refs) for key, refs in snaps.items()}

        def failing(a, b) -> list[int]:
            refs, joint = snaps[a] | snaps[b], edges[a] | edges[b]
            return [
                target
                for target, preds in finals.items()
                if not (refs <= preds.keys() and joint == _edges_within(preds, refs))
            ]

    for s1 in finals:
        for s2 in finals:
            for t1 in steps:
                for t2 in steps:
                    report.checked += len(finals)
                    for target in failing((s1, t1), (s2, t2)):
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
    states: dict[tuple[int, str, Label], str] = {}  # a repeated entry overwrites
    for ev in events:
        if ev["kind"] == "INTERPRET" and ev["server"] in correct:
            for act in ev["labels"]:
                raw = act["label"]
                states[ev["server"], ev["ref"], Label(int(raw[0]), int(raw[1]))] = act["state"]
    by_key: dict[tuple[str, Label], set[str]] = {}
    for (_, ref, label), digest in states.items():
        by_key.setdefault((ref, label), set()).add(digest)
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
