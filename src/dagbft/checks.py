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
Point-to-point computes each per-block fact once per pass for all
servers: the views read the events in one loop, each distinct ``preds``
list gets one distinct-preds list, each distinct body is decoded once with
the message headers its verdicts read, and each distinct block as a server
holds it is one node. It decides each distinct block once per pass, from
the block's body, its preds and their bodies and builders, into a check
count and the failed checks, and every server that holds that block reuses
the verdict and sorts the failures into its own report.

Each checker makes no reference cycles and runs with the cyclic garbage
collector paused: see ``trace.gc_paused``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable

from .brb import decode_deliver
from .crypto import EncodingError
from .protocol import MESSAGE_HEAD, Label, Message, ProtocolError, message_from_canonical
from .simnet import Scenario
from .trace import TraceFormatError, gc_paused


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
_Sent = tuple[Label, Message, int]  # a message emitted, its label and its index there
_NO_ACT: _Buffers = ((), ())


class _Body:
    """One INTERPRET ``labels`` list, decoded: label -> (fed, emitted), the
    last entry for a label holding. Bodies are interned by content, so equal
    bodies are one object, and the verdict keys of
    :func:`check_point_to_point` hold bodies by identity.

    A body also holds the message headers its verdicts read, each read once
    for every verdict that holds the body: per label the sender of each fed
    message, and per receiver the messages emitted to it, each with its
    label and its index in that label's emitted list."""

    __slots__ = ("acts", "senders", "sent_to")

    def __init__(self, acts: dict[Label, _Buffers]):
        head = MESSAGE_HEAD.unpack_from
        self.acts = acts
        self.senders = {label: [head(m)[2] for m in fed] for label, (fed, _) in acts.items()}
        self.sent_to: dict[int, list[_Sent]] = {}
        for label, (_, out) in acts.items():
            for i, m in enumerate(out):
                to = head(m)[3]
                sent = self.sent_to.get(to)
                if sent is None:
                    self.sent_to[to] = [(label, m, i)]
                else:
                    sent.append((label, m, i))


_NO_BODY = _Body({})  # the body of a block never interpreted: fed nothing


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


def _distinct_preds() -> Callable[[list[str]], list[str]]:
    """A function from an INSERT ``preds`` list to its distinct preds, in
    order, that makes one list per distinct ``preds`` list and returns it
    for every equal one. In memory a run's servers share one ``preds`` list
    per ref, found by its id; a trace read from a file has a list per event,
    found by its content."""
    by_list: dict[int, tuple[list[str], list[str]]] = {}  # id(preds) -> (preds, distinct)
    by_content: dict[tuple[str, ...], list[str]] = {}

    def distinct(preds: list[str]) -> list[str]:
        shared = by_list.get(id(preds))
        if shared is None:
            content = tuple(preds)
            found = by_content.get(content)
            if found is None:
                found = by_content[content] = list(dict.fromkeys(preds))
            shared = by_list[id(preds)] = (preds, found)  # the list kept keeps its id
        return shared[1]

    return distinct


def server_views(events: list[dict]) -> dict[int, _ServerView]:
    """Each server's view for the link properties, from one pass over the
    events. Each distinct ``preds`` list gets one distinct-preds list (see
    :func:`_distinct_preds`), every distinct message encoding is decoded
    once, and every distinct INTERPRET body, keyed by its labels' fed and
    emitted encodings, is decoded once. Servers that share one ``labels``
    list object (a shared report, in memory) find its body by the list's id;
    a trace read from a file finds it by content."""
    views: dict[int, _ServerView] = {}
    distinct = _distinct_preds()
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
        return tuple(map(messages.__getitem__, hexes))

    for ev in events:
        kind = ev["kind"]
        if kind != "INSERT" and kind != "INTERPRET":
            continue
        server, ref = ev["server"], ev["ref"]
        view = views.get(server)
        if view is None:
            view = views[server] = _ServerView()
        if kind == "INSERT":
            if ref not in view.inserts:
                view.inserts[ref] = ev
                view.preds[ref] = distinct(ev["preds"])
            continue
        view.interpreted.append(ref)
        labels = ev["labels"]
        shared = by_list.get(id(labels))
        if shared is None:
            content = tuple([(tuple(act["label"]), tuple(act["fed"]), tuple(act["emitted"])) for act in labels])
            body = by_content.get(content)
            if body is None:
                acts = {
                    Label(int(raw[0]), int(raw[1])): (decode(fed, server, ref), decode(out, server, ref))
                    for raw, fed, out in content
                }
                body = by_content[content] = _Body(acts)
            shared = by_list[id(labels)] = (labels, body)  # the list kept keeps its id
        view.bodies.append(shared[1])
    return views


# ---------------------------------------------------------------------------
# Point-to-point link properties over interpretation
# ---------------------------------------------------------------------------

class _Node:
    """A block as one server holds it: its ref, its builder as the server's
    INSERT records it (None if it never inserted the ref), and its body
    (None if it never interpreted the ref). A pass makes one node per
    distinct (ref, builder, body), so nodes hash and compare by identity,
    and a block's verdict key, (its node, the nodes of its distinct preds),
    hashes its nodes' addresses alone."""

    __slots__ = ("ref", "builder", "body")

    def __init__(self, ref: str, builder: int | None, body: _Body | None):
        self.ref, self.builder, self.body = ref, builder, body


_Key = tuple[_Node, tuple[_Node, ...]]
# A failed check: (section, ref, label, index, receiving ref, property,
# detail). Reliable delivery is section 0: the emitting ref, the message's
# index in that label's emitted list, and the receiving ref. Authenticity is
# section 2: the feeding ref, the message's index in that label's fed list,
# and no receiving ref. A server sorts its failures by the first five.
_Failure = tuple[int, str, Label, int, "str | None", str, str]


# A pred the server neither inserted nor interpreted: with no builder and no
# body, no check reads it.
_ABSENT = _Node("", None, None)


def _block_keys(view: _ServerView, pool: dict[tuple, _Node]) -> list[_Key]:
    """The verdict key of each block the server inserted or interpreted,
    its nodes drawn from the pass's ``pool``: (ref, builder, body) -> node.
    A ref interpreted twice has one body, the last entry for each label
    holding; a ref interpreted but never inserted has no builder and no
    preds."""
    body_of: dict[str, _Body] = {}
    for ref, body in zip(view.interpreted, view.bodies):
        earlier = body_of.get(ref)
        body_of[ref] = body if earlier is None else _Body({**earlier.acts, **body.acts})
    held: dict[str, _Node] = {}
    for ref, ev in view.inserts.items():
        node = (ref, ev["builder"], body_of.get(ref))
        held[ref] = pool.get(node) or pool.setdefault(node, _Node(*node))
    for ref, body in body_of.items():
        if ref not in held:
            node = (ref, None, body)
            held[ref] = pool.get(node) or pool.setdefault(node, _Node(*node))
    absent = repeat(_ABSENT)
    return [(block, tuple(map(held.get, view.preds.get(ref, ()), absent))) for ref, block in held.items()]


def _decide_block(key: _Key, correct: set[int]) -> tuple[int, tuple[_Failure, ...]]:
    """Reliable delivery on a block's in-edges and authenticity of its fed
    messages, decided from the block's verdict key alone: the number of
    checks and the failed ones, which name no server. The headers come from
    the bodies (see :class:`_Body`), and each check looks one message up in
    one label's list, a few messages long: a message a correct pred emitted
    to the block's correct builder, in the block's fed list; a message fed
    from a correct sender, in the emitted lists of the preds that sender
    built."""
    block, preds = key
    ref, builder, body = block.ref, block.builder, block.body or _NO_BODY
    acts = body.acts
    checked, failures = 0, []
    if builder in correct:
        for pred in preds:
            if pred.body is None or pred.builder not in correct:
                continue
            pred_ref, sent = pred.ref, pred.body.sent_to.get(builder, ())
            checked += len(sent)
            for label, m, i in sent:
                if m not in acts.get(label, _NO_ACT)[0]:
                    detail = (
                        f"message {m.sender}->{m.receiver} from block {pred_ref[:12]} missing in "
                        f"in-buffer of {ref[:12]} (label {label.originator}/{label.nonce})"
                    )
                    failures.append((0, pred_ref, label, i, ref, "reliable-delivery", detail))
    origins: dict[int | None, list[_Body]] = {}  # builder -> the bodies of its preds
    for pred in preds:
        if pred.body is not None:
            origins.setdefault(pred.builder, []).append(pred.body)
    for label, (fed, _) in acts.items():
        for i, (m, sender) in enumerate(zip(fed, body.senders[label])):
            if sender not in correct:
                continue
            checked += 1
            for pred_body in origins.get(sender, ()):
                if m in pred_body.acts.get(label, _NO_ACT)[1]:
                    break
            else:
                detail = (
                    f"message claiming sender {sender} in in-buffer of {ref[:12]} has no "
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
    for block, preds in keys:
        receiver, body = block.builder, block.body
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
    for (label, receiver, m), feeds in sorted(repeats.items()):
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
            for pred in preds:
                if pred.body is not None and m in pred.body.acts.get(label, _NO_ACT)[1]:
                    origin_count[pred.ref] = origin_count.get(pred.ref, 0) + 1
        repeated = sorted(p for p, c in origin_count.items() if c > 1)
        if repeated:
            violations.append(
                f"no-duplication: interpreter {server}: origin block {repeated[0][:12]} "
                f"contributed the same message twice to server {receiver} "
                f"(label {label.originator}/{label.nonce})"
            )
    return sum(map(len, first.values())), violations


@gc_paused
def check_point_to_point(events: list[dict], scenario: Scenario) -> CheckReport:
    """Reliable delivery, no duplication, and authenticity, restated over the
    interpretation events of every correct server.

    Reliable delivery on a block's in-edges and authenticity of its fed
    messages read only the block's verdict key (see :func:`_block_keys`), so
    a pass decides each distinct key once, into its check count and its
    failed checks, and every server holding the key reuses the verdict. The
    pass makes one node per distinct block as a server holds it, so a key
    hashes and compares by its nodes' identities. A server sorts its
    failures, the receiving block of a reliable-delivery failure by its
    INSERT order there, and reports its reliable-delivery failures, then its
    no-duplication violations, then its authenticity failures. No
    duplication spans a receiver's chain and stays per server; a clean
    result is shared by servers with the same correct-built blocks.
    """
    report = CheckReport("point-to-point")
    correct = set(scenario.correct_servers())
    views = server_views(events)
    pool: dict[tuple, _Node] = {}  # (ref, builder, body) -> its node
    verdicts: dict[_Key, tuple[int, tuple[_Failure, ...]]] = {}
    clean_no_dup: dict[frozenset[int], int] = {}  # correct-built blocks' verdict ids -> check count
    seen_any = False

    for server in sorted(views):
        if server not in correct:
            continue
        view = views[server]
        if not view.interpreted:
            continue
        seen_any = True
        keys = _block_keys(view, pool)
        checked, failures, own = 0, [], []
        for key in keys:
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = _decide_block(key, correct)
            checked += verdict[0]
            failures += verdict[1]
            if key[0].builder in correct:
                own.append(id(verdict))  # the pass keeps one verdict object per key
        own = frozenset(own)
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


@gc_paused
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


@gc_paused
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
    distinct = _distinct_preds()
    finals = {
        s: {ref: distinct(ev["preds"]) for ref, ev in dags[s].items()} for s in sorted(correct) if s in dags
    }
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


@gc_paused
def check_interpretation_agreement(events: list[dict], scenario: Scenario) -> CheckReport:
    """For every block interpreted by several correct servers, the per-label
    state digests must coincide. Servers whose INTERPRET events of a block
    hold the same ``labels`` lists are read once, as one group."""
    report = CheckReport("interpretation-agreement")
    correct = set(scenario.correct_servers())
    held: dict[str, dict[int, list[list]]] = {}  # ref -> server -> its labels lists
    for ev in events:
        if ev["kind"] == "INTERPRET" and ev["server"] in correct:
            held.setdefault(ev["ref"], {}).setdefault(ev["server"], []).append(ev["labels"])
    by_key: dict[tuple[str, tuple[int, int]], set[str]] = {}
    for ref, lists_of in held.items():
        for lists in {tuple(map(id, lists)): lists for lists in lists_of.values()}.values():
            states = {(act["label"][0], act["label"][1]): act["state"] for labels in lists
                      for act in labels}  # a repeated entry overwrites
            for label, digest in states.items():
                by_key.setdefault((ref, label), set()).add(digest)
    if not by_key:
        report.vacuous = True
        return report
    for (ref, (originator, nonce)), digests in sorted(by_key.items()):
        report.checked += 1
        if len(digests) > 1:
            report.violations.append(
                f"agreement: block {ref[:12]} label {int(originator)}/{int(nonce)} has "
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
