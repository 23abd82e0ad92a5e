"""Independent oracles the tests check the implementation against.

Four kinds live here, each independent of the code path it judges:

* ``reference_outputs`` recomputes what a double-echo broadcast instance must
  emit for an input sequence by rescanning the prefix with plain set
  arithmetic. It shares no code with the instance implementation and is used
  to verify trigger points exhaustively.
* ``perfect_network_deliveries`` executes protocol instances over an ideal
  direct network (no DAG, no gossip, no simulator). It deliberately reuses
  the instance class: the thing it isolates is the DAG embedding, which must
  reproduce exactly what the bare protocol does.
* ``RescanPromoter`` is the gossip layer's pending buffer as first written:
  every promotion round rescans the whole buffer with ``BlockDag.is_valid``.
  ``GossipNode`` replaced the rescan with a waiter index; this is the
  behaviour the index must reproduce.

* ``check_point_to_point``, ``check_brb``, ``check_convergence`` and
  ``check_interpretation_agreement`` are the trace checkers as first
  written, with their helpers: they decode a message at every occurrence,
  rebuild each block's distinct predecessors wherever they need them and
  compare whole edge sets per snapshot pair. ``dagbft.checks`` computes
  each of those facts once; its reports must equal these.
* ``debug_oracles`` lays structural checks over any run from outside:
  every DAG stays predecessor-closed and acyclic, and every interpreter
  slot is empty until its block is interpreted and never changes after.
  ``interpret_in_random_order`` interprets a DAG in a seeded random
  topological order, for the order-independence checks.

Beside them sit the paper's definitions that only the tests evaluate: the
generic directed graph with its insert, ``extends`` and ``union``, the
vertex- and edge-wise ``union_dags`` of two block DAGs, ``message_less``,
the strict total order on messages, and ``live_labels``, the labels a block
can hold state for.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random
from typing import Iterable, Iterator

from dagbft.blockdag import Block, BlockDag, BlockDagError, BlockRef, block_ref
from dagbft.brb import ReliableBroadcast, decode_deliver, encode_broadcast, encode_payload
from dagbft.checks import CheckReport
from dagbft.crypto import UnknownServerError, content_digest
from dagbft.interpret import BlockInterpretation, Interpreter
from dagbft.protocol import Label, Message, message_from_canonical, message_sort_key
from dagbft.simnet import Scenario

# Input alphabet for the reference oracle:
#   ("broadcast", value)          user request at the instance's server
#   ("ECHO", value, sender)       message arrival
#   ("READY", value, sender)      message arrival
BroadcastInput = tuple


def reference_outputs(
    inputs: list[BroadcastInput],
    n: int,
    f: int,
    *,
    is_originator: bool = True,
) -> list[list[tuple]]:
    """Expected emissions per input: distinct-sender sets are recounted from
    the raw arrival list at every step, never tracked incrementally.

    An emission ("ECHO", v) or ("READY", v) means a broadcast of that message
    to all n servers; ("deliver", v) means the indication is raised.
    """
    echo_quorum = 2 * f + 1
    amplify = f + 1
    deliver_quorum = 2 * f + 1

    emissions: list[list[tuple]] = []
    arrivals: list[tuple] = []
    echoed = readied = delivered = False
    for item in inputs:
        out: list[tuple] = []
        if item[0] == "broadcast":
            value = item[1]
            if is_originator and not echoed:
                echoed = True
                out.append(("ECHO", value))
        else:
            kind, value, _sender = item
            arrivals.append(item)
            echo_count = len({s for (kk, vv, s) in arrivals if kk == "ECHO" and vv == value})
            ready_count = len({s for (kk, vv, s) in arrivals if kk == "READY" and vv == value})
            if kind == "ECHO" and not echoed:
                echoed = True
                out.append(("ECHO", value))
            if not readied and (echo_count >= echo_quorum or ready_count >= amplify):
                readied = True
                out.append(("READY", value))
            if not delivered and ready_count >= deliver_quorum:
                delivered = True
                out.append(("deliver", value))
        emissions.append(out)
    return emissions


def feed_instance(instance, inputs: list[BroadcastInput]) -> list[list[tuple]]:
    """Drive a process instance with the oracle's input alphabet and translate
    its behavior back into the oracle's emission alphabet."""
    n = instance.server_count
    emissions: list[list[tuple]] = []
    for item in inputs:
        out: list[tuple] = []
        if item[0] == "broadcast":
            messages = instance.on_request(encode_broadcast(item[1]))
        else:
            kind, value, sender = item
            payload = encode_payload(1 if kind == "ECHO" else 2, value)
            messages = instance.on_receive(Message(sender, instance.server, payload))
        # messages arrive grouped as broadcasts-to-all in emission order
        assert len(messages) % n == 0, "instance must emit whole broadcasts"
        for i in range(0, len(messages), n):
            group = messages[i : i + n]
            assert [m.receiver for m in group] == list(range(n))
            assert len({m.payload for m in group}) == 1
            kind_byte = group[0].payload[0]
            value = int.from_bytes(group[0].payload[1:], "big")
            out.append(("ECHO" if kind_byte == 1 else "READY", value))
        for payload in instance.take_indications():
            out.append(("deliver", decode_deliver(payload)))
        emissions.append(out)
    return emissions


def perfect_network_deliveries(
    n: int, f: int, originator: int, value: int, *, label_nonce: int = 1
) -> dict[int, int]:
    """Run the broadcast over an ideal lossless network until quiescence;
    returns {server: delivered value}. No DAG machinery involved."""
    protocol = ReliableBroadcast(n, f)
    label = Label(originator, label_nonce)
    instances = {s: protocol.spawn(label, s) for s in range(n)}
    queue = deque(instances[originator].on_request(encode_broadcast(value)))
    while queue:
        message = queue.popleft()
        queue.extend(instances[message.receiver].on_receive(message))
    delivered: dict[int, int] = {}
    for server, instance in sorted(instances.items()):
        for payload in instance.take_indications():
            assert server not in delivered, "instance delivered twice"
            delivered[server] = decode_deliver(payload)
    return delivered


def echo_quorums_possible(n: int, f: int) -> list[tuple[int, int]]:
    """Enumerate every assignment of echo votes for two competing values with
    at most f equivocating senders; returns the (distinct-echoes-for-A,
    distinct-echoes-for-B) pairs that can occur. Pure combinatorics."""
    pairs = []
    from itertools import combinations, product

    servers = range(n)
    for byz_count in range(f + 1):
        for byz in combinations(servers, byz_count):
            honest = [s for s in servers if s not in byz]
            # honest senders echo A, B, or stay silent; byzantine echo both
            for choice in product((None, "A", "B"), repeat=len(honest)):
                a = sum(1 for c in choice if c == "A") + len(byz)
                b = sum(1 for c in choice if c == "B") + len(byz)
                pairs.append((a, b))
    return pairs


class RescanPromoter:
    """Reference pending buffer: receipt with signature check and a
    per-builder cap that evicts the builder's oldest block, promotion by
    rescanning, and the missing-predecessor listing."""

    def __init__(self, dag: BlockDag, *, pending_cap_per_builder: int = 1024) -> None:
        self.dag = dag
        self.cap = pending_cap_per_builder
        self.pending: dict[BlockRef, Block] = {}

    def on_receive_block(self, block: Block) -> str:
        """The disposition's value: buffered, already_known, bad_signature
        or evicted_oldest."""
        ref = block_ref(block)
        if ref in self.dag or ref in self.pending:
            return "already_known"
        try:
            if block.signature is None or not self.dag.registry.verify(
                block.builder, ref, block.signature
            ):
                return "bad_signature"
        except UnknownServerError:
            return "bad_signature"
        disposition = "buffered"
        same_builder = [r for r, b in self.pending.items() if b.builder == block.builder]
        if len(same_builder) >= self.cap:
            del self.pending[same_builder[0]]
            disposition = "evicted_oldest"
        self.pending[ref] = block
        return disposition

    def try_promote(self) -> list[Block]:
        """Rounds until none promotes: each round promotes, in ascending ref
        order, every pending block that is valid when the round begins."""
        promoted: list[Block] = []
        while True:
            batch = sorted(ref for ref, blk in self.pending.items() if self.dag.is_valid(blk))
            if not batch:
                return promoted
            for ref in batch:
                block = self.pending.pop(ref)
                self.dag.insert(block)
                promoted.append(block)

    def missing_predecessors(self) -> list[tuple[BlockRef, int]]:
        """(ref in neither the DAG nor the buffer, builder of a block listing
        it), pending blocks in ref order, each pair once."""
        out: list[tuple[BlockRef, int]] = []
        for ref in sorted(self.pending):
            block = self.pending[ref]
            for pred in block.distinct_preds():
                key = (pred, block.builder)
                if pred not in self.dag and pred not in self.pending and key not in out:
                    out.append(key)
        return out


def live_labels(dag: BlockDag, ref: BlockRef) -> frozenset[Label]:
    """The labels requested in ``ref`` or in any block ``ref`` reaches back
    to. Only these can have an instance, an in-buffer or an out-buffer at
    ``ref``; every other label digests as a fresh instance there."""
    labels: set[Label] = set()
    seen = {ref}
    stack = [ref]
    while stack:
        block = dag.get(stack.pop())
        labels.update(label for label, _ in block.requests)
        for pred in block.distinct_preds():
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    return frozenset(labels)


# ---------------------------------------------------------------------------
# Generic directed graphs (insert / extends / union on raw vertices)
# ---------------------------------------------------------------------------


@dataclass
class Digraph:
    """Plain directed graph; carries the general insert/extension semantics
    that the block DAG specializes."""

    vertices: set = field(default_factory=set)
    edges: set = field(default_factory=set)

    def insert(self, vertex, edges_to_vertex: Iterable[tuple]) -> "Digraph":
        """Insert ``vertex`` plus edges of the form (v_i, vertex), v_i already
        present. Returns a new graph; the only way to grow one."""
        new_edges = set(edges_to_vertex)
        for src, dst in new_edges:
            if dst != vertex:
                raise BlockDagError("insert edges must point at the new vertex")
            if src not in self.vertices:
                raise BlockDagError("insert edge source must already be a vertex")
        return Digraph(self.vertices | {vertex}, self.edges | new_edges)

    def is_acyclic(self) -> bool:
        return is_acyclic(self.vertices, self.edges)


def is_acyclic(vertices: set, edges: set) -> bool:
    """Kahn's algorithm: every vertex can be peeled off at in-degree zero."""
    succ: dict = {v: [] for v in vertices}
    indeg: dict = {v: 0 for v in vertices}
    for src, dst in edges:
        succ[src].append(dst)
        indeg[dst] += 1
    queue = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(vertices)


def extends(inner, outer) -> bool:
    """Graph extension: every inner vertex is in the outer graph and the inner
    edge set equals the outer edges restricted to inner vertices.

    The restriction clause matters: a graph that later gains an edge between
    two old vertices is not an extension of the old graph.
    """
    v1, e1 = _graph_view(inner)
    v2, e2 = _graph_view(outer)
    if not v1 <= v2:
        return False
    restricted = {(a, b) for (a, b) in e2 if a in v1 and b in v1}
    return e1 == restricted


def union(g1: Digraph, g2: Digraph) -> Digraph:
    return Digraph(g1.vertices | g2.vertices, g1.edges | g2.edges)


def dag_graph(dag: BlockDag) -> tuple[set, set]:
    """The DAG's vertex set and its edge set, one (pred, ref) edge per
    distinct predecessor."""
    refs = set(dag.refs())
    return refs, {(pred, ref) for ref in refs for pred in dag.get(ref).distinct_preds()}


def _graph_view(g) -> tuple[set, set]:
    if isinstance(g, BlockDag):
        return dag_graph(g)
    return set(g.vertices), set(g.edges)


def union_dags(g1: BlockDag, g2: BlockDag) -> BlockDag:
    """Vertex- and edge-wise union; it bypasses the insert validation path on
    purpose."""
    out = BlockDag(g1.registry)
    for src in (g1, g2):
        for ref, block in src._vertices.items():
            if ref not in out._vertices:
                out._vertices[ref] = block
    return out


def message_less(m1: Message, m2: Message) -> bool:
    """Strict total order on messages: byte order of the canonical encoding,
    the order the interpreter sorts by."""
    return message_sort_key(m1) < message_sort_key(m2)


# ---------------------------------------------------------------------------
# Structural debug oracles and the random-order driver
# ---------------------------------------------------------------------------


def check_dag(dag: BlockDag) -> None:
    """Every vertex is keyed under its own ref, the DAG is closed under
    predecessors, and it is acyclic."""
    for ref, block in dag._vertices.items():
        if block_ref(block) != ref:
            raise AssertionError("vertex keyed under a foreign ref")
        if any(pred not in dag._vertices for pred in block.distinct_preds()):
            raise AssertionError("closure violated: predecessor missing")
    if not is_acyclic(*dag_graph(dag)):
        raise AssertionError("cycle detected")


def slot_fingerprint(interpreter: Interpreter, ref: BlockRef) -> bytes:
    """Digest over everything a block's slot holds: each instance's state
    and the out-buffer per label."""
    slot = interpreter._slots[ref]
    parts = [ref]
    for label in sorted(slot.instances):
        parts.append(label.canonical_bytes())
        parts.append(slot.instances[label].state_bytes())
    for label in sorted(slot.out):
        parts.append(label.canonical_bytes())
        parts.extend(m.canonical_bytes() for m in slot.out[label])
    return content_digest(b"".join(parts))


@contextmanager
def debug_oracles() -> Iterator[None]:
    """Check every ``BlockDag`` and ``Interpreter`` used inside the block;
    a violation raises ``AssertionError``, also under ``python -O``. Three
    methods are wrapped and put back on exit:

    * ``BlockDag.insert``: ``check_dag`` after every insert, which covers
      gossip's commit and promotion and the equivocator's second fork.
    * ``Interpreter._interpret_block``: the block's slot is empty before it
      is interpreted and is fingerprinted right after.
    * ``Interpreter.run_to_fixpoint``: after each call, every slot
      fingerprinted so far is unchanged. Fingerprinting each slot as it is
      written, not at the end of the call, is what catches a child that
      mutates its parent's slot within the same call.
    """
    insert = BlockDag.insert
    interpret_block = Interpreter._interpret_block
    run_to_fixpoint = Interpreter.run_to_fixpoint
    frozen: dict[Interpreter, dict[BlockRef, bytes]] = {}

    def checked_insert(self: BlockDag, block: Block) -> BlockRef:
        ref = insert(self, block)
        check_dag(self)
        return ref

    def checked_interpret_block(self: Interpreter, ref: BlockRef) -> BlockInterpretation:
        if ref in self._slots:
            raise AssertionError(f"slot of uninterpreted {ref.hex()[:12]} already populated")
        report = interpret_block(self, ref)
        frozen.setdefault(self, {})[ref] = slot_fingerprint(self, ref)
        return report

    def checked_run_to_fixpoint(self: Interpreter) -> list[BlockInterpretation]:
        reports = run_to_fixpoint(self)
        for ref, fingerprint in frozen.get(self, {}).items():
            if slot_fingerprint(self, ref) != fingerprint:
                raise AssertionError(f"slot of interpreted {ref.hex()[:12]} was modified")
        return reports

    BlockDag.insert = checked_insert
    Interpreter._interpret_block = checked_interpret_block
    Interpreter.run_to_fixpoint = checked_run_to_fixpoint
    try:
        yield
    finally:
        BlockDag.insert = insert
        Interpreter._interpret_block = interpret_block
        Interpreter.run_to_fixpoint = run_to_fixpoint


def interpret_in_random_order(
    interpreter: Interpreter, rng: Random
) -> list[BlockInterpretation]:
    """Interpret every block of the interpreter's DAG that it has not yet,
    each time picking by ``rng`` among the eligible blocks in ref order,
    where ``run_to_fixpoint`` always takes the least ref. Returns the
    reports in interpretation order; a later ``run_to_fixpoint`` starts
    after these blocks."""
    dag = interpreter.dag
    ready: list[BlockRef] = []
    missing: dict[BlockRef, int] = {}
    dependents: dict[BlockRef, list[BlockRef]] = {}
    for ref in dag.refs():
        if ref in interpreter._slots:
            continue
        waiting = [p for p in dag.get(ref).distinct_preds() if p not in interpreter._slots]
        if waiting:
            missing[ref] = len(waiting)
            for pred in waiting:
                dependents.setdefault(pred, []).append(ref)
        else:
            ready.append(ref)
    reports: list[BlockInterpretation] = []
    while ready:
        ready.sort()
        ref = ready.pop(rng.randrange(len(ready)))
        reports.append(interpreter._interpret_block(ref))
        for dep in dependents.pop(ref, ()):
            missing[dep] -= 1
            if not missing[dep]:
                ready.append(dep)
    interpreter._ingested = len(dag)
    return reports


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
