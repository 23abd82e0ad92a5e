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
  slot is empty until its block is interpreted and never changes after,
  also where simulated servers share slots. ``private_interpreters`` gives
  every simulated server its own interpreter store, and ``private_decoding``
  makes every receiver decode each envelope from its bytes, and so hash and
  verify each block itself: the references whose traces the shared store's
  and the shared block objects' must equal. ``eager_schedule`` encodes and
  hashes every envelope at send time, as the simulator first did: the
  reference for its SEND sizes taken from lengths and its same-step order
  hashed only where envelopes tie.
  ``interpret_in_random_order`` interprets a DAG in a seeded random
  topological order, for the order-independence checks.
* ``live_snapshots`` copies each correct server's live DAG at chosen steps
  of a run, the view the trace's INSERT events must reproduce.
* ``CloningInterpreter`` is the interpreter as first written: every block
  deep-clones every instance its parent holds. ``Interpreter`` shares the
  parent's instances and clones one only when the block feeds it; its
  reports and slots must equal these.
* the ``enc_*`` encoders and the ``reference_*`` encodings spell out the
  canonical encodings field by field: a label, a message, a block's core
  and wire bytes, the broadcast protocol's payloads, a broadcast instance's
  state and the state digest's material. The package packs each through
  one ``struct`` layout and joins them in fewer calls, and must give the
  same bytes. ``CloningInterpreter`` inherits ``state_digest``, so without
  these only the trace lock would guard it. ``message_fields`` reads a
  message's fields back from its bytes one at a time, with no ``struct``.

Beside them sit the paper's definitions that only the tests evaluate: the
generic directed graph with its insert, ``extends`` and ``union``, the
vertex- and edge-wise ``union_dags`` of two block DAGs, ``message_less``,
the strict total order on messages, and ``live_labels``, the labels a block
can hold state for.
"""

from __future__ import annotations

import hashlib
import struct
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random
from typing import Iterable, Iterator, NamedTuple

from dagbft import gossip, trace
from dagbft.blockdag import Block, BlockDag, BlockDagError, BlockRef, block_ref
from dagbft.brb import (
    BrbInstance,
    ReliableBroadcast,
    decode_deliver,
    encode_broadcast,
    encode_payload,
)
from dagbft.checks import CheckReport
from dagbft.crypto import ENCODING_VERSION, EncodingError, UnknownServerError, content_digest
from dagbft.gossip import WireEnvelope
from dagbft.interpret import BlockInterpretation, Interpreter, LabelActivity, _Slot
from dagbft.protocol import (
    Label,
    Message,
    ProcessInstance,
    ProtocolError,
    message,
    message_from_canonical,
)
from dagbft.shim import Shim
from dagbft.simnet import Scenario, Simulation

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
            messages = instance.on_receive(message(sender, instance.server, payload))
        # messages arrive grouped as broadcasts-to-all in emission order
        assert len(messages) % n == 0, "instance must emit whole broadcasts"
        for i in range(0, len(messages), n):
            group = messages[i : i + n]
            assert [message_fields(m).receiver for m in group] == list(range(n))
            assert len({message_fields(m).payload for m in group}) == 1
            payload = message_fields(group[0]).payload
            kind_byte, value = payload[0], int.from_bytes(payload[1:], "big")
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
        m = queue.popleft()
        queue.extend(instances[message_fields(m).receiver].on_receive(m))
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
    per-builder cap (``gossip.PENDING_CAP_PER_BUILDER``) that evicts the
    builder's oldest block, promotion by rescanning, and the
    missing-predecessor listing."""

    def __init__(self, dag: BlockDag) -> None:
        self.dag = dag
        self.pending: dict[BlockRef, Block] = {}

    def on_receive_block(self, block: Block) -> str | BlockRef:
        """The disposition's value (buffered, already_known or
        bad_signature), or the ref of the block the cap evicted."""
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
        outcome: str | BlockRef = "buffered"
        same_builder = [r for r, b in self.pending.items() if b.builder == block.builder]
        if len(same_builder) >= gossip.PENDING_CAP_PER_BUILDER:
            outcome = same_builder[0]
            del self.pending[outcome]
        self.pending[ref] = block
        return outcome

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
                out._order.append(ref)
    return out


def message_less(m1: Message, m2: Message) -> bool:
    """Strict total order on messages: byte order of the canonical encoding,
    spelled out field by field, the order the interpreter sorts by."""
    return reference_encoding(m1) < reference_encoding(m2)


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
        parts.extend(slot.out[label])
    return content_digest(b"".join(parts))


@contextmanager
def debug_oracles() -> Iterator[None]:
    """Check every ``BlockDag`` and ``Interpreter`` used inside the block;
    a violation raises ``AssertionError``, also under ``python -O``. Three
    methods are wrapped and put back on exit:

    * ``BlockDag.insert``: ``check_dag`` after every insert, which covers
      gossip's commit and promotion and the equivocator's second fork.
    * ``Interpreter._interpret_block``: the block's slot is empty before it
      is interpreted, and the slot is fingerprinted right after, under its
      ref, the first time any interpreter computes that ref.
    * ``Interpreter.run_to_fixpoint``: after each call, every slot the
      interpreter holds, computed or taken from a shared store, still has
      the fingerprint its ref was first computed with. Fingerprinting each
      slot as it is written, not at the end of the call, is what catches a
      child that mutates its parent's slot within the same call; keying by
      ref across interpreters catches a slot that one server computed and a
      later server mutated, and an interpreter that computes a ref anew but
      differently. All interpreters inside the block must therefore run
      equal protocols.
    """
    insert = BlockDag.insert
    interpret_block = Interpreter._interpret_block
    run_to_fixpoint = Interpreter.run_to_fixpoint
    frozen: dict[BlockRef, bytes] = {}

    def checked_insert(self: BlockDag, block: Block) -> BlockRef:
        ref = insert(self, block)
        check_dag(self)
        return ref

    def checked_interpret_block(self: Interpreter, ref: BlockRef) -> BlockInterpretation:
        if ref in self._slots:
            raise AssertionError(f"slot of uninterpreted {ref.hex()[:12]} already populated")
        report = interpret_block(self, ref)
        frozen.setdefault(ref, slot_fingerprint(self, ref))
        return report

    def checked_run_to_fixpoint(self: Interpreter) -> list[BlockInterpretation]:
        reports = run_to_fixpoint(self)
        for ref in self._slots:
            fingerprint = frozen.get(ref)
            if fingerprint is not None and slot_fingerprint(self, ref) != fingerprint:
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


@contextmanager
def private_interpreters() -> Iterator[None]:
    """Give every ``Shim`` built inside the block a private interpreter
    store, as a real deployment has, where ``Simulation`` hands all its
    correct servers one. Each simulated server then interprets every block
    itself, which is what gives ``check_interpretation_agreement`` separate
    computations to compare. ``Shim.__init__`` is wrapped and put back on
    exit."""
    init = Shim.__init__

    def private_init(self: Shim, *args, shared=None, **kwargs) -> None:
        init(self, *args, **kwargs)

    Shim.__init__ = private_init
    try:
        yield
    finally:
        Shim.__init__ = init


@contextmanager
def private_decoding() -> Iterator[list[tuple[WireEnvelope | None, WireEnvelope | None]]]:
    """Make every receiver decode each envelope delivered to it from its
    bytes, as a real deployment does, where ``Simulation`` hands the
    receiver the envelope sent. Each server then decodes, hashes and
    verifies every block it receives itself. ``Simulation._deliver_due`` is
    wrapped to put each due envelope's bytes in its place, and
    ``WireEnvelope.decode`` to record each decode; both are put back on
    exit. Yields the (sent envelope, decoded envelope) pair of every decode
    in delivery order: the sent one is None for raw input, the decoded one
    when the bytes do not decode."""
    deliver_due = Simulation._deliver_due
    decode = WireEnvelope.__dict__["decode"]
    decodes: list[tuple[WireEnvelope | None, WireEnvelope | None]] = []
    sent: dict[bytes, WireEnvelope] = {}  # wire -> envelope, of the batch being delivered

    def private_deliver_due(self: Simulation, now: int, halted=()) -> None:
        sent.clear()
        batch = self.inflight.get(now, [])
        for i, (key, sender, receiver, item) in enumerate(batch):
            if type(item) is WireEnvelope:
                wire = item.encode()
                sent[wire] = item
                batch[i] = (key, sender, receiver, wire)
        deliver_due(self, now, halted)

    def recording_decode(cls, data: bytes) -> WireEnvelope:
        try:
            envelope = decode.__func__(cls, data)
        except EncodingError:
            decodes.append((sent.get(data), None))
            raise
        decodes.append((sent.get(data), envelope))
        return envelope

    Simulation._deliver_due = private_deliver_due
    WireEnvelope.decode = classmethod(recording_decode)
    try:
        yield decodes
    finally:
        Simulation._deliver_due = deliver_due
        WireEnvelope.decode = decode


@contextmanager
def eager_schedule() -> Iterator[None]:
    """Make ``Simulation._schedule`` encode every envelope it puts on the
    wire, as it was first written: the SEND size is the length of those
    bytes and the order key is (receiver, sender, send step, SHA-256 of
    those bytes), so two keys are equal only where the bytes are. The same
    delay is drawn. ``Simulation._schedule`` is replaced and put back on
    exit."""
    schedule = Simulation._schedule

    def eager(self: Simulation, now: int, sender: int, receiver: int, sent) -> None:
        if type(sent) is bytes:
            env_kind, ref_hex, wire = "RAW", None, sent
        else:
            env_kind, ref_hex, wire = sent.kind_name, sent.named_ref.hex(), sent.encode()
        delay = self.delay_rng.randint(*self.scenario.delay_bounds)
        key = (receiver, sender, now, hashlib.sha256(wire).digest())
        self.inflight.setdefault(now + delay, []).append((key, sender, receiver, sent))
        self.events.append(
            trace.event(
                now, "SEND", frm=sender, to=receiver, envelope=env_kind, ref=ref_hex, size=len(wire)
            )
        )

    Simulation._schedule = eager
    try:
        yield
    finally:
        Simulation._schedule = schedule


@contextmanager
def live_snapshots(steps: Iterable[int]) -> Iterator[dict[int, dict[int, BlockDag]]]:
    """Copies of every correct server's DAG at the end of each of ``steps``
    (inside the horizon), as step -> server -> DAG, for the one simulation
    run inside the block. ``Simulation._interpret_phase`` is wrapped and put
    back on exit: interpretation leaves the DAG as it is, so a server's DAG
    after its interpret phase at a step is its DAG at the end of that step.
    """
    steps = frozenset(steps)
    interpret_phase = Simulation._interpret_phase
    snapshots: dict[int, dict[int, BlockDag]] = {}

    def snapshotting_phase(self: Simulation, now: int, node) -> list[BlockInterpretation]:
        reports = interpret_phase(self, now, node)
        if now in steps:
            snapshots.setdefault(now, {})[node.server] = node.dag.copy()
        return reports

    Simulation._interpret_phase = snapshotting_phase
    try:
        yield snapshots
    finally:
        Simulation._interpret_phase = interpret_phase


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


class CloningInterpreter(Interpreter):
    """Reference interpreter: each block starts from a deep clone of every
    instance its parent holds, so no two slots share an instance."""

    def _interpret_block(self, ref: BlockRef) -> BlockInterpretation:
        block = self.dag.get(ref)
        parent = self.dag.parent_of(block)
        instances: dict[Label, ProcessInstance] = {}
        if parent is not None:
            instances = {
                label: inst.clone()
                for label, inst in self._slots[block_ref(parent)].instances.items()
            }

        # out-buffers as ordered sets; a label gets one exactly when touched here
        out: dict[Label, dict[Message, None]] = {}
        fed: dict[Label, tuple[Message, ...]] = {}
        skipped: dict[Label, int] = {}

        def instance_for(label: Label) -> ProcessInstance:
            inst = instances.get(label)
            if inst is None:
                inst = self.protocol.spawn(label, block.builder)
                instances[label] = inst
            return inst

        def emit(label: Label, messages: list[Message]) -> None:
            out.setdefault(label, {}).update(dict.fromkeys(messages))

        # requests embedded in this block, in list order
        for label, payload in block.requests:
            fresh = label not in instances
            inst = instance_for(label)
            try:
                outputs = inst.on_request(payload)
            except ProtocolError:
                if fresh:
                    del instances[label]  # state unchanged; keep the slot lazy
                skipped[label] = skipped.get(label, 0) + 1
                continue
            emit(label, outputs)

        # messages materialized by edges from predecessors: only labels some
        # predecessor has an out-buffer for can carry one
        preds = [self._slots[p] for p in block.distinct_preds()]
        for label in sorted(set().union(*(pred.out for pred in preds))):
            incoming = {
                m
                for pred in preds
                for m in pred.out.get(label, ())
                if message_fields(m).receiver == block.builder
            }
            if not incoming:
                continue
            fed[label] = tuple(sorted(incoming))
            inst = instance_for(label)
            for m in fed[label]:
                emit(label, inst.on_receive(m))

        # drained before the digests below, which encode pending indications
        indications = {label: tuple(instances[label].take_indications()) for label in out}

        slot = _Slot(instances, {label: tuple(ms) for label, ms in out.items()})
        self._slots[ref] = slot

        return BlockInterpretation(
            ref,
            block.builder,
            tuple(
                LabelActivity(
                    label,
                    fed.get(label, ()),
                    slot.out.get(label, ()),
                    self.state_digest(ref, label),
                    skipped.get(label, 0),
                    indications.get(label, ()),
                )
                for label in sorted(skipped.keys() | out.keys())
            ),
        )


# ---------------------------------------------------------------------------
# Reference encodings
# ---------------------------------------------------------------------------


def enc_u8(value: int) -> bytes:
    if not 0 <= value <= 0xFF:
        raise EncodingError(f"u8 out of range: {value}")
    return value.to_bytes(1, "big")


def enc_u32(value: int) -> bytes:
    if not 0 <= value <= 0xFFFFFFFF:
        raise EncodingError(f"u32 out of range: {value}")
    return value.to_bytes(4, "big")


def enc_u64(value: int) -> bytes:
    if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
        raise EncodingError(f"u64 out of range: {value}")
    return value.to_bytes(8, "big")


def enc_bytes(data: bytes) -> bytes:
    """Length-prefixed byte string; the prefix keeps concatenation injective."""
    return enc_u32(len(data)) + data


def enc_seq(items: Iterable[bytes]) -> bytes:
    """Count-prefixed sequence of already-encoded items."""
    chunks = list(items)
    return enc_u32(len(chunks)) + b"".join(chunks)


def enc_u32s(values: list[int]) -> bytes:
    """``enc_seq(enc_u32(v) for v in values)`` packed in one ``struct`` call."""
    try:
        return struct.pack(f">{len(values) + 1}I", len(values), *values)
    except struct.error:
        raise EncodingError(f"u32 out of range in {list(values)}") from None


def reference_label_bytes(label: Label) -> bytes:
    """A label's canonical bytes: version, tag 0x10, originator, nonce."""
    return enc_u8(ENCODING_VERSION) + enc_u8(0x10) + enc_u32(label.originator) + enc_u64(label.nonce)


def reference_message_bytes(sender: int, receiver: int, payload: bytes) -> bytes:
    """A message's canonical bytes: version, tag 0x11, sender, receiver and
    the length-prefixed payload, each field encoded on its own."""
    return (
        enc_u8(ENCODING_VERSION)
        + enc_u8(0x11)
        + enc_u32(sender)
        + enc_u32(receiver)
        + enc_bytes(payload)
    )


class MessageFields(NamedTuple):
    sender: int
    receiver: int
    payload: bytes


def message_fields(m: Message) -> MessageFields:
    """A message's fields, read from its canonical bytes one at a time:
    version (1 byte), tag (1), sender (4), receiver (4), payload length (4)
    and the payload, which must end the bytes."""
    assert m[0] == ENCODING_VERSION and m[1] == 0x11, "not a message encoding"
    size = int.from_bytes(m[10:14], "big")
    assert len(m) == 14 + size, "payload length and message length disagree"
    return MessageFields(int.from_bytes(m[2:6], "big"), int.from_bytes(m[6:10], "big"), m[14:])


def reference_encoding(m: Message) -> bytes:
    """``reference_message_bytes`` of a message's fields."""
    return reference_message_bytes(*message_fields(m))


def reference_block_core_bytes(block: Block) -> bytes:
    """A block's signed content: version, tag 0x01, builder, seqno, the
    sequence of preds and the sequence of (label, length-prefixed payload)
    requests."""
    return (
        enc_u8(ENCODING_VERSION)
        + enc_u8(0x01)
        + enc_u32(block.builder)
        + enc_u64(block.seqno)
        + enc_seq(block.preds)
        + enc_seq(reference_label_bytes(label) + enc_bytes(payload) for label, payload in block.requests)
    )


def reference_block_wire(block: Block) -> bytes:
    """A signed block's wire bytes: its core, the scheme byte and the
    length-prefixed signature data."""
    sig = block.signature
    return reference_block_core_bytes(block) + enc_u8(int(sig.scheme)) + enc_bytes(sig.data)


def reference_value_bytes(value: int) -> bytes:
    """A broadcast request and a deliver indication: the value as a u64."""
    return enc_u64(value)


def reference_payload_bytes(kind: int, value: int) -> bytes:
    """A broadcast message's payload: the kind as a u8, the value as a u64."""
    return enc_u8(kind) + enc_u64(value)


def reference_brb_state_bytes(inst: BrbInstance) -> bytes:
    """A broadcast instance's state encoding: its label and ids, a u8 per
    flag, each sender table as a sequence of (value, sorted senders) over its
    non-empty sets by value, and the sequence of pending indications."""

    def sender_sets(table: dict[int, set[int]]) -> bytes:
        return enc_seq(
            enc_u64(value) + enc_u32s(sorted(senders))
            for value, senders in sorted(table.items())
            if senders
        )

    ids = (inst.server, inst.server_count, inst.fault_bound)
    return (
        reference_label_bytes(inst.label)
        + b"".join(map(enc_u32, ids))
        + bytes((inst.echoed, inst.readied, inst.delivered))
        + sender_sets(inst.echo_senders)
        + sender_sets(inst.ready_senders)
        + enc_seq(enc_bytes(i) for i in inst._pending_indications)
    )


def reference_state_digest(interpreter: Interpreter, ref: BlockRef, label: Label) -> bytes:
    """``Interpreter.state_digest`` as first written, with every encoding
    spelled out: tag 0x20, the length-prefixed state, then the sequence of
    length-prefixed messages of the out-buffer in message order. A label the
    block never touched digests as a fresh instance."""
    slot = interpreter._slots[ref]
    inst = slot.instances.get(label)
    if inst is None:
        inst = interpreter.protocol.spawn(label, interpreter.dag.get(ref).builder)
    state = reference_brb_state_bytes(inst) if isinstance(inst, BrbInstance) else inst.state_bytes()
    out = sorted(slot.out.get(label, ()))
    material = (
        enc_u8(0x20)
        + enc_bytes(state)
        + enc_seq(enc_bytes(reference_encoding(m)) for m in out)
    )
    return content_digest(material)


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
                sender, to, _ = message_fields(m)
                if to not in correct:
                    continue
                for ref2 in children.get(ref1, ()):
                    if builder_of.get(ref2) != to:
                        continue
                    report.checked += 1
                    if m not in view.fed.get((ref2, label), ()):
                        report.violations.append(
                            f"reliable-delivery: interpreter {server}: message "
                            f"{sender}->{to} from block {ref1[:12]} missing in "
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
        for (label, receiver, m), feeds in sorted(deliveries.items()):
            report.checked += 1
            if len(feeds) <= 1:
                continue
            sender = message_fields(m).sender
            if sender in correct:
                report.violations.append(
                    f"no-duplication: interpreter {server}: message {sender}->{receiver} "
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
                sender = message_fields(m).sender
                if sender not in correct:
                    continue
                report.checked += 1
                # a ref interpreted but never inserted has no preds
                preds = _distinct_preds(view.inserts.get(ref2, {"preds": []}))
                if not any(
                    builder_of.get(p) == sender and m in view.out.get((p, label), ())
                    for p in preds
                ):
                    report.violations.append(
                        f"authenticity: interpreter {server}: message claiming sender "
                        f"{sender} in in-buffer of {ref2[:12]} has no signed origin block "
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
