"""Deterministic replay of protocol instances over a block DAG.

Interpretation walks the DAG in dependency order. Each block shares its
parent's process instances and clones one on first touch, the first time it
feeds that instance's label, so a block costs what its own traffic costs,
not what its history holds. It feeds the block's embedded requests, then
every message addressed to the block's builder from the out-buffers of the
block's predecessors, gathered in one pass, by label and in the fixed
message order, that of their bytes. Beyond those calls a block pays one
state digest per label it feeds, a SHA-256 over ``state_bytes`` and the
out-buffer, recomputed each time: nothing is cached on an instance. Each interpreted block
gets one slot holding its instances and its out-buffer per label; what a
block was fed and the indications it raised are in its report, the
interpreter's only output. Slots are write-once: after a block is
interpreted its slot, instances shared with later slots included, is never
touched again, which is what lets independent
machines (and re-runs over extended DAGs) agree byte-for-byte. Among the
blocks eligible at once, the least ref goes first; the result does not
depend on that choice, and the tests check this by interpreting in seeded
random orders (``tests/oracles.py``).

A block's ref fixes its whole down-closure and the protocol is
deterministic, so its slot and report are functions of the ref alone.
Interpreters of equal protocols may therefore share one store of (slot,
report) per ref and reuse what another computed: the simulator's correct
servers share one, so a run interprets each block once, and a real server
keeps its own. Each interpreter still schedules by the blocks it has
reached, so its reports keep their order.

Byzantine-crafted requests that fail protocol decoding are skipped per
request, and the report counts them; a correct interpreter keeps going on
mixed blocks.
"""

from __future__ import annotations

import heapq
import struct
from typing import NamedTuple

from .blockdag import BlockDag, BlockRef, block_ref
from .crypto import content_digest
from .protocol import RECEIVER, Label, Message, ProcessInstance, Protocol, ProtocolError

_TAG_INSTANCE_STATE = 0x20
_DIGEST_HEAD = struct.Struct(">BI")  # tag, state length
_U32 = struct.Struct(">I")


class InterpretError(Exception):
    pass


class LabelActivity(NamedTuple):
    """What one label did at one block: messages fed, messages emitted, the
    post-state digest, and the indications its instance raised there, on
    behalf of the block's builder."""

    label: Label
    fed: tuple[Message, ...]
    emitted: tuple[Message, ...]
    state_digest: bytes
    skipped_requests: int
    indications: tuple[bytes, ...]


class BlockInterpretation(NamedTuple):
    ref: BlockRef
    builder: int
    labels: tuple[LabelActivity, ...]


class _Slot(NamedTuple):
    """One interpreted block: its instances, which are its parent's objects
    except for a private clone per label advanced here, and the out-buffer
    per label."""

    instances: dict[Label, ProcessInstance]
    out: dict[Label, tuple[Message, ...]]


class Interpreter:
    """Replays ``protocol`` over ``dag``; the DAG may keep growing between
    calls to :meth:`run_to_fixpoint`.

    Blocks are interpreted once each, least ref first among those whose
    predecessors all are. An instance is created when its label is first
    touched on a chain, so a block holds instances only for labels that
    reached it. ``shared`` is the store of (slot, report) per ref that
    interpreters of equal protocols may share; None keeps a private one.
    """

    def __init__(self, dag: BlockDag, protocol: Protocol, shared: dict | None = None) -> None:
        self.dag = dag
        self.protocol = protocol

        self._slots: dict[BlockRef, _Slot] = {}  # the blocks this interpreter reached
        self._shared = {} if shared is None else shared  # ref -> (slot, report)
        self._ingested = 0  # cursor into the DAG's refs; the DAG only appends

    # -- observation ---------------------------------------------------------

    def state_digest(self, ref: BlockRef, label: Label) -> bytes:
        """Digest over the instance state plus the sorted out-buffer for
        (block, label); the cross-interpreter equality oracle.

        Labels never touched at the block digest as a fresh instance. The
        material: the tag, the length-prefixed state, the out-buffer's count
        and its messages' length-prefixed canonical bytes in bytewise order.
        """
        slot = self._slots.get(ref)
        if slot is None:
            raise InterpretError(f"{ref.hex()[:12]} has not been interpreted")
        inst = slot.instances.get(label)
        if inst is None:
            inst = self.protocol.spawn(label, self.dag.get(ref).builder)
        state = inst.state_bytes()
        out = sorted(slot.out.get(label, ()))
        parts = [_DIGEST_HEAD.pack(_TAG_INSTANCE_STATE, len(state)), state, _U32.pack(len(out))]
        for encoded in out:
            parts += (_U32.pack(len(encoded)), encoded)
        return content_digest(b"".join(parts))

    # -- scheduling ------------------------------------------------------------

    def run_to_fixpoint(self) -> list[BlockInterpretation]:
        """Interpret every block added to the DAG since the last call, each
        once all its predecessors are; returns per-block reports in
        interpretation order. The DAG is predecessor-closed, so a call leaves
        every block interpreted and the next one starts after them."""
        ready: list[BlockRef] = []
        missing: dict[BlockRef, int] = {}
        dependents: dict[BlockRef, list[BlockRef]] = {}
        for ref in self.dag.refs_since(self._ingested):
            waiting = [p for p in self.dag.get(ref).distinct_preds() if p not in self._slots]
            if waiting:
                missing[ref] = len(waiting)
                for p in waiting:
                    dependents.setdefault(p, []).append(ref)
            else:
                heapq.heappush(ready, ref)
        self._ingested = len(self.dag)

        reports: list[BlockInterpretation] = []
        while ready:
            ref = heapq.heappop(ready)
            if ref not in self._shared:
                report = self._interpret_block(ref)
                self._shared[ref] = (self._slots[ref], report)
            self._slots[ref], report = self._shared[ref]
            reports.append(report)
            for dep in dependents.pop(ref, ()):
                missing[dep] -= 1
                if missing[dep] == 0:
                    heapq.heappush(ready, dep)
        return reports

    # -- core step ---------------------------------------------------------------

    def _interpret_block(self, ref: BlockRef) -> BlockInterpretation:
        block = self.dag.get(ref)
        builder = block.builder
        parent = self.dag.parent_of(block)
        instances: dict[Label, ProcessInstance] = {}
        if parent is not None:
            instances = dict(self._slots[block_ref(parent)].instances)
        # this block's private instances: a clone of the shared one, or a
        # fresh spawn, made the first time the block feeds a label
        own: dict[Label, ProcessInstance] = {}
        # out-buffers as ordered sets; a label gets one when fed or when a request succeeds
        out: dict[Label, dict[Message, None]] = {}
        skipped: dict[Label, int] = {}

        # messages materialized by edges from predecessors: those addressed
        # to the builder, gathered per label in one pass
        incoming: dict[Label, set[Message]] = {}
        to_builder = _U32.pack(builder)  # the receiver field of those messages
        # its last byte, read without a copy, rules out most other messages
        last, low = RECEIVER.stop - 1, to_builder[-1]
        for p in block.distinct_preds():
            for label, messages in self._slots[p].out.items():
                for m in messages:
                    if m[last] == low and m[RECEIVER] == to_builder:
                        incoming.setdefault(label, set()).add(m)
        fed = {label: tuple(sorted(incoming[label])) for label in sorted(incoming)}

        # requests embedded in this block, in list order, then the fed
        # messages; a failed request leaves the private instance unchanged
        for label, payload in block.requests:
            inst = self._private(own, instances, label, builder)
            try:
                emitted = inst.on_request(payload)
            except ProtocolError:
                skipped[label] = skipped.get(label, 0) + 1
                continue
            out.setdefault(label, {}).update(dict.fromkeys(emitted))
        for label, messages in fed.items():
            inst = self._private(own, instances, label, builder)
            buffer = out.setdefault(label, {})
            for m in messages:
                for e in inst.on_receive(m):
                    buffer[e] = None

        # a label whose requests all failed keeps its shared instance, or none
        instances.update((label, own[label]) for label in out)
        # drained before the digests below, which encode pending indications
        indications = {label: tuple(own[label].take_indications()) for label in out}

        slot = _Slot(instances, {label: tuple(ms) for label, ms in out.items()})
        self._slots[ref] = slot

        acts = [
            LabelActivity(label, fed.get(label, ()), slot.out.get(label, ()),
                          self.state_digest(ref, label), skipped.get(label, 0),
                          indications.get(label, ()))
            for label in sorted(skipped.keys() | out.keys())
        ]
        return BlockInterpretation(ref, builder, tuple(acts))

    def _private(self, own: dict, shared: dict, label: Label, builder: int) -> ProcessInstance:
        """The block's private instance for ``label``, made on first use: a
        clone of the one its chain shares, or a fresh spawn where it has none."""
        inst = own.get(label)
        if inst is None:
            inst = shared.get(label)
            inst = own[label] = self.protocol.spawn(label, builder) if inst is None else inst.clone()
        return inst
