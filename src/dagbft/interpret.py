"""Deterministic replay of protocol instances over a block DAG.

Interpretation walks the DAG in dependency order. Each block inherits a copy
of its parent's process instances, feeds the block's embedded requests, then
feeds every message addressed to the block's builder from the out-buffers of
the block's predecessors, in the fixed message order. Each interpreted block
gets one slot holding its instances and its out-buffer per label; what a
block was fed is in its report. Slots are write-once: after a block is
interpreted its slot is never touched again, which is what lets independent
machines (and re-runs over extended DAGs) agree byte-for-byte. Among the
blocks eligible at once, the least ref goes first; the result does not
depend on that choice, and the tests check this by interpreting in seeded
random orders (``tests/oracles.py``).

Byzantine-crafted requests that fail protocol decoding are skipped per
request, and the report counts them; a correct interpreter keeps going on
mixed blocks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice

from .blockdag import BlockDag, BlockRef, block_ref
from .crypto import content_digest, enc_bytes, enc_seq, enc_u8
from .protocol import (
    Label,
    Message,
    ProcessInstance,
    Protocol,
    ProtocolError,
    message_sort_key,
)

_TAG_INSTANCE_STATE = 0x20


class InterpretError(Exception):
    pass


@dataclass(frozen=True)
class Indication:
    """One protocol indication surfaced during interpretation, tagged with the
    server on whose behalf the instance ran."""

    block: BlockRef
    label: Label
    on_behalf_of: int
    payload: bytes


@dataclass(frozen=True)
class LabelActivity:
    """What one label did at one block: messages fed, messages emitted, and
    the post-state digest."""

    label: Label
    fed: tuple[Message, ...]
    emitted: tuple[Message, ...]
    state_digest: bytes
    skipped_requests: int


@dataclass(frozen=True)
class BlockInterpretation:
    ref: BlockRef
    builder: int
    labels: tuple[LabelActivity, ...]


@dataclass(frozen=True, slots=True)
class _Slot:
    """One interpreted block: the instances taken over from its parent and
    advanced here, and the out-buffer per label."""

    instances: dict[Label, ProcessInstance]
    out: dict[Label, tuple[Message, ...]]


class Interpreter:
    """Replays ``protocol`` over ``dag``; the DAG may keep growing between
    calls to :meth:`run_to_fixpoint`.

    Blocks are interpreted once each, least ref first among those whose
    predecessors all are. An instance is created when its label is first
    touched on a chain, so a block holds instances only for labels that
    reached it. The interpreter takes no options.
    """

    def __init__(self, dag: BlockDag, protocol: Protocol) -> None:
        self.dag = dag
        self.protocol = protocol

        self._slots: dict[BlockRef, _Slot] = {}
        self._ingested = 0  # DAG refs seen so far; the DAG only appends
        self._indications: list[Indication] = []

    # -- observation ---------------------------------------------------------

    def take_indications(self) -> list[Indication]:
        out = self._indications
        self._indications = []
        return out

    def state_digest(self, ref: BlockRef, label: Label) -> bytes:
        """Digest over the instance state plus the sorted out-buffer for
        (block, label); the cross-interpreter equality oracle.

        Labels never touched at the block digest as a fresh instance.
        """
        slot = self._slot(ref)
        inst = slot.instances.get(label)
        if inst is None:
            inst = self.protocol.spawn(label, self.dag.get(ref).builder)
        out = sorted(slot.out.get(label, ()), key=message_sort_key)
        material = (
            enc_u8(_TAG_INSTANCE_STATE)
            + enc_bytes(inst.state_bytes())
            + enc_seq(enc_bytes(m.canonical_bytes()) for m in out)
        )
        return content_digest(material)

    def _slot(self, ref: BlockRef) -> _Slot:
        slot = self._slots.get(ref)
        if slot is None:
            raise InterpretError(f"{ref.hex()[:12]} has not been interpreted")
        return slot

    # -- scheduling ------------------------------------------------------------

    def run_to_fixpoint(self) -> list[BlockInterpretation]:
        """Interpret every block added to the DAG since the last call, each
        once all its predecessors are; returns per-block reports in
        interpretation order. The DAG is predecessor-closed, so a call leaves
        every block interpreted and the next one starts after them."""
        ready: list[BlockRef] = []
        missing: dict[BlockRef, int] = {}
        dependents: dict[BlockRef, list[BlockRef]] = {}
        for ref in islice(self.dag.refs(), self._ingested, None):
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
            reports.append(self._interpret_block(ref))
            for dep in dependents.pop(ref, ()):
                missing[dep] -= 1
                if missing[dep] == 0:
                    heapq.heappush(ready, dep)
        return reports

    # -- core step ---------------------------------------------------------------

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
                if m.receiver == block.builder
            }
            if not incoming:
                continue
            fed[label] = tuple(sorted(incoming, key=message_sort_key))
            inst = instance_for(label)
            for m in fed[label]:
                emit(label, inst.on_receive(m))

        for label in sorted(out):
            for payload in instances[label].take_indications():
                self._indications.append(Indication(ref, label, block.builder, payload))

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
                )
                for label in sorted(skipped.keys() | out.keys())
            ),
        )
