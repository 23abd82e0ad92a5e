"""Deterministic replay of protocol instances over a block DAG.

Interpretation walks the DAG in dependency order. Each block inherits a copy
of its parent's process instances, feeds the block's embedded requests, then
feeds every message addressed to the block's builder from the out-buffers of
the block's predecessors, in the fixed message order. The resulting per-block
buffers and instance states are write-once: after a block is interpreted its
slots are never touched again, which is what lets independent machines (and
re-runs over extended DAGs) agree byte-for-byte.

Byzantine-crafted requests that fail protocol decoding are skipped per
request and counted; a correct interpreter keeps going on mixed blocks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice
from random import Random
from typing import Optional

from .blockdag import BlockDag, BlockRef, UnknownBlockError, block_ref
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


class Interpreter:
    """Replays ``protocol`` over ``dag``; the DAG may keep growing between
    calls to :meth:`run_to_fixpoint`.

    ``selection`` picks among simultaneously eligible blocks: "ref" (least
    reference first, the default) or a seeded ``random.Random`` for the
    order-independence checks. Instances are created lazily on first touch;
    ``eager_labels`` forces instantiation of the given labels at genesis
    blocks instead, which must be observationally identical.
    """

    def __init__(
        self,
        dag: BlockDag,
        protocol: Protocol,
        *,
        selection: str | Random = "ref",
        eager_labels: tuple[Label, ...] = (),
        debug_checks: bool = False,
    ) -> None:
        self.dag = dag
        self.protocol = protocol
        self.selection = selection
        self.eager_labels = tuple(eager_labels)
        self.debug_checks = debug_checks

        self._interpreted: set[BlockRef] = set()
        self._pis: dict[BlockRef, dict[Label, ProcessInstance]] = {}
        self._ms_in: dict[BlockRef, dict[Label, tuple[Message, ...]]] = {}
        self._ms_out: dict[BlockRef, dict[Label, tuple[Message, ...]]] = {}
        self._labels_at: dict[BlockRef, frozenset[Label]] = {}
        self._frozen_digest: dict[BlockRef, bytes] = {}
        self._indications: list[Indication] = []
        self.skipped_requests = 0

        # dependency tracking for incremental eligibility
        self._ingested = 0  # DAG refs seen so far; the DAG only appends
        self._ready: list[BlockRef] = []
        self._missing: dict[BlockRef, int] = {}
        self._dependents: dict[BlockRef, list[BlockRef]] = {}

    # -- observation ---------------------------------------------------------

    def interpreted(self, ref: BlockRef) -> bool:
        return ref in self._interpreted

    def eligible(self, ref: BlockRef) -> bool:
        """A block may be interpreted when it has not been yet and every
        predecessor has been."""
        if ref not in self.dag:
            raise UnknownBlockError(f"{ref!r} not in DAG")
        if ref in self._interpreted:
            return False
        return all(p in self._interpreted for p in self.dag.get(ref).distinct_preds())

    def messages_out(self, ref: BlockRef, label: Label) -> tuple[Message, ...]:
        self._require_interpreted(ref)
        return self._ms_out[ref].get(label, ())

    def messages_in(self, ref: BlockRef, label: Label) -> tuple[Message, ...]:
        self._require_interpreted(ref)
        return self._ms_in[ref].get(label, ())

    def labels_at(self, ref: BlockRef) -> frozenset[Label]:
        self._require_interpreted(ref)
        return self._labels_at[ref]

    def instance(self, ref: BlockRef, label: Label) -> Optional[ProcessInstance]:
        self._require_interpreted(ref)
        return self._pis[ref].get(label)

    def take_indications(self) -> list[Indication]:
        out = self._indications
        self._indications = []
        return out

    def state_digest(self, ref: BlockRef, label: Label) -> bytes:
        """Digest over the instance state plus the sorted out-buffer for
        (block, label); the cross-interpreter equality oracle.

        Labels never touched at the block digest as a fresh instance, which
        makes lazy and eager instantiation indistinguishable here.
        """
        self._require_interpreted(ref)
        inst = self._pis[ref].get(label)
        if inst is None:
            inst = self.protocol.spawn(label, self.dag.get(ref).builder)
        out = sorted(self._ms_out[ref].get(label, ()), key=message_sort_key)
        material = (
            enc_u8(_TAG_INSTANCE_STATE)
            + enc_bytes(inst.state_bytes())
            + enc_seq(enc_bytes(m.canonical_bytes()) for m in out)
        )
        return content_digest(material)

    def _require_interpreted(self, ref: BlockRef) -> None:
        if ref not in self._interpreted:
            raise InterpretError(f"{ref!r} has not been interpreted")

    # -- scheduling ------------------------------------------------------------

    def _ingest_new_blocks(self) -> None:
        for ref in islice(self.dag.refs(), self._ingested, None):
            preds = self.dag.get(ref).distinct_preds()
            missing = sum(1 for p in preds if p not in self._interpreted)
            if missing == 0:
                heapq.heappush(self._ready, ref)
            else:
                self._missing[ref] = missing
                for p in preds:
                    if p not in self._interpreted:
                        self._dependents.setdefault(p, []).append(ref)
        self._ingested = len(self.dag)

    def _pop_ready(self) -> BlockRef:
        if isinstance(self.selection, Random):
            ordered = sorted(self._ready)
            pick = ordered[self.selection.randrange(len(ordered))]
            self._ready.remove(pick)
            heapq.heapify(self._ready)
            return pick
        return heapq.heappop(self._ready)

    def run_to_fixpoint(self) -> list[BlockInterpretation]:
        """Interpret every currently eligible block (and everything unblocked
        by doing so); returns per-block reports in interpretation order."""
        self._ingest_new_blocks()
        reports: list[BlockInterpretation] = []
        while self._ready:
            ref = self._pop_ready()
            reports.append(self._interpret_block(ref))
            for dep in self._dependents.pop(ref, ()):
                self._missing[dep] -= 1
                if self._missing[dep] == 0:
                    del self._missing[dep]
                    heapq.heappush(self._ready, dep)
        if self.debug_checks:
            self._check_immutability()
        return reports

    # -- core step ---------------------------------------------------------------

    def _interpret_block(self, ref: BlockRef) -> BlockInterpretation:
        block = self.dag.get(ref)
        if self.debug_checks:
            self._check_slots_empty(ref)

        parent = self.dag.parent_of(block)
        if parent is None:
            instances: dict[Label, ProcessInstance] = {}
            for label in self.eager_labels:
                instances[label] = self.protocol.spawn(label, block.builder)
        else:
            parent_ref = block_ref(parent)
            instances = {
                label: inst.clone() for label, inst in self._pis[parent_ref].items()
            }

        ms_out: dict[Label, list[Message]] = {}
        out_seen: dict[Label, set[Message]] = {}
        ms_in: dict[Label, tuple[Message, ...]] = {}
        touched: set[Label] = set()
        skipped: dict[Label, int] = {}

        def instance_for(label: Label) -> ProcessInstance:
            inst = instances.get(label)
            if inst is None:
                inst = self.protocol.spawn(label, block.builder)
                instances[label] = inst
            return inst

        def emit(label: Label, messages: list[Message]) -> None:
            bucket = ms_out.setdefault(label, [])
            seen = out_seen.setdefault(label, set())
            for m in messages:
                if m not in seen:
                    seen.add(m)
                    bucket.append(m)

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
                self.skipped_requests += 1
                continue
            touched.add(label)
            emit(label, outputs)

        # messages materialized by edges from predecessors
        preds = block.distinct_preds()
        live: set[Label] = set()
        for pred in preds:
            live |= self._labels_at[pred]
        for label in sorted(live):
            incoming: set[Message] = set()
            for pred in preds:
                for m in self._ms_out[pred].get(label, ()):
                    if m.receiver == block.builder:
                        incoming.add(m)
            if not incoming:
                continue
            fed = tuple(sorted(incoming, key=message_sort_key))
            ms_in[label] = fed
            inst = instance_for(label)
            touched.add(label)
            for m in fed:
                emit(label, inst.on_receive(m))

        for label in sorted(touched):
            for payload in instances[label].take_indications():
                self._indications.append(Indication(ref, label, block.builder, payload))

        self._pis[ref] = instances
        self._ms_in[ref] = ms_in
        self._ms_out[ref] = {label: tuple(ms) for label, ms in ms_out.items()}
        self._labels_at[ref] = frozenset(live | {label for label, _ in block.requests})
        self._interpreted.add(ref)

        active = sorted(set(skipped) | touched | set(ms_in) | set(self._ms_out[ref]))
        report = BlockInterpretation(
            ref,
            block.builder,
            tuple(
                LabelActivity(
                    label,
                    ms_in.get(label, ()),
                    self._ms_out[ref].get(label, ()),
                    self.state_digest(ref, label),
                    skipped.get(label, 0),
                )
                for label in active
            ),
        )
        if self.debug_checks:
            self._frozen_digest[ref] = self._slot_fingerprint(ref)
        return report

    # -- debug assertions -----------------------------------------------------------

    def _check_slots_empty(self, ref: BlockRef) -> None:
        if ref in self._pis or ref in self._ms_in or ref in self._ms_out:
            raise InterpretError(f"slots of uninterpreted {ref!r} already populated")

    def _slot_fingerprint(self, ref: BlockRef) -> bytes:
        parts = [ref.digest]
        for label in sorted(self._pis[ref]):
            parts.append(label.canonical_bytes())
            parts.append(self._pis[ref][label].state_bytes())
        for table in (self._ms_in[ref], self._ms_out[ref]):
            for label in sorted(table):
                parts.append(label.canonical_bytes())
                parts.extend(m.canonical_bytes() for m in table[label])
        return content_digest(b"".join(parts))

    def _check_immutability(self) -> None:
        for ref, frozen in self._frozen_digest.items():
            if self._slot_fingerprint(ref) != frozen:
                raise InterpretError(f"slots of interpreted {ref!r} were modified")
