"""Block exchange: one intake per block, promotion, FWD recovery.

One node per server. A received block is hashed and its signature verified
once, at receipt; a bad signature is dropped there, since nothing downstream
could ever validate it. The block then waits in the pending buffer, indexed
by the predecessors it still misses: each missing ref maps to the blocks
waiting on it, and each block counts what it misses. When the count reaches
zero the block is a candidate, and ``try_promote`` validates it once with
``BlockDag.is_valid``, which reuses the receipt-time signature check. A
candidate that fails then can never pass and stays pending. Promotion runs
in rounds: a round promotes, in ascending ref order, the valid candidates
that were ready when it began; the blocks they unblock wait for the next
round. A promoted ref is appended to the block the server is building.

Missing predecessors are requested from the builder of the block that
references them (FWD), throttled per reference by a request interval.
``disseminate`` seals the current block with the drained request buffer,
signs it, commits it (inserts it and restarts the draft from it), and
addresses it to every server (the builder included, for wire uniformity;
the duplicate arrival is absorbed by the already-in-DAG guard). Scripted
adversaries pick their own preds for ``seal`` but share this intake and
``commit``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .blockdag import (
    Block,
    BlockDag,
    BlockRef,
    block_from_wire,
    block_ref,
    block_to_wire,
)
from .crypto import (
    DIGEST_SIZE,
    ENCODING_VERSION,
    EncodingError,
    enc_u32,
    enc_u8,
    reader,
)
from .protocol import Label

BLOCK_ENVELOPE = 1
FWD_ENVELOPE = 2

MAX_REQUESTS_PER_BLOCK = 8
"""Most requests one block carries; the rest wait in FIFO order for the next."""

_KIND_NAMES = {BLOCK_ENVELOPE: "BLOCK", FWD_ENVELOPE: "FWD"}


@dataclass(frozen=True)
class WireEnvelope:
    """What actually crosses the simulated network: a block or a FWD request."""

    kind: int
    sender: int
    receiver: int
    block: Optional[Block] = None
    ref: Optional[BlockRef] = None

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES[self.kind]

    def encode(self) -> bytes:
        head = enc_u8(ENCODING_VERSION) + enc_u8(self.kind)
        head += enc_u32(self.sender) + enc_u32(self.receiver)
        if self.kind == BLOCK_ENVELOPE:
            assert self.block is not None
            return head + block_to_wire(self.block)
        assert self.ref is not None
        return head + self.ref

    @classmethod
    def decode(cls, data: bytes) -> "WireEnvelope":
        r = reader(data)
        if r.u8() != ENCODING_VERSION:
            raise EncodingError("unsupported envelope version")
        kind = r.u8()
        sender = r.u32()
        receiver = r.u32()
        if kind == BLOCK_ENVELOPE:
            block = block_from_wire(data[r.pos :])
            return cls(kind, sender, receiver, block=block)
        if kind == FWD_ENVELOPE:
            ref = r.take(DIGEST_SIZE)
            if not r.done():
                raise EncodingError("trailing bytes after FWD envelope")
            return cls(kind, sender, receiver, ref=ref)
        raise EncodingError(f"unknown envelope kind {kind}")


class Disposition(Enum):
    """Outcome of handing a received block to the node."""

    BUFFERED = "buffered"
    ALREADY_KNOWN = "already_known"
    BAD_SIGNATURE = "bad_signature"
    EVICTED_OLDEST = "evicted_oldest"


class GossipNode:
    """``GossipNode(server, registry)``: one server's gossip state, that is
    the DAG it builds over ``registry`` (a restricted signer will do), the
    pending buffer with its waiter index, and the block under construction."""

    def __init__(
        self,
        server: int,
        registry,
        *,
        fwd_interval: int = 5,
        pending_cap_per_builder: int = 1024,
    ) -> None:
        self.server = server
        self.dag = BlockDag(registry)
        self.requests: deque[tuple[Label, bytes]] = deque()  # FIFO drained into blocks
        self.registry = registry
        self.handle = registry.handle(server)
        self.fwd_interval = fwd_interval
        self.pending_cap_per_builder = pending_cap_per_builder

        self.next_seqno = 0
        self.draft_preds: dict[BlockRef, None] = {}  # ordered set
        self.pending: dict[BlockRef, Block] = {}  # arrival order
        self._pending_per_builder: dict[int, int] = {}
        self._missing: dict[BlockRef, int] = {}  # pending ref -> preds not in DAG
        self._waiters: dict[BlockRef, set[BlockRef]] = {}  # missing ref -> pending refs
        self._ready: set[BlockRef] = set()  # no pred missing, not yet validated
        self.fwd_clock: dict[BlockRef, dict[int, int]] = {}  # ref -> target -> step

    # -- receiving ----------------------------------------------------------

    def on_receive_block(self, block: Block) -> Disposition:
        """Buffer a received block unless it is already known or its
        signature does not verify, and index it by its missing predecessors."""
        ref = block_ref(block)
        if ref in self.dag or ref in self.pending:
            return Disposition.ALREADY_KNOWN
        if not self.dag.signature_verifies(block):
            return Disposition.BAD_SIGNATURE
        disposition = Disposition.BUFFERED
        count = self._pending_per_builder.get(block.builder, 0)
        if count >= self.pending_cap_per_builder:
            self._evict_oldest(block.builder)
            disposition = Disposition.EVICTED_OLDEST
        self.pending[ref] = block
        self._pending_per_builder[block.builder] = (
            self._pending_per_builder.get(block.builder, 0) + 1
        )
        missing = [p for p in block.distinct_preds() if p not in self.dag]
        if missing:
            self._missing[ref] = len(missing)
            for pred in missing:
                self._waiters.setdefault(pred, set()).add(ref)
        else:
            self._ready.add(ref)
        return disposition

    def _evict_oldest(self, builder: int) -> None:
        for ref, blk in self.pending.items():  # insertion order
            if blk.builder == builder:
                del self.pending[ref]
                self._pending_per_builder[builder] -= 1
                self._ready.discard(ref)
                self._missing.pop(ref, None)
                for pred in blk.distinct_preds():
                    waiters = self._waiters.get(pred)
                    if waiters is not None:
                        waiters.discard(ref)
                        if not waiters:
                            del self._waiters[pred]
                return

    # -- promotion ------------------------------------------------------------

    def try_promote(self) -> list[Block]:
        """Promote every pending block that validates, cascading until no
        further block becomes valid. Each round takes the candidates ready
        at its start in ascending reference order, so runs are reproducible."""
        promoted: list[Block] = []
        while self._ready:
            batch = sorted(self._ready)
            self._ready = set()
            for ref in [r for r in batch if self.dag.is_valid(self.pending[r])]:
                block = self.pending.pop(ref)
                self._pending_per_builder[block.builder] -= 1
                self.dag.insert(block)
                self.draft_preds[ref] = None
                self.fwd_clock.pop(ref, None)
                self._release(ref)
                promoted.append(block)
        return promoted

    def _release(self, ref: BlockRef) -> None:
        """``ref`` entered the DAG: the blocks waiting on it miss one less."""
        for waiter in self._waiters.pop(ref, ()):
            self._missing[waiter] -= 1
            if not self._missing[waiter]:
                del self._missing[waiter]
                self._ready.add(waiter)

    # -- predecessor recovery -----------------------------------------------------

    def missing_predecessors(self) -> list[tuple[BlockRef, int]]:
        """(missing ref, builder to ask) pairs. Every distinct referencing
        builder is a candidate responder (a single unresponsive builder must
        not wedge recovery); repeats from the same builder collapse."""
        out: list[tuple[BlockRef, int]] = []
        seen: set[tuple[BlockRef, int]] = set()
        for ref in sorted(self._missing):
            block = self.pending[ref]
            for pred in block.distinct_preds():
                if pred in self.dag or pred in self.pending:
                    continue
                key = (pred, block.builder)
                if key in seen:
                    continue
                seen.add(key)
                out.append(key)
        return out

    def request_missing(self, now: int, *, force: bool = False) -> list[WireEnvelope]:
        """Issue FWD requests for missing predecessors. A (reference, target)
        pair is re-requested only after ``fwd_interval`` steps (``force``
        bypasses the timer; the drain phase uses it)."""
        envelopes: list[WireEnvelope] = []
        for missing, target in self.missing_predecessors():
            stamps = self.fwd_clock.setdefault(missing, {})
            stamp = stamps.get(target)
            if not force and stamp is not None and now - stamp < self.fwd_interval:
                continue
            stamps[target] = now
            envelopes.append(
                WireEnvelope(FWD_ENVELOPE, self.server, target, ref=missing)
            )
        return envelopes

    def on_fwd_request(self, ref: BlockRef, requester: int) -> Optional[WireEnvelope]:
        """Answer a FWD with the full block when we hold it; stateless."""
        if ref in self.dag:
            return WireEnvelope(
                BLOCK_ENVELOPE, self.server, requester, block=self.dag.get(ref)
            )
        return None

    # -- dissemination ----------------------------------------------------------

    def commit(self, block: Block) -> None:
        """Insert this server's own sealed block and restart the draft from
        it: the next block is its child and lists it as its parent."""
        ref = self.dag.insert(block)
        self.next_seqno = block.seqno + 1
        self.draft_preds = {ref: None}
        self._release(ref)  # content is predictable, e.g. an empty genesis block

    def seal(
        self, requests: tuple[tuple[Label, bytes], ...], preds: tuple[BlockRef, ...]
    ) -> Block:
        """Sign this server's next block over ``preds`` without committing
        it; an adversary may seal twice (a fork) or list a ref twice."""
        core = Block(self.server, self.next_seqno, preds, requests)
        return core.with_signature(self.registry.sign(self.handle, block_ref(core)))

    def disseminate(self) -> tuple[Block, list[WireEnvelope]]:
        """Seal the current block: drain buffered requests into it, sign it,
        commit it, and address it to every server."""
        drained: list[tuple[Label, bytes]] = []
        while self.requests and len(drained) < MAX_REQUESTS_PER_BLOCK:
            drained.append(self.requests.popleft())
        block = self.seal(tuple(drained), tuple(self.draft_preds))
        self.commit(block)
        envelopes = [
            WireEnvelope(BLOCK_ENVELOPE, self.server, receiver, block=block)
            for receiver in range(self.registry.server_count)
        ]
        return block, envelopes
