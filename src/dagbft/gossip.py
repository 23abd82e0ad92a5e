"""Block exchange: one intake per block, promotion, FWD recovery.

One node per server. A received block is hashed and its signature verified
at receipt, once per block object: the check's pass is kept on the block
for the registry's key set. A simulation's servers, adversaries included,
are handed the object sent, so one hash and one check serve them all: a
block is the object its builder sealed, verified once at its commit and
never decoded by a receiver. A bad signature is dropped at receipt,
since nothing downstream could ever validate it. The block then
waits in the pending buffer, indexed by the predecessors it still misses:
each missing ref maps to the blocks waiting on it, and each block counts
what it misses. When the count reaches zero the block is a candidate, and
``try_promote`` validates it once with ``BlockDag.is_valid``, which reuses
the receipt-time signature check. A candidate that fails then can never
pass and stays pending.
Promotion runs in rounds: a round promotes, in ascending ref order, the
valid candidates that were ready when it began; the blocks they unblock
wait for the next round. A promoted ref is appended to the block the
server is building.
A builder has at most ``PENDING_CAP_PER_BUILDER`` blocks pending; one more
evicts its oldest, and the intake returns the evicted ref.

Missing predecessors are requested from the builder of the block that
references them (FWD); this module alone decides every request. Two tables
of one shape, ref -> target -> step, hold the asks, as their lifetimes
differ. Timed asks are stamped in ``fwd_clock``, repeat after a request
interval and lose their stamps once nothing waits on the ref. The drain's
forced asks go once per pair into ``_forced``, which forgets a ref only
when the asked block itself is evicted. Folding them into ``fwd_clock``
changed 12 of 178 corpus traces, all evicting runs at pending caps 1 and 2.
``disseminate`` seals the current block with the requests ``take_requests``
drains from the FIFO, signs it, commits it (inserts it and restarts the
draft from it), and addresses it to every server (the builder included, for
wire uniformity; the duplicate arrival is absorbed by the already-in-DAG
guard). Scripted adversaries pick their own preds for ``seal`` but share
this intake, the request FIFO and ``commit``.
"""

from __future__ import annotations

import struct
from collections import deque
from enum import Enum
from typing import NamedTuple, Optional

from .blockdag import (
    Block,
    BlockDag,
    BlockRef,
    block_from_wire,
    block_ref,
    block_to_wire,
)
from .crypto import DIGEST_SIZE, ENCODING_VERSION, EncodingError, _Reader, pack_fields
from .protocol import Label

BLOCK_ENVELOPE = 1
FWD_ENVELOPE = 2

MAX_REQUESTS_PER_BLOCK = 8
"""Most requests one block carries; the rest wait in FIFO order for the next."""

PENDING_CAP_PER_BUILDER = 1024
"""Most blocks of one builder the pending buffer holds; one more evicts the
oldest."""

_KIND_NAMES = {BLOCK_ENVELOPE: "BLOCK", FWD_ENVELOPE: "FWD"}
_ENVELOPE_HEAD = struct.Struct(">BBII")  # version, kind, sender, receiver


class WireEnvelope(NamedTuple):
    """What actually crosses the simulated network: a block or a FWD request.
    A tuple, as ``Label`` is: cheap to build, compared and hashed in C."""

    kind: int
    sender: int
    receiver: int
    block: Optional[Block] = None
    ref: Optional[BlockRef] = None

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES[self.kind]

    @property
    def named_ref(self) -> BlockRef:
        """The ref the envelope names: its block's, or the one a FWD asks for."""
        return block_ref(self.block) if self.kind == BLOCK_ENVELOPE else self.ref

    def body(self) -> bytes:
        """The bytes after the header: the block's wire bytes or the FWD's ref."""
        if self.kind == BLOCK_ENVELOPE and self.block is not None:
            return block_to_wire(self.block)
        if self.kind == FWD_ENVELOPE and type(self.ref) is bytes and len(self.ref) == DIGEST_SIZE:
            return self.ref
        raise EncodingError(f"kind {self.kind} envelope lacks its block or {DIGEST_SIZE}-byte ref")

    def wire_size(self) -> int:
        """The length of ``encode()``'s bytes, without building them."""
        return _ENVELOPE_HEAD.size + len(self.body())

    def encode(self) -> bytes:
        head = pack_fields(_ENVELOPE_HEAD, ENCODING_VERSION, self.kind, self.sender, self.receiver)
        return head + self.body()

    @classmethod
    def decode(cls, data: bytes) -> "WireEnvelope":
        """Decode raw input; a simulated receiver is handed the envelope sent."""
        r = _Reader(data)
        version, kind, sender, receiver = r.fields(_ENVELOPE_HEAD)
        if version != ENCODING_VERSION:
            raise EncodingError("unsupported envelope version")
        if kind == BLOCK_ENVELOPE:
            return cls(kind, sender, receiver, block=block_from_wire(data[r.pos :]))
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


class GossipNode:
    """``GossipNode(server, registry)``: one server's gossip state, that is
    the DAG it builds over ``registry``, the pending buffer with its waiter
    index, and the block under construction. It signs by its id and holds no
    key; an adversary's ``registry`` is a restricted signer, the one guard
    on who signs."""

    def __init__(
        self,
        server: int,
        registry,
        *,
        fwd_interval: int = 5,
    ) -> None:
        self.server = server
        self.dag = BlockDag(registry)
        self.requests: deque[tuple[Label, bytes]] = deque()  # FIFO drained into blocks
        self.registry = registry
        self.fwd_interval = fwd_interval

        self.next_seqno = 0
        self.draft_preds: dict[BlockRef, None] = {}  # ordered set
        self.pending: dict[BlockRef, Block] = {}  # arrival order
        self._by_builder: dict[int, dict[BlockRef, None]] = {}  # each builder's pending
        self._missing: dict[BlockRef, int] = {}  # pending ref -> preds not in DAG
        self._waiters: dict[BlockRef, set[BlockRef]] = {}  # missing ref -> pending refs
        self._ready: set[BlockRef] = set()  # no pred missing, not yet validated
        self.fwd_clock: dict[BlockRef, dict[int, int]] = {}  # ref -> target -> step
        self._forced: dict[BlockRef, dict[int, int]] = {}  # the same, for forced asks

    # -- receiving ----------------------------------------------------------

    def on_receive_block(self, block: Block) -> Disposition | BlockRef:
        """Buffer a received block unless it is already known or its
        signature does not verify, and index it by its missing predecessors.
        Returns the disposition or, when the builder's pending blocks were
        at the cap, the ref of the oldest one, which was evicted."""
        ref = block_ref(block)
        if ref in self.dag or ref in self.pending:
            return Disposition.ALREADY_KNOWN
        if not self.dag.signature_verifies(block):
            return Disposition.BAD_SIGNATURE
        outcome: Disposition | BlockRef = Disposition.BUFFERED
        of_builder = self._by_builder.setdefault(block.builder, {})
        if len(of_builder) >= PENDING_CAP_PER_BUILDER:
            outcome = self._evict_oldest(of_builder)
        self.pending[ref] = block
        of_builder[ref] = None
        missing = [p for p in block.distinct_preds() if p not in self.dag._vertices]
        if missing:
            self._missing[ref] = len(missing)
            for pred in missing:
                self._waiters.setdefault(pred, set()).add(ref)
        else:
            self._ready.add(ref)
        return outcome

    def _evict_oldest(self, of_builder: dict[BlockRef, None]) -> BlockRef:
        """Drop one builder's oldest pending block with its forced asks, and
        the FWD stamps of the refs nothing waits on any more; returns its ref."""
        ref = next(iter(of_builder))
        del of_builder[ref]
        blk = self.pending.pop(ref)
        self._forced.pop(ref, None)
        self._ready.discard(ref)
        self._missing.pop(ref, None)
        for pred in blk.distinct_preds():
            waiters = self._waiters.get(pred)
            if waiters is not None:
                waiters.discard(ref)
                if not waiters:
                    del self._waiters[pred]
                    self.fwd_clock.pop(pred, None)
        return ref

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
                del self._by_builder[block.builder][ref]
                self.dag.insert(block)
                self.draft_preds[ref] = None
                self.fwd_clock.pop(ref, None)
                self._forced.pop(ref, None)
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
        out: dict[tuple[BlockRef, int], None] = {}  # ordered set
        in_dag, pending = self.dag._vertices, self.pending  # tested without a call
        for ref in sorted(self._missing):
            block = pending[ref]
            for pred in block.distinct_preds():
                if pred not in in_dag and pred not in pending:
                    out[(pred, block.builder)] = None
        return list(out)

    def request_missing(self, now: int, *, force: bool = False) -> list[WireEnvelope]:
        """Issue FWD requests for missing predecessors. A timed (reference,
        target) pair is asked again after ``fwd_interval`` steps, and its
        ``fwd_clock`` stamps go once nothing waits on the reference. A forced
        pair (``force``, the drain's) is asked once, until the asked block is
        evicted; ``_forced`` keeps it, as folding it into ``fwd_clock``
        changed 12 of 178 corpus traces."""
        clock = self._forced if force else self.fwd_clock
        envelopes: list[WireEnvelope] = []
        for missing, target in self.missing_predecessors():
            stamps = clock.setdefault(missing, {})
            stamp = stamps.get(target)
            if stamp is not None and (force or now - stamp < self.fwd_interval):
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
        return core.with_signature(self.registry.sign(self.server, block_ref(core)))

    def take_requests(self) -> tuple[tuple[Label, bytes], ...]:
        """Drain the requests one block carries: at most
        ``MAX_REQUESTS_PER_BLOCK``, oldest first."""
        queue = self.requests
        return tuple(queue.popleft() for _ in range(min(len(queue), MAX_REQUESTS_PER_BLOCK)))

    def disseminate(self) -> tuple[Block, list[WireEnvelope]]:
        """Seal the current block: drain buffered requests into it, sign it,
        commit it, and address it to every server."""
        block = self.seal(self.take_requests(), tuple(self.draft_preds))
        self.commit(block)
        envelopes = [
            WireEnvelope(BLOCK_ENVELOPE, self.server, receiver, block=block)
            for receiver in range(self.registry.server_count)
        ]
        return block, envelopes
