"""Blocks, content-addressed references, and the per-server block DAG.

A block is the single wire object of the whole system: builder id, sequence
number, hash references to predecessor blocks, embedded (label, request)
pairs, and a signature over the block's content hash. The content hash
excludes the signature so that signing the hash is well defined.

The DAG stores only blocks the owning server has validated, which makes its
invariants unconditional: acyclic, closed under predecessors, every vertex
valid at insertion time. Blocks whose predecessors are still missing live in
the gossip layer's pending buffer, never here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .crypto import (
    DIGEST_SIZE,
    ENCODING_VERSION,
    EncodingError,
    Signature,
    SignatureScheme,
    UnknownServerError,
    content_digest,
    enc_bytes,
    enc_seq,
    enc_u8,
    enc_u32,
    enc_u64,
    reader,
)
from .protocol import Label

_TAG_BLOCK_CORE = 0x01


class BlockDagError(Exception):
    """Base error for DAG operations."""


class MalformedBlockError(BlockDagError):
    """A block violates a structural rule (e.g. two parents)."""


class UnknownBlockError(BlockDagError):
    """A reference does not resolve in this DAG."""


class RejectedInsertError(BlockDagError):
    """Insert precondition failed; ``reason`` names which one."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


BlockRef = bytes
"""A block reference: the 32-byte content digest of the block's core fields."""


@dataclass(frozen=True)
class Block:
    """Content-addressed vertex carrying requests and predecessor hashes.

    A block object is immutable, so facts derived from it are kept on it:
    its ref is hashed on first use, and a signature check that passed is
    remembered per registry (see :meth:`BlockDag.signature_verifies`).
    """

    builder: int
    seqno: int
    preds: tuple[BlockRef, ...]
    requests: tuple[tuple[Label, bytes], ...]
    signature: Optional[Signature] = None

    def core_bytes(self) -> bytes:
        """Canonical encoding of the signed content; the signature is excluded
        so the content hash is independent of it."""
        return (
            enc_u8(ENCODING_VERSION)
            + enc_u8(_TAG_BLOCK_CORE)
            + enc_u32(self.builder)
            + enc_u64(self.seqno)
            + enc_seq(self.preds)
            + enc_seq(
                label.canonical_bytes() + enc_bytes(payload)
                for label, payload in self.requests
            )
        )

    def distinct_preds(self) -> tuple[BlockRef, ...]:
        """Predecessor refs with byzantine repetitions removed, first-seen order."""
        return tuple(dict.fromkeys(self.preds))

    def is_genesis(self) -> bool:
        return self.seqno == 0

    @cached_property
    def ref(self) -> BlockRef:
        """Content address over (builder, seqno, preds, requests)."""
        return content_digest(self.core_bytes())

    def with_signature(self, signature: Signature) -> "Block":
        signed = Block(self.builder, self.seqno, self.preds, self.requests, signature)
        if "ref" in self.__dict__:  # the ref excludes the signature
            signed.__dict__["ref"] = self.ref
        return signed


def block_ref(block: Block) -> BlockRef:
    """Content address over (builder, seqno, preds, requests); hashed once
    per block object."""
    return block.ref


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------


def block_to_wire(block: Block) -> bytes:
    if block.signature is None:
        raise EncodingError("refusing to encode an unsigned block for the wire")
    return (
        block.core_bytes()
        + enc_u8(int(block.signature.scheme))
        + enc_bytes(block.signature.data)
    )


def block_from_wire(data: bytes) -> Block:
    r = reader(data)
    if r.u8() != ENCODING_VERSION:
        raise EncodingError("unsupported encoding version")
    if r.u8() != _TAG_BLOCK_CORE:
        raise EncodingError("not a block encoding")
    builder = r.u32()
    seqno = r.u64()
    preds = tuple(r.take(DIGEST_SIZE) for _ in range(r.u32()))
    requests = []
    for _ in range(r.u32()):
        if r.u8() != ENCODING_VERSION or r.u8() != 0x10:
            raise EncodingError("bad label encoding")
        label = Label(r.u32(), r.u64())
        requests.append((label, r.raw_bytes()))
    scheme = r.u8()
    try:
        sig = Signature(SignatureScheme(scheme), r.raw_bytes())
    except ValueError as exc:
        raise EncodingError(f"unknown signature scheme {scheme}") from exc
    if not r.done():
        raise EncodingError("trailing bytes after block encoding")
    return Block(builder, seqno, preds, tuple(requests), sig)


# ---------------------------------------------------------------------------
# Block DAG
# ---------------------------------------------------------------------------


class BlockDag:
    """Acyclic, predecessor-closed store of validated blocks for one server."""

    def __init__(self, registry) -> None:
        self.registry = registry
        self._vertices: dict[BlockRef, Block] = {}

    # -- resolution ---------------------------------------------------------

    def __contains__(self, ref: BlockRef) -> bool:
        return ref in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def get(self, ref: BlockRef) -> Block:
        try:
            return self._vertices[ref]
        except KeyError:
            raise UnknownBlockError(f"{ref.hex()[:12]} not in DAG") from None

    def refs(self) -> Iterator[BlockRef]:
        return iter(self._vertices)

    # -- structural predicates ----------------------------------------------

    def parent_of(self, block: Block) -> Optional[Block]:
        """The unique predecessor by the same builder with the previous
        sequence number; None for genesis blocks.

        Raises MalformedBlockError when two distinct predecessors qualify and
        UnknownBlockError when a predecessor cannot be resolved yet.
        """
        if block.is_genesis():
            return None
        matches = []
        for ref in block.distinct_preds():
            candidate = self.get(ref)
            if candidate.builder == block.builder and candidate.seqno == block.seqno - 1:
                matches.append(candidate)
        if len(matches) > 1:
            raise MalformedBlockError(
                f"block by {block.builder} at {block.seqno} lists two parents"
            )
        return matches[0] if matches else None

    def signature_verifies(self, block: Block) -> bool:
        """Whether the block carries its builder's signature over its ref.

        A pass is kept on the block object for this DAG's registry, so each
        received or sealed block is verified once and every later check
        reuses the answer. A copy with another signature is a new object
        and is checked afresh."""
        if block.__dict__.get("_verified_by") is self.registry:
            return True
        if block.signature is None:
            return False
        try:
            if not self.registry.verify(
                block.builder, block_ref(block), block.signature
            ):
                return False
        except UnknownServerError:
            return False
        block.__dict__["_verified_by"] = self.registry
        return True

    def is_valid(self, block: Block) -> bool:
        """Validity from this server's point of view: the signature verifies,
        the block is genesis or has exactly one parent, and every predecessor
        has already been validated (is in this DAG)."""
        if not self.signature_verifies(block):
            return False
        for ref in block.distinct_preds():
            if ref not in self._vertices:
                return False
        if not block.is_genesis():
            try:
                if self.parent_of(block) is None:
                    return False
            except MalformedBlockError:
                return False
        return True

    # -- mutation -------------------------------------------------------------

    def insert(self, block: Block) -> BlockRef:
        """Insert a validated block; idempotent when already present.

        The block's edges are its own preds, all already present, so
        acyclicity and predecessor closure are preserved by construction.
        """
        ref = block_ref(block)
        if ref in self._vertices:
            return ref
        for pred in block.distinct_preds():
            if pred not in self._vertices:
                raise RejectedInsertError(f"missing predecessor {pred.hex()[:12]}")
        if not self.is_valid(block):
            raise RejectedInsertError("block failed validation")
        self._vertices[ref] = block
        return ref

    # -- copies & export -------------------------------------------------------

    def copy(self) -> "BlockDag":
        dup = BlockDag(self.registry)
        dup._vertices = dict(self._vertices)
        return dup

    def to_dot(self) -> str:
        """Deterministic DOT rendering: nodes labeled builder/seqno, parent
        edges drawn bold."""
        summaries = [
            (ref.hex(), block.builder, block.seqno, [p.hex() for p in block.preds])
            for ref, block in self._vertices.items()
        ]
        return render_dot(summaries)


def render_dot(summaries: list[tuple[str, int, int, list[str]]]) -> str:
    """DOT text from (ref hex, builder, seqno, preds hex) summaries: one node
    per block labeled builder/seqno, one edge per distinct predecessor, the
    parent edge bold. Node order is (builder, seqno, ref) so equal inputs
    give byte-equal output."""
    by_ref = {ref: (builder, seqno) for ref, builder, seqno, _ in summaries}
    order = sorted(summaries, key=lambda s: (s[1], s[2], s[0]))
    lines = ["digraph blockdag {", "  rankdir=LR;"]
    for ref, builder, seqno, _preds in order:
        lines.append(f'  "{ref}" [label="s{builder}/{seqno}"];')
    for ref, builder, seqno, preds in order:
        seen: set[str] = set()
        for pred in preds:
            if pred in seen:
                continue
            seen.add(pred)
            pb = by_ref.get(pred)
            style = "bold" if pb == (builder, seqno - 1) else "solid"
            lines.append(f'  "{pred}" -> "{ref}" [style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
