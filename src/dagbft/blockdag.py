"""Blocks, content-addressed references, and the per-server block DAG.

A block is the single wire object of the whole system: builder id, sequence
number, hash references to predecessor blocks, embedded (label, request)
pairs, and a signature over the block's content hash. The content hash
excludes the signature so that signing the hash is well defined.

The DAG stores only blocks the owning server has validated, which makes its
invariants unconditional: acyclic, closed under predecessors, every vertex
valid at insertion time. Blocks whose predecessors are still missing live in
the gossip layer's pending buffer, never here.

A decoded block keeps the bytes it arrived in, and its ref hashes their core
prefix. That is exact because the codec is canonical: integers are
fixed-width, length and count prefixes exact, and version and tag bytes
checked, so bytes that decode at all are the one encoding of their block.
"""

from __future__ import annotations

import struct
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
    _Reader,
    content_digest,
    pack_fields,
)
from .protocol import Label, read_label

_TAG_BLOCK_CORE = 0x01
_BLOCK_HEAD = struct.Struct(">BBIQI")  # version, tag, builder, seqno, pred count
_LENGTH = struct.Struct(">I")  # the request count, a request payload's length
_SIGNATURE_HEAD = struct.Struct(">BI")  # scheme, data length


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

    A block object is immutable, so facts derived from it are kept on it,
    outside its fields: its ref and wire bytes, made on first use unless
    it was decoded (the wire bytes reuse the core bytes the ref hashed),
    its distinct preds and its parent's ref, made on first use, and a
    passed signature check per key set (see :meth:`BlockDag.signature_verifies`).
    Servers that hold one shared object, as a simulation's servers hold
    the block sent, share these facts. A re-signed copy keeps the ref, the
    core bytes while kept, and the distinct preds.
    """

    builder: int
    seqno: int
    preds: tuple[BlockRef, ...]
    requests: tuple[tuple[Label, bytes], ...]
    signature: Optional[Signature] = None

    def core_bytes(self) -> bytes:
        """Canonical encoding of the signed content; the signature is excluded
        so the content hash is independent of it."""
        head = (ENCODING_VERSION, _TAG_BLOCK_CORE, self.builder, self.seqno, len(self.preds))
        parts = [pack_fields(_BLOCK_HEAD, *head), *self.preds, _LENGTH.pack(len(self.requests))]
        for label, payload in self.requests:
            parts += (label.canonical_bytes(), _LENGTH.pack(len(payload)), payload)
        return b"".join(parts)

    def distinct_preds(self) -> tuple[BlockRef, ...]:
        """Predecessor refs with byzantine repetitions removed, first-seen
        order; built on first use and kept on the block."""
        distinct = self.__dict__.get("_distinct_preds")
        if distinct is None:
            distinct = self.__dict__["_distinct_preds"] = tuple(dict.fromkeys(self.preds))
        return distinct

    def is_genesis(self) -> bool:
        return self.seqno == 0

    @cached_property
    def ref(self) -> BlockRef:
        """Content address over (builder, seqno, preds, requests)."""
        core = self.__dict__["_core"] = self.core_bytes()
        return content_digest(core)

    def with_signature(self, signature: Signature) -> "Block":
        signed = Block(self.builder, self.seqno, self.preds, self.requests, signature)
        for kept in ("ref", "_core", "_distinct_preds"):  # none depends on the signature
            if kept in self.__dict__:
                signed.__dict__[kept] = self.__dict__[kept]
        return signed


def block_ref(block: Block) -> BlockRef:
    """Content address over (builder, seqno, preds, requests); hashed once
    per block object."""
    return block.ref


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------


def block_to_wire(block: Block) -> bytes:
    """The block's wire bytes, built on first use and kept on the block."""
    wire = block.__dict__.get("_wire")
    if wire is None:
        sig = block.signature
        if sig is None:
            raise EncodingError("refusing to encode an unsigned block for the wire")
        core = block.__dict__.pop("_core", None) or block.core_bytes()  # what the ref hashed
        head = pack_fields(_SIGNATURE_HEAD, sig.scheme, len(sig.data))
        wire = block.__dict__["_wire"] = core + head + sig.data
    return wire


def block_from_wire(data: bytes) -> Block:
    """Decode a block that keeps ``data`` as its wire bytes and hashes its core."""
    r = _Reader(data)
    version, tag, builder, seqno, count = r.fields(_BLOCK_HEAD)
    if version != ENCODING_VERSION:
        raise EncodingError("unsupported encoding version")
    if tag != _TAG_BLOCK_CORE:
        raise EncodingError("not a block encoding")
    packed = r.take(DIGEST_SIZE * count)
    preds = tuple(packed[i : i + DIGEST_SIZE] for i in range(0, len(packed), DIGEST_SIZE))
    (count,) = r.fields(_LENGTH)
    requests = tuple((read_label(r), r.take(r.fields(_LENGTH)[0])) for _ in range(count))
    core_end = r.pos
    scheme, size = r.fields(_SIGNATURE_HEAD)
    try:
        sig = Signature(SignatureScheme(scheme), r.take(size))
    except ValueError as exc:
        raise EncodingError(f"unknown signature scheme {scheme}") from exc
    if not r.done():
        raise EncodingError("trailing bytes after block encoding")
    block = Block(builder, seqno, preds, requests, sig)
    block.__dict__["ref"] = content_digest(memoryview(data)[:core_end])
    block.__dict__["_wire"] = data
    return block


# ---------------------------------------------------------------------------
# Block DAG
# ---------------------------------------------------------------------------


class BlockDag:
    """Acyclic, predecessor-closed store of validated blocks for one server."""

    def __init__(self, registry) -> None:
        self.registry = registry
        self._vertices: dict[BlockRef, Block] = {}
        self._order: list[BlockRef] = []  # refs in insertion order; append-only

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

    def refs_since(self, start: int) -> list[BlockRef]:
        """The refs inserted after the first ``start``, in insertion order."""
        return self._order[start:]

    # -- structural predicates ----------------------------------------------

    def parent_of(self, block: Block) -> Optional[Block]:
        """The unique predecessor by the same builder with the previous
        sequence number; None for genesis blocks.

        Raises MalformedBlockError when two distinct predecessors qualify and
        UnknownBlockError when a predecessor cannot be resolved yet. The
        parent's ref is kept on the block, and neither error is.
        """
        if block.is_genesis():
            return None
        for ref in block.distinct_preds():
            if ref not in self._vertices:
                raise UnknownBlockError(f"{ref.hex()[:12]} not in DAG")
        if "_parent" not in block.__dict__:  # a ref names the same block in every DAG
            matches = []
            for ref in block.distinct_preds():
                pred = self._vertices[ref]
                if pred.builder == block.builder and pred.seqno == block.seqno - 1:
                    matches.append(ref)
            if len(matches) > 1:
                raise MalformedBlockError(
                    f"block by {block.builder} at {block.seqno} lists two parents"
                )
            block.__dict__["_parent"] = matches[0] if matches else None
        parent = block.__dict__["_parent"]
        return None if parent is None else self._vertices[parent]

    def signature_verifies(self, block: Block) -> bool:
        """Whether the block carries its builder's signature over its ref.

        A pass is kept on the block object for the key set of this DAG's
        registry, so each received or sealed block is verified once and
        every later check reuses the answer, in every DAG over that key set,
        restricted views included, that holds the same block object. A failed
        check is not kept. A copy with another signature is checked afresh."""
        keys = self.registry.key_set
        if block.__dict__.get("_verified_by") is keys:
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
        block.__dict__["_verified_by"] = keys
        return True

    def is_valid(self, block: Block) -> bool:
        """Validity from this server's point of view: the signature verifies,
        the block is genesis or has exactly one parent, and every predecessor
        has already been validated (is in this DAG)."""
        if not self.signature_verifies(block):
            return False
        try:
            parent = self.parent_of(block)
        except (UnknownBlockError, MalformedBlockError):
            return False
        if block.is_genesis():
            return all(ref in self._vertices for ref in block.distinct_preds())
        return parent is not None

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
        self._order.append(ref)
        return ref

    # -- copies ----------------------------------------------------------------

    def copy(self) -> "BlockDag":
        dup = BlockDag(self.registry)
        dup._vertices = dict(self._vertices)
        dup._order = list(self._order)
        return dup


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
