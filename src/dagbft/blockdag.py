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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

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


@dataclass(frozen=True, order=True)
class BlockRef:
    """Collision-resistant content hash of a block's core fields."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != DIGEST_SIZE:
            raise EncodingError(f"block reference must be {DIGEST_SIZE} bytes")

    def hex(self) -> str:
        return self.digest.hex()

    @classmethod
    def from_hex(cls, text: str) -> "BlockRef":
        return cls(bytes.fromhex(text))

    def __repr__(self) -> str:
        return f"BlockRef({self.digest.hex()[:12]})"


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
            + enc_seq(p.digest for p in self.preds)
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
        return BlockRef(content_digest(self.core_bytes()))

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
    preds = tuple(BlockRef(r.take(DIGEST_SIZE)) for _ in range(r.u32()))
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
        return _is_acyclic(self.vertices, self.edges)


def _is_acyclic(vertices: set, edges: set) -> bool:
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


def _graph_view(g) -> tuple[set, set]:
    if isinstance(g, BlockDag):
        return g.vertex_set(), g.edge_set()
    return set(g.vertices), set(g.edges)


# ---------------------------------------------------------------------------
# Block DAG
# ---------------------------------------------------------------------------


class BlockDag:
    """Acyclic, predecessor-closed store of validated blocks for one server."""

    def __init__(self, owner: int, registry) -> None:
        self.owner = owner
        self.registry = registry
        self._vertices: dict[BlockRef, Block] = {}
        self._successors: dict[BlockRef, list[BlockRef]] = {}

    # -- resolution ---------------------------------------------------------

    def __contains__(self, ref: BlockRef) -> bool:
        return ref in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def get(self, ref: BlockRef) -> Block:
        try:
            return self._vertices[ref]
        except KeyError:
            raise UnknownBlockError(f"{ref!r} not in DAG") from None

    def refs(self) -> Iterator[BlockRef]:
        return iter(self._vertices)

    def blocks(self) -> Iterator[Block]:
        return iter(self._vertices.values())

    def vertex_set(self) -> set[BlockRef]:
        return set(self._vertices)

    def edge_set(self) -> set[tuple[BlockRef, BlockRef]]:
        return {
            (pred, ref)
            for ref, block in self._vertices.items()
            for pred in block.distinct_preds()
        }

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
                block.builder, block_ref(block).digest, block.signature
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

        Edges are added from every distinct predecessor to the new block, so
        acyclicity and predecessor closure are preserved by construction.
        """
        ref = block_ref(block)
        if ref in self._vertices:
            return ref
        for pred in block.distinct_preds():
            if pred not in self._vertices:
                raise RejectedInsertError(f"missing predecessor {pred!r}")
        if not self.is_valid(block):
            raise RejectedInsertError("block failed validation")
        self._vertices[ref] = block
        self._successors[ref] = []
        for pred in block.distinct_preds():
            self._successors[pred].append(ref)
        return ref

    # -- reachability ---------------------------------------------------------

    def reaches(self, a: BlockRef, b: BlockRef, *, reflexive: bool = False) -> bool:
        """Whether ``b`` is reachable from ``a`` along DAG edges."""
        if a not in self._vertices:
            raise UnknownBlockError(f"{a!r} not in DAG")
        if b not in self._vertices:
            raise UnknownBlockError(f"{b!r} not in DAG")
        if a == b:
            return reflexive
        stack = [a]
        seen = {a}
        while stack:
            cur = stack.pop()
            for nxt in self._successors[cur]:
                if nxt == b:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    # -- oracles & export -------------------------------------------------------

    def copy(self) -> "BlockDag":
        dup = BlockDag(self.owner, self.registry)
        dup._vertices = dict(self._vertices)
        dup._successors = {k: list(v) for k, v in self._successors.items()}
        return dup

    def self_check(self) -> None:
        """Walk the DAG and assert closure and acyclicity; debug aid."""
        for ref, block in self._vertices.items():
            if block_ref(block) != ref:
                raise BlockDagError("vertex keyed under a foreign ref")
            for pred in block.distinct_preds():
                if pred not in self._vertices:
                    raise BlockDagError("closure violated: predecessor missing")
                if ref not in self._successors[pred]:
                    raise BlockDagError("closure violated: edge missing")
        if not _is_acyclic(self.vertex_set(), self.edge_set()):
            raise BlockDagError("cycle detected")

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


def union_dags(g1: BlockDag, g2: BlockDag) -> BlockDag:
    """Vertex- and edge-wise union; a test oracle, so it bypasses the insert
    validation path on purpose."""
    out = BlockDag(g1.owner, g1.registry)
    for src in (g1, g2):
        for ref, block in src._vertices.items():
            if ref not in out._vertices:
                out._vertices[ref] = block
    out._successors = {ref: [] for ref in out._vertices}
    for ref, block in out._vertices.items():
        for pred in block.distinct_preds():
            if pred in out._successors and ref not in out._successors[pred]:
                out._successors[pred].append(ref)
    return out
