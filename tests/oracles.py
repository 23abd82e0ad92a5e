"""Independent oracles the tests check the implementation against.

Three kinds live here, each independent of the code path it judges:

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

Beside them sit the paper's definitions that only the tests evaluate: the
generic directed graph with its insert, ``extends`` and ``union``, the
vertex- and edge-wise ``union_dags`` of two block DAGs, and ``message_less``,
the strict total order on messages.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from dagbft.blockdag import Block, BlockDag, BlockDagError, BlockRef, _is_acyclic, block_ref
from dagbft.brb import ReliableBroadcast, decode_deliver, encode_broadcast, encode_payload
from dagbft.crypto import UnknownServerError
from dagbft.protocol import Label, Message, message_sort_key

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
                block.builder, ref.digest, block.signature
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


def union_dags(g1: BlockDag, g2: BlockDag) -> BlockDag:
    """Vertex- and edge-wise union; it bypasses the insert validation path on
    purpose."""
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


def message_less(m1: Message, m2: Message) -> bool:
    """Strict total order on messages: byte order of the canonical encoding,
    the order the interpreter sorts by."""
    return message_sort_key(m1) < message_sort_key(m2)
