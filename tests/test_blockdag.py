"""Block structure, validity, insertion, extension, union."""

from __future__ import annotations

import dataclasses
from random import Random

import pytest

from dagbft.blockdag import (
    Block,
    BlockDag,
    MalformedBlockError,
    RejectedInsertError,
    UnknownBlockError,
    block_from_wire,
    block_ref,
    block_to_wire,
    render_dot,
)
from dagbft.crypto import ENCODING_VERSION, EncodingError, Signature, SignatureScheme
from dagbft.protocol import Label

from .oracles import Digraph, check_dag, dag_graph, debug_oracles, extends, union, union_dags
from .util import fig_pair_dag, make_registry, signed_block


@pytest.fixture
def registry():
    return make_registry()


class TestParent:
    def test_three_block_picture(self, registry):
        dag, (b1, b2, b3) = fig_pair_dag(registry)
        assert dag.parent_of(b3) == b1

    def test_genesis_has_no_parent(self, registry):
        dag, (b1, _, _) = fig_pair_dag(registry)
        assert dag.parent_of(b1) is None

    def test_two_distinct_parents_is_malformed(self, registry):
        dag = BlockDag(registry)
        g1 = signed_block(registry, 0, 0)
        g2 = signed_block(registry, 0, 0, requests=((Label(0, 1), b"x"),))
        dag.insert(g1)
        dag.insert(g2)
        bad = signed_block(registry, 0, 1, (block_ref(g1), block_ref(g2)))
        with pytest.raises(MalformedBlockError):
            dag.parent_of(bad)
        assert not dag.is_valid(bad)

    def test_duplicated_parent_ref_counts_once(self, registry):
        dag = BlockDag(registry)
        g1 = signed_block(registry, 0, 0)
        dag.insert(g1)
        doubled = signed_block(registry, 0, 1, (block_ref(g1), block_ref(g1)))
        assert dag.parent_of(doubled) == g1
        assert dag.is_valid(doubled)

    def test_kept_parent_gives_the_same_answer_in_another_dag(self, registry):
        # the parent's ref is kept on the block object; a second DAG
        # answers with its own vertex for that ref
        dag, (b1, b2, b3) = fig_pair_dag(registry)
        assert dag.parent_of(b3) is b1
        assert b3.__dict__["_parent"] == block_ref(b1)
        other = BlockDag(registry)
        copy = dataclasses.replace(b1)  # an equal block, another object
        other.insert(copy)
        other.insert(b2)
        assert other.parent_of(b3) is copy
        assert dag.parent_of(b3) is b1

    def test_two_parents_raise_on_every_call(self, registry):
        dag = BlockDag(registry)
        g1 = signed_block(registry, 0, 0)
        g2 = signed_block(registry, 0, 0, requests=((Label(0, 1), b"x"),))
        dag.insert(g1)
        dag.insert(g2)
        bad = signed_block(registry, 0, 1, (block_ref(g1), block_ref(g2)))
        for _ in range(2):
            with pytest.raises(MalformedBlockError):
                dag.parent_of(bad)
        assert "_parent" not in bad.__dict__
        other = BlockDag(registry)
        other.insert(g2)
        other.insert(g1)
        with pytest.raises(MalformedBlockError):
            other.parent_of(bad)

    def test_missing_pred_raises_after_another_dag_resolved_the_parent(self, registry):
        g0 = signed_block(registry, 0, 0)
        g1 = signed_block(registry, 1, 0)
        child = signed_block(registry, 0, 1, (block_ref(g0), block_ref(g1)))
        full = BlockDag(registry)
        full.insert(g0)
        with pytest.raises(UnknownBlockError):
            full.parent_of(child)
        assert "_parent" not in child.__dict__
        full.insert(g1)
        assert full.parent_of(child) is g0
        partial = BlockDag(registry)
        partial.insert(g0)  # the parent, but not the other pred
        for _ in range(2):
            with pytest.raises(UnknownBlockError):
                partial.parent_of(child)
        assert not partial.is_valid(child)
        with pytest.raises(UnknownBlockError):
            BlockDag(registry).parent_of(child)


class TestValid:
    def test_equivocating_fork_is_valid(self, registry):
        # two different blocks with the same parent both validate; the DAG
        # stores forks without complaint
        dag, (b1, b2, b3) = fig_pair_dag(registry)
        b4 = signed_block(
            registry, 0, 1, (block_ref(b1), block_ref(b2)), ((Label(0, 9), b"y"),)
        )
        assert block_ref(b4) != block_ref(b3)
        assert dag.is_valid(b4)
        dag.insert(b4)
        assert len(dag) == 4

    def test_corrupted_signature_is_invalid(self, registry):
        dag = BlockDag(registry)
        block = signed_block(registry, 0, 0)
        forged = block.with_signature(Signature(SignatureScheme.HMAC_SHA256, b"\x00" * 32))
        assert not dag.is_valid(forged)

    def test_unknown_predecessor_is_invalid(self, registry):
        dag = BlockDag(registry)
        g1 = signed_block(registry, 0, 0)
        child = signed_block(registry, 0, 1, (block_ref(g1),))
        assert not dag.is_valid(child)  # predecessor not validated yet

    def test_unsigned_block_is_invalid(self, registry):
        dag = BlockDag(registry)
        assert not dag.is_valid(Block(0, 0, (), ()))

    def test_unregistered_builder_is_invalid(self, registry):
        dag = BlockDag(registry)
        block = Block(17, 0, (), ()).with_signature(
            Signature(SignatureScheme.HMAC_SHA256, b"\x00" * 32)
        )
        assert not dag.is_valid(block)

    def test_missing_parent_with_present_preds_is_invalid(self, registry):
        # preds resolve but none of them is a parent
        dag = BlockDag(registry)
        other = signed_block(registry, 1, 0)
        dag.insert(other)
        orphan = signed_block(registry, 0, 1, (block_ref(other),))
        assert not dag.is_valid(orphan)


class TestInsert:
    def test_genesis_insert(self, registry):
        dag = BlockDag(registry)
        b1 = signed_block(registry, 0, 0)
        dag.insert(b1)
        assert len(dag) == 1
        assert dag_graph(dag)[1] == set()

    def test_three_block_edges(self, registry):
        dag, (b1, b2, b3) = fig_pair_dag(registry)
        assert len(dag) == 3
        assert dag_graph(dag)[1] == {
            (block_ref(b1), block_ref(b3)),
            (block_ref(b2), block_ref(b3)),
        }

    def test_insert_is_idempotent(self, registry):
        dag, (_, _, b3) = fig_pair_dag(registry)
        before = dag_graph(dag)
        dag.insert(b3)
        assert dag_graph(dag) == before

    def test_missing_pred_rejected_with_reason(self, registry):
        dag = BlockDag(registry)
        ghost = signed_block(registry, 0, 0, requests=((Label(0, 5), b"g"),))
        child = signed_block(registry, 0, 1, (block_ref(ghost),))
        with pytest.raises(RejectedInsertError) as err:
            dag.insert(child)
        assert "predecessor" in str(err.value)

    def test_invalid_block_rejected(self, registry):
        dag = BlockDag(registry)
        bad = Block(0, 0, (), ()).with_signature(
            Signature(SignatureScheme.HMAC_SHA256, b"\x01" * 32)
        )
        with pytest.raises(RejectedInsertError):
            dag.insert(bad)

    def test_self_check_passes_after_inserts(self, registry):
        dag, _ = fig_pair_dag(registry)
        check_dag(dag)

    def test_self_check_catches_a_deleted_predecessor(self, registry):
        dag, (b1, _, b3) = fig_pair_dag(registry)
        broken = dag.copy()
        del broken._vertices[block_ref(b1)]
        with pytest.raises(AssertionError, match="predecessor missing"):
            check_dag(broken)
        check_dag(dag)  # the copy's vertex map is its own
        with debug_oracles(), pytest.raises(AssertionError, match="predecessor missing"):
            broken.insert(b3)  # already present, so only the oracle can object


class TestInsertionOrder:
    def test_refs_since_reads_the_insertion_order(self, registry):
        dag, blocks = fig_pair_dag(registry)
        refs = [block_ref(b) for b in blocks]
        assert list(dag.refs()) == dag.refs_since(0) == refs
        assert dag.refs_since(2) == refs[2:]
        assert dag.refs_since(3) == []

    def test_a_copy_keeps_its_own_order(self, registry):
        dag, (_, b2, b3) = fig_pair_dag(registry)
        dup = dag.copy()
        b4 = signed_block(registry, 1, 1, (block_ref(b2), block_ref(b3)))
        dup.insert(b4)
        dup.insert(b4)  # idempotent: the ref is listed once
        assert dup.refs_since(3) == [block_ref(b4)]
        assert dag.refs_since(3) == []


class TestExtends:
    def test_reflexive(self, registry):
        dag, _ = fig_pair_dag(registry)
        assert extends(dag, dag)

    def test_edge_restriction_counterexample(self):
        # two vertices with no edge, then the same vertex re-inserted with a
        # new edge between old vertices: not an extension
        g = Digraph({"v1"}, set()).insert("v2", set())
        g_prime = g.insert("v2", {("v1", "v2")})
        assert not extends(g, g_prime)

    def test_fresh_insert_extends(self, registry):
        dag, (b1, b2, b3) = fig_pair_dag(registry)
        smaller = BlockDag(registry)
        smaller.insert(b1)
        smaller.insert(b2)
        assert extends(smaller, dag)

    def test_vertex_superset_alone_is_not_enough(self, registry):
        dag, (b1, b2, b3) = fig_pair_dag(registry)
        # same vertices as dag but missing the edges
        v_only = Digraph(dag_graph(dag)[0], set())
        assert not extends(v_only, dag)


class TestUnion:
    def test_identity(self, registry):
        dag, _ = fig_pair_dag(registry)
        empty = BlockDag(registry)
        merged = union_dags(dag, empty)
        assert dag_graph(merged) == dag_graph(dag)

    def test_fork_union_has_both_branches(self, registry):
        dag, (b1, b2, b3) = fig_pair_dag(registry)
        fork = BlockDag(registry)
        fork.insert(b1)
        fork.insert(b2)
        b4 = signed_block(
            registry, 0, 1, (block_ref(b1), block_ref(b2)), ((Label(0, 9), b"y"),)
        )
        fork.insert(b4)
        vertices, _ = dag_graph(union_dags(dag, fork))
        assert len(vertices) == 4
        assert block_ref(b3) in vertices
        assert block_ref(b4) in vertices

    def test_commutative_on_random_dags(self, registry):
        rng = Random(5)
        for _ in range(20):
            d1 = _random_chain_dag(registry, rng)
            d2 = _random_chain_dag(registry, rng)
            a = union_dags(d1, d2)
            b = union_dags(d2, d1)
            assert dag_graph(a) == dag_graph(b)


def _random_chain_dag(registry, rng: Random) -> BlockDag:
    dag = BlockDag(registry)
    tips = []
    for builder in range(rng.randrange(1, 4)):
        prev = None
        for k in range(rng.randrange(1, 4)):
            preds = () if prev is None else (block_ref(prev),)
            extra = tuple(rng.sample(tips, min(len(tips), rng.randrange(0, 2))))
            block = signed_block(
                registry, builder, k, preds + extra, ((Label(builder, k), b"r"),)
            )
            dag.insert(block)
            prev = block
        tips.append(block_ref(prev))
    return dag


class TestInsertLemmaProperties:
    """Idempotence, extension, acyclicity of generic vertex insertion."""

    def test_random_insert_sequences(self):
        rng = Random(99)
        for _ in range(100):
            g = Digraph()
            order = []
            for v in range(rng.randrange(1, 12)):
                candidates = list(order)
                chosen = rng.sample(candidates, min(len(candidates), rng.randrange(0, 3)))
                edges = {(c, v) for c in chosen}
                g2 = g.insert(v, edges)
                assert extends(g, g2), "insertion must extend the graph"
                assert g2.is_acyclic(), "insertion must preserve acyclicity"
                g3 = g2.insert(v, edges)
                assert g3.vertices == g2.vertices and g3.edges == g2.edges, "idempotence"
                g = g2
                order.append(v)

    def test_union_of_digraphs(self):
        g1 = Digraph({1, 2}, {(1, 2)})
        g2 = Digraph({2, 3}, {(2, 3)})
        u = union(g1, g2)
        assert u.vertices == {1, 2, 3}
        assert u.edges == {(1, 2), (2, 3)}


class TestBlockDagInsertProperties:
    def test_random_valid_insert_sequences_stay_acyclic_and_closed(self, registry):
        rng = Random(77)
        for _ in range(60):
            dag = _random_chain_dag(registry, rng)
            check_dag(dag)  # closure + acyclicity walk
            assert extends(dag, dag)


class TestMutualRefExclusion:
    def test_cycle_construction_impossible(self, registry):
        # referencing a block forces the referencing block's hash to differ
        # from anything the referenced block could have listed
        rng = Random(3)
        for i in range(50):
            b1 = signed_block(registry, 0, 0, requests=((Label(0, i), b"a"),))
            b2 = signed_block(registry, 1, 0, (block_ref(b1),))
            # the attack: craft a block that references b2 and hope its ref
            # matches what b2 already points at
            attack = signed_block(
                registry, 0, 0, (block_ref(b2),), ((Label(0, rng.randrange(1 << 30)), b"x"),)
            )
            assert block_ref(attack) != block_ref(b1)
            assert block_ref(attack) not in {p for p in b2.preds}


class TestBlockValue:
    """A block is its five fields: the ref, wire bytes and signature check it
    keeps are not among them."""

    def test_five_fields(self):
        names = [f.name for f in dataclasses.fields(Block)]
        assert names == ["builder", "seqno", "preds", "requests", "signature"]

    def test_equality_hash_and_repr_ignore_kept_facts(self, registry):
        block = signed_block(registry, 1, 2, (bytes(32),), ((Label(1, 1), b"zz"),))
        bare = Block(block.builder, block.seqno, block.preds, block.requests, block.signature)
        decoded = block_from_wire(block_to_wire(block))
        assert BlockDag(registry).signature_verifies(decoded)

        def kept(b):
            return set(b.__dict__) - {f.name for f in dataclasses.fields(Block)}

        assert (kept(bare), kept(block), kept(decoded)) == (
            set(), {"ref", "_wire"}, {"ref", "_wire", "_verified_by"}
        )
        for other in (block, decoded):
            assert other == bare and hash(other) == hash(bare) and repr(other) == repr(bare)

    def test_distinct_preds_kept_on_the_block_and_on_a_resigned_copy(self, registry):
        a, b = bytes(32), bytes([1]) * 32
        block = signed_block(registry, 1, 2, (a, b, a))
        bare = Block(block.builder, block.seqno, block.preds, block.requests, block.signature)
        distinct = block.distinct_preds()
        assert distinct == (a, b)
        assert block.distinct_preds() is distinct
        assert block.__dict__["_distinct_preds"] is distinct
        assert block == bare and hash(block) == hash(bare) and repr(block) == repr(bare)
        resigned = block.with_signature(Signature(SignatureScheme.HMAC_SHA256, b"\x00" * 32))
        assert resigned.distinct_preds() is distinct
        assert resigned.ref == block.ref


class TestWireCodec:
    def test_round_trip(self, registry):
        dag, (b1, b2, b3) = fig_pair_dag(registry)
        for block in (b1, b2, b3):
            assert block_from_wire(block_to_wire(block)) == block

    def test_round_trip_with_requests(self, registry):
        block = signed_block(
            registry, 2, 7, (), ((Label(2, 1), b"\x00\x01"), (Label(0, 2), b""))
        )
        assert block_from_wire(block_to_wire(block)) == block

    @pytest.mark.parametrize(
        "head",
        [bytes([ENCODING_VERSION, 0x11]), bytes([ENCODING_VERSION + 1, 0x10])],
        ids=["message-tag", "wrong-version"],
    )
    def test_request_label_must_be_a_label_encoding(self, registry, head):
        label = Label(2, 1)
        encoded = label.canonical_bytes()
        wire = block_to_wire(signed_block(registry, 2, 7, (), ((label, b"\x00"),)))
        assert wire.count(encoded) == 1
        with pytest.raises(EncodingError, match="bad label encoding"):
            block_from_wire(wire.replace(encoded, head + encoded[2:]))

    def test_unsigned_block_refuses_wire(self):
        with pytest.raises(EncodingError):
            block_to_wire(Block(0, 0, (), ()))

    @pytest.mark.parametrize("mangle", [lambda b: b[:-1], lambda b: b + b"\x00", lambda b: b"\xff" + b[1:]])
    def test_corrupted_bytes_rejected(self, registry, mangle):
        wire = block_to_wire(signed_block(registry, 0, 0))
        with pytest.raises(EncodingError):
            block_from_wire(mangle(wire))

    def test_random_corpus_round_trips(self, registry):
        rng = Random(13)
        pool = [block_ref(signed_block(registry, b, 0, requests=((Label(b, 77), b"p"),)))
                for b in range(4)]
        for i in range(200):
            preds = tuple(rng.choice(pool) for _ in range(rng.randrange(0, 4)))
            requests = tuple(
                (Label(rng.randrange(4), rng.randrange(1 << 20)),
                 bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 12))))
                for _ in range(rng.randrange(0, 3))
            )
            block = signed_block(registry, rng.randrange(4), rng.randrange(1 << 10), preds, requests)
            assert block_from_wire(block_to_wire(block)) == block


def to_dot(dag: BlockDag) -> str:
    """``render_dot`` over the summaries of every block in ``dag``."""
    return render_dot(
        [
            (ref.hex(), block.builder, block.seqno, [p.hex() for p in block.preds])
            for ref, block in ((ref, dag.get(ref)) for ref in dag.refs())
        ]
    )


class TestDot:
    def test_three_block_render(self, registry):
        dag, _ = fig_pair_dag(registry)
        dot = to_dot(dag)
        assert dot.count("label=") == 3
        assert dot.count("->") == 2

    def test_fork_render(self, registry):
        dag, (b1, b2, b3) = fig_pair_dag(registry)
        b4 = signed_block(
            registry, 0, 1, (block_ref(b1), block_ref(b2)), ((Label(0, 9), b"y"),)
        )
        dag.insert(b4)
        dot = to_dot(dag)
        assert dot.count("label=") == 4
        assert dot.count("->") == 4

    def test_deterministic_output(self, registry):
        dag, _ = fig_pair_dag(registry)
        assert to_dot(dag) == to_dot(dag)

    def test_parent_edges_bold(self, registry):
        registry4 = registry
        g = signed_block(registry4, 0, 0)
        child = signed_block(registry4, 0, 1, (block_ref(g),))
        dag = BlockDag(registry4)
        dag.insert(g)
        dag.insert(child)
        assert "[style=bold];" in to_dot(dag)
