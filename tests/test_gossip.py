"""Gossip node: buffering, promotion, FWD recovery, dissemination."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagbft.blockdag import BlockDag, block_ref
from dagbft.crypto import EncodingError, Signature, SignatureScheme
from dagbft.gossip import (
    BLOCK_ENVELOPE,
    FWD_ENVELOPE,
    MAX_REQUESTS_PER_BLOCK,
    Disposition,
    GossipNode,
    WireEnvelope,
)
from dagbft.protocol import Label

from .oracles import RescanPromoter, dag_graph
from .util import make_registry, signed_block


@pytest.fixture
def registry():
    return make_registry()


def make_node(registry, server=0, **kwargs) -> GossipNode:
    return GossipNode(server, registry, **kwargs)


class TestReceive:
    def test_fresh_block_buffered(self, registry):
        node = make_node(registry)
        block = signed_block(registry, 1, 0)
        assert node.on_receive_block(block) == Disposition.BUFFERED
        assert block_ref(block) in node.pending

    def test_block_already_in_dag_ignored(self, registry):
        node = make_node(registry)
        own, _ = node.disseminate()
        assert node.on_receive_block(own) == Disposition.ALREADY_KNOWN
        assert not node.pending

    def test_duplicate_receive_kept_once(self, registry):
        node = make_node(registry)
        block = signed_block(registry, 1, 0)
        node.on_receive_block(block)
        assert node.on_receive_block(block) == Disposition.ALREADY_KNOWN
        assert len(node.pending) == 1

    def test_bad_signature_rejected(self, registry):
        node = make_node(registry)
        block = signed_block(registry, 1, 0).with_signature(
            Signature(SignatureScheme.HMAC_SHA256, b"\x00" * 32)
        )
        assert node.on_receive_block(block) == Disposition.BAD_SIGNATURE
        assert not node.pending

    def test_pending_cap_evicts_oldest(self, registry):
        node = make_node(registry, pending_cap_per_builder=2)
        blocks = [
            signed_block(registry, 1, k + 1, (block_ref(signed_block(registry, 1, 0)),), ((Label(1, k), b"x"),))
            for k in range(3)
        ]
        assert [node.on_receive_block(b) for b in blocks] == [
            Disposition.BUFFERED,
            Disposition.BUFFERED,
            Disposition.EVICTED_OLDEST,
        ]
        assert len(node.pending) == 2
        assert block_ref(blocks[0]) not in node.pending


class TestPromotion:
    def test_promotes_when_preds_present(self, registry):
        node = make_node(registry)
        b1 = signed_block(registry, 1, 0)
        b2 = signed_block(registry, 2, 0)
        node.on_receive_block(b1)
        node.on_receive_block(b2)
        child = signed_block(registry, 1, 1, (block_ref(b1), block_ref(b2)))
        node.on_receive_block(child)
        promoted = node.try_promote()
        assert [block_ref(b) for b in promoted][:2] == sorted([block_ref(b1), block_ref(b2)])
        assert block_ref(child) in node.dag
        assert not node.pending

    def test_promoted_refs_enter_the_draft(self, registry):
        node = make_node(registry)
        b1 = signed_block(registry, 1, 0)
        node.on_receive_block(b1)
        node.try_promote()
        block, _ = node.disseminate()
        assert block.preds == (block_ref(b1),)

    def test_child_before_parent_stays_pending(self, registry):
        node = make_node(registry)
        parent = signed_block(registry, 1, 0)
        child = signed_block(registry, 1, 1, (block_ref(parent),))
        node.on_receive_block(child)
        assert node.try_promote() == []
        assert block_ref(child) in node.pending

    def test_cascade_in_one_call(self, registry):
        node = make_node(registry)
        parent = signed_block(registry, 1, 0)
        child = signed_block(registry, 1, 1, (block_ref(parent),))
        node.on_receive_block(child)
        node.try_promote()
        node.on_receive_block(parent)
        promoted = node.try_promote()
        assert [b.seqno for b in promoted] == [0, 1]

    def test_own_block_releases_blocks_waiting_on_it(self, registry):
        # an empty genesis block's ref is known before it is sealed
        node = make_node(registry)
        child = signed_block(registry, 1, 0, (block_ref(signed_block(registry, 0, 0)),))
        node.on_receive_block(child)
        assert node.try_promote() == []
        node.disseminate()
        assert node.try_promote() == [child]

    def test_ref_never_referenced_twice(self, registry):
        # once promoted into the DAG, a block cannot re-enter the draft
        node = make_node(registry)
        b1 = signed_block(registry, 1, 0)
        node.on_receive_block(b1)
        node.try_promote()
        node.on_receive_block(b1)  # replayed by a byzantine peer
        node.try_promote()
        first, _ = node.disseminate()
        node.on_receive_block(b1)
        node.try_promote()
        second, _ = node.disseminate()
        all_preds = list(first.preds) + list(second.preds)
        assert all_preds.count(block_ref(b1)) == 1


class TestForwardRequests:
    def test_missing_pred_requested_once(self, registry):
        node = make_node(registry)
        parent = signed_block(registry, 1, 0)
        child = signed_block(registry, 1, 1, (block_ref(parent),))
        node.on_receive_block(child)
        envs = node.request_missing(now=0)
        assert len(envs) == 1
        assert envs[0].kind == FWD_ENVELOPE
        assert envs[0].receiver == 1  # builder of the referencing block
        assert envs[0].ref == block_ref(parent)

    def test_within_interval_suppressed(self, registry):
        node = make_node(registry, fwd_interval=5)
        parent = signed_block(registry, 1, 0)
        child = signed_block(registry, 1, 1, (block_ref(parent),))
        node.on_receive_block(child)
        assert len(node.request_missing(now=0)) == 1
        assert node.request_missing(now=3) == []
        assert len(node.request_missing(now=5)) == 1

    def test_force_bypasses_interval(self, registry):
        node = make_node(registry, fwd_interval=5)
        parent = signed_block(registry, 1, 0)
        child = signed_block(registry, 1, 1, (block_ref(parent),))
        node.on_receive_block(child)
        node.request_missing(now=0)
        assert len(node.request_missing(now=1, force=True)) == 1

    def test_shared_missing_pred_requested_once_per_interval(self, registry):
        node = make_node(registry)
        parent = signed_block(registry, 1, 0)
        c1 = signed_block(registry, 1, 1, (block_ref(parent),))
        c2 = signed_block(registry, 1, 1, (block_ref(parent),), ((Label(1, 5), b"v"),))
        node.on_receive_block(c1)
        node.on_receive_block(c2)
        assert len(node.request_missing(now=0)) == 1

    def test_each_referencing_builder_is_asked(self, registry):
        # a second builder referencing the same missing block is an
        # independent responder; one unresponsive builder must not wedge
        # recovery
        node = make_node(registry)
        missing = signed_block(registry, 3, 0)
        c1 = signed_block(registry, 1, 0, (block_ref(missing),))
        c2 = signed_block(registry, 2, 0, (block_ref(missing),))
        node.on_receive_block(c1)
        node.on_receive_block(c2)
        envs = node.request_missing(now=0)
        assert sorted(e.receiver for e in envs) == [1, 2]
        assert {e.ref for e in envs} == {block_ref(missing)}

    def test_fwd_answered_when_block_known(self, registry):
        node = make_node(registry)
        own, _ = node.disseminate()
        reply = node.on_fwd_request(block_ref(own), requester=2)
        assert reply is not None
        assert reply.kind == BLOCK_ENVELOPE
        assert reply.receiver == 2
        assert reply.block == own

    def test_fwd_for_unknown_ref_unanswered(self, registry):
        node = make_node(registry)
        ghost = block_ref(signed_block(registry, 3, 0))
        assert node.on_fwd_request(ghost, requester=2) is None

    def test_fwd_is_stateless_per_request(self, registry):
        node = make_node(registry)
        own, _ = node.disseminate()
        for _ in range(3):
            assert node.on_fwd_request(block_ref(own), requester=2) is not None


class TestDisseminate:
    def test_first_block_is_genesis_with_drained_requests(self, registry):
        node = make_node(registry)
        node.requests.append((Label(0, 1), b"\x00" * 8))
        block, envelopes = node.disseminate()
        assert block.seqno == 0
        assert block.preds == ()
        assert block.requests == ((Label(0, 1), b"\x00" * 8),)
        assert [e.receiver for e in envelopes] == list(range(registry.server_count))

    def test_next_draft_chains_on_previous(self, registry):
        node = make_node(registry)
        first, _ = node.disseminate()
        second, _ = node.disseminate()
        assert second.seqno == 1
        assert second.preds == (block_ref(first),)

    def test_own_blocks_always_valid(self, registry):
        node = make_node(registry)
        for _ in range(4):
            block, _ = node.disseminate()
            assert node.dag.is_valid(block)

    def test_drain_respects_per_block_cap(self, registry):
        node = make_node(registry)
        for i in range(MAX_REQUESTS_PER_BLOCK + 2):
            node.requests.append((Label(0, i), bytes(8)))
        first, _ = node.disseminate()
        second, _ = node.disseminate()
        assert len(first.requests) == MAX_REQUESTS_PER_BLOCK
        assert len(second.requests) == 2
        assert [label.nonce for label, _ in first.requests] == list(range(MAX_REQUESTS_PER_BLOCK))

    def test_empty_buffer_gives_empty_requests(self, registry):
        node = make_node(registry)
        block, _ = node.disseminate()
        assert block.requests == ()

    def test_seal_signs_without_committing(self, registry):
        node = make_node(registry)
        first, _ = node.disseminate()
        preds = (block_ref(first), block_ref(first))
        a = node.seal(((Label(0, 1), b"a"),), preds)
        b = node.seal(((Label(0, 1), b"b"),), preds)
        assert (a.seqno, a.preds) == (b.seqno, b.preds) == (1, preds)
        assert block_ref(a) != block_ref(b)
        assert node.dag.is_valid(a) and node.dag.is_valid(b)
        assert block_ref(a) not in node.dag and block_ref(b) not in node.dag
        assert (node.next_seqno, list(node.draft_preds)) == (1, [block_ref(first)])


class TestEnvelopeCodec:
    def test_block_envelope_round_trip(self, registry):
        block = signed_block(registry, 1, 0, requests=((Label(1, 1), b"zz"),))
        env = WireEnvelope(BLOCK_ENVELOPE, 1, 3, block=block)
        decoded = WireEnvelope.decode(env.encode())
        assert decoded == env

    def test_fwd_envelope_round_trip(self, registry):
        ref = block_ref(signed_block(registry, 0, 0))
        env = WireEnvelope(FWD_ENVELOPE, 0, 2, ref=ref)
        assert WireEnvelope.decode(env.encode()) == env

    def test_garbage_rejected(self):
        with pytest.raises(EncodingError):
            WireEnvelope.decode(b"\x01\x09\x00\x00")
        with pytest.raises(EncodingError):
            WireEnvelope.decode(b"")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_decode_raises_only_encoding_error(self, data):
        # a valid BLOCK or FWD envelope, then one drawn byte value written at
        # every position in turn, bytes cut off or added, and a few at once
        registry = make_registry()
        builder = data.draw(st.integers(0, 3))
        preds = tuple(
            block_ref(signed_block(registry, 0, k))
            for k in range(data.draw(st.integers(0, 3)))
        )
        requests = tuple(
            (Label(builder, nonce), payload)
            for nonce, payload in data.draw(
                st.lists(st.tuples(st.integers(0, 2**64 - 1), st.binary(max_size=12)), max_size=3)
            )
        )
        block = signed_block(registry, builder, data.draw(st.integers(0, 2**64 - 1)), preds, requests)
        env = data.draw(
            st.sampled_from(
                [
                    WireEnvelope(BLOCK_ENVELOPE, builder, 2, block=block),
                    WireEnvelope(FWD_ENVELOPE, builder, 2, ref=block_ref(block)),
                ]
            )
        )
        wire = env.encode()
        value = bytes([data.draw(st.integers(0, 255))])
        tail = data.draw(st.binary(max_size=8))
        mutants = [wire[:i] + value + wire[i + 1 :] for i in range(len(wire))]
        mutants += [wire[: data.draw(st.integers(0, len(wire)))] + tail, wire + tail]
        scrambled = bytearray(wire)
        for _ in range(data.draw(st.integers(2, 6))):
            scrambled[data.draw(st.integers(0, len(wire) - 1))] = data.draw(st.integers(0, 255))
        mutants.append(bytes(scrambled))
        for mutant in mutants:
            try:
                WireEnvelope.decode(mutant)
            except EncodingError:
                pass


def block_pool(rng: Random, registry, n: int = 4, size: int = 28):
    """Signed blocks by n builders, built so that arrival order matters:
    forks, doubled refs, blocks listing two parents or none, blocks listing
    a ref that is never delivered, and copies with a forged signature."""
    blocks = []
    for nonce in range(size):
        builder = rng.randrange(n)
        own = [b for b in blocks if b.builder == builder]
        requests = ((Label(builder, nonce), b"x"),)
        if not own or rng.random() < 0.1:
            blocks.append(signed_block(registry, builder, 0, (), requests))
            continue
        parent = rng.choice(own)  # a parent other than the tip forks
        seqno = parent.seqno + 1
        preds = [block_ref(parent)]
        preds += [block_ref(b) for b in rng.sample(blocks, min(len(blocks), rng.randrange(3)))]
        twins = [b for b in own if b.seqno == parent.seqno and b is not parent]
        roll = rng.random()
        if roll < 0.1 and twins:
            preds.append(block_ref(twins[0]))  # two parents: never valid
        elif roll < 0.2:
            preds = preds[1:]  # parent dropped and a seqno skipped: usually no parent
            seqno += 1
        elif roll < 0.3:
            preds += preds  # every ref twice
        elif roll < 0.4:
            ghost = signed_block(registry, builder, 0, (), ((Label(builder, 10_000 + nonce), b""),))
            preds.append(block_ref(ghost))  # never delivered
        blocks.append(signed_block(registry, builder, seqno, tuple(preds), requests))
    return blocks


class TestPromotionMatchesRescan:
    """The waiter index promotes exactly what a full rescan of the pending
    buffer promotes, in the same order, after every call."""

    @pytest.mark.parametrize("seed", range(40))
    def test_shuffled_arrivals(self, seed):
        rng = Random(seed)
        cap = rng.choice((2, 3, 1024))
        # equal keys, two registry objects: the oracle verifies on its own
        node = make_node(make_registry(), pending_cap_per_builder=cap)
        oracle = RescanPromoter(BlockDag(make_registry()), pending_cap_per_builder=cap)
        pool = block_pool(rng, make_registry())
        forged = [
            b.with_signature(Signature(SignatureScheme.HMAC_SHA256, bytes(32)))
            for b in rng.sample(pool, 3)
        ]
        arrivals = pool + rng.sample(pool, len(pool) // 2) + forged
        rng.shuffle(arrivals)
        arrivals += pool  # re-delivers whatever was evicted
        evicted = set()
        for block in arrivals:
            disposition = node.on_receive_block(block)
            assert disposition.value == oracle.on_receive_block(block)
            if disposition == Disposition.EVICTED_OLDEST:
                evicted.add(block.builder)
            if rng.random() < 0.3:
                promoted = [block_ref(b) for b in node.try_promote()]
                assert promoted == [block_ref(b) for b in oracle.try_promote()]
            assert list(node.pending) == list(oracle.pending)
            assert node.missing_predecessors() == oracle.missing_predecessors()
        assert [block_ref(b) for b in node.try_promote()] == [
            block_ref(b) for b in oracle.try_promote()
        ]
        assert list(node.pending) == list(oracle.pending)
        assert dag_graph(node.dag) == dag_graph(oracle.dag)
        assert node.missing_predecessors() == oracle.missing_predecessors()
        if cap == 2:
            assert evicted, "a cap of 2 must evict in this pool"
