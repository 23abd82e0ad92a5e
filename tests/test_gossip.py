"""Gossip node: buffering, promotion, FWD recovery, dissemination."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagbft import gossip
from dagbft.blockdag import Block, BlockDag, block_from_wire, block_ref, block_to_wire
from dagbft.crypto import EncodingError, Signature, SignatureScheme, content_digest
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


ENVELOPE_HEAD_SIZE = 10  # version, kind, sender, receiver


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

    def test_pending_cap_evicts_oldest_and_names_it(self, registry, monkeypatch):
        monkeypatch.setattr(gossip, "PENDING_CAP_PER_BUILDER", 2)
        node = make_node(registry)
        blocks = [
            signed_block(registry, 1, k + 1, (block_ref(signed_block(registry, 1, 0)),), ((Label(1, k), b"x"),))
            for k in range(3)
        ]
        assert [node.on_receive_block(b) for b in blocks] == [
            Disposition.BUFFERED,
            Disposition.BUFFERED,
            block_ref(blocks[0]),
        ]
        assert list(node.pending) == [block_ref(b) for b in blocks[1:]]

    def test_eviction_takes_the_builders_own_oldest(self, registry, monkeypatch):
        # another builder's block arrived first and stays; each builder's
        # cap counts and evicts only its own blocks
        monkeypatch.setattr(gossip, "PENDING_CAP_PER_BUILDER", 2)
        node = make_node(registry)
        ones = [signed_block(registry, 1, 0, (), ((Label(1, k), b"x"),)) for k in range(3)]
        twos = [signed_block(registry, 2, 0, (), ((Label(2, k), b"y"),)) for k in range(3)]
        arrivals = [twos[0], ones[0], ones[1], twos[1], ones[2], twos[2]]
        assert [node.on_receive_block(b) for b in arrivals] == [
            Disposition.BUFFERED,
            Disposition.BUFFERED,
            Disposition.BUFFERED,
            Disposition.BUFFERED,
            block_ref(ones[0]),
            block_ref(twos[0]),
        ]
        assert list(node.pending) == [block_ref(b) for b in (ones[1], twos[1], ones[2], twos[2])]

    def test_eviction_drops_the_stamps_nothing_waits_on(self, registry, monkeypatch):
        # each block waits on a pred of its own and is requested; once it is
        # evicted, nothing waits on that pred and its FWD stamps go too
        monkeypatch.setattr(gossip, "PENDING_CAP_PER_BUILDER", 2)
        node = make_node(registry)
        ghosts = [signed_block(registry, 2, 0, (), ((Label(2, k), b"g"),)) for k in range(6)]
        for now, ghost in enumerate(ghosts):
            node.on_receive_block(signed_block(registry, 1, 0, (block_ref(ghost),), ((Label(1, now), b"x"),)))
            node.request_missing(now)
            assert set(node.fwd_clock) <= set(node._waiters)
        assert set(node.fwd_clock) == {block_ref(g) for g in ghosts[-2:]}


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

    def test_missing_list_is_kept_until_a_commit_or_a_buffered_block(self, registry):
        # an empty genesis block's ref is known before it is sealed, so a
        # commit can fill a missing pred
        node = make_node(registry)
        genesis = block_ref(signed_block(registry, 0, 0))
        parent = signed_block(registry, 2, 0)
        node.on_receive_block(signed_block(registry, 1, 0, (genesis,)))
        node.on_receive_block(signed_block(registry, 2, 1, (block_ref(parent),)))
        asks = node.missing_predecessors()
        assert sorted(asks) == sorted([(genesis, 1), (block_ref(parent), 2)])
        node.request_missing(now=0)
        assert node.missing_predecessors() == asks
        node.disseminate()  # the empty genesis block
        assert node.missing_predecessors() == [(block_ref(parent), 2)]
        node.on_receive_block(parent)
        assert node.missing_predecessors() == []

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

    def test_interval_ignores_forced_asks(self, registry):
        node = make_node(registry, fwd_interval=5)
        parent = signed_block(registry, 1, 0)
        child = signed_block(registry, 1, 1, (block_ref(parent),))
        node.on_receive_block(child)
        node.request_missing(now=0, force=True)
        assert len(node.request_missing(now=1)) == 1
        assert node.request_missing(now=2) == []

    def test_forced_ask_is_sent_once(self, registry):
        node = make_node(registry, fwd_interval=5)
        parent = signed_block(registry, 1, 0)
        missing = signed_block(registry, 3, 0)
        node.on_receive_block(signed_block(registry, 1, 1, (block_ref(parent),)))
        assert len(node.request_missing(now=0, force=True)) == 1
        node.on_receive_block(signed_block(registry, 2, 0, (block_ref(missing),)))
        envs = node.request_missing(now=1, force=True)  # only the new pair
        assert [(e.ref, e.receiver) for e in envs] == [(block_ref(missing), 2)]
        for now in (2, 5, 6, 1_000):
            assert node.request_missing(now=now, force=True) == []

    def test_forced_ask_rearmed_only_when_the_asked_block_is_evicted(
        self, registry, monkeypatch
    ):
        monkeypatch.setattr(gossip, "PENDING_CAP_PER_BUILDER", 1)
        node = make_node(registry)
        asked = signed_block(registry, 1, 0, (), ((Label(1, 0), b"a"),))
        fork = signed_block(registry, 1, 0, (), ((Label(1, 0), b"b"),))
        w1, w2 = (
            signed_block(registry, 2, 0, (block_ref(asked),), ((Label(2, k), b"w"),))
            for k in range(2)
        )
        node.on_receive_block(w1)
        assert [e.ref for e in node.request_missing(now=0, force=True)] == [block_ref(asked)]
        # the waiter is evicted and another waits on the same ref: no new ask
        assert node.on_receive_block(w2) == block_ref(w1)
        assert node.request_missing(now=1, force=True) == []
        # the asked block arrives, so nothing is missing, and then is evicted
        node.on_receive_block(asked)
        assert node.request_missing(now=2, force=True) == []
        assert node.on_receive_block(fork) == block_ref(asked)
        envs = node.request_missing(now=3, force=True)
        assert [(e.ref, e.receiver) for e in envs] == [(block_ref(asked), 2)]
        assert node.request_missing(now=4, force=True) == []

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

    def test_fwd_reply_carries_the_bytes_that_arrived(self, registry):
        node = make_node(registry, server=0)
        sent = WireEnvelope(BLOCK_ENVELOPE, 1, 0, block=signed_block(registry, 1, 0)).encode()
        arrived = WireEnvelope.decode(sent).block
        node.on_receive_block(arrived)
        assert node.try_promote() == [arrived]
        reply = node.on_fwd_request(block_ref(arrived), 2)
        assert reply.block is arrived
        assert reply.encode()[ENVELOPE_HEAD_SIZE:] == sent[ENVELOPE_HEAD_SIZE:]

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

    def test_resigned_block_encodes_its_own_signature(self, registry):
        block = signed_block(registry, 1, 0, requests=((Label(1, 1), b"zz"),))
        wire = block_to_wire(block)  # kept on the block from here on
        forged = block.with_signature(Signature(SignatureScheme.HMAC_SHA256, bytes(32)))
        assert forged.ref == block.ref
        assert block_to_wire(forged) != wire
        assert block_from_wire(block_to_wire(forged)).signature == forged.signature
        assert block_to_wire(block) == wire

    def test_wire_size_is_the_encoded_length(self, registry):
        block = signed_block(registry, 1, 0, requests=((Label(1, 1), b"zz"),))
        for env in (
            WireEnvelope(BLOCK_ENVELOPE, 1, 3, block=block),
            WireEnvelope(FWD_ENVELOPE, 0, 2**32 - 1, ref=block_ref(block)),
        ):
            assert env.wire_size() == len(env.encode())

    def test_envelope_is_a_tuple_of_its_fields(self, registry):
        ref = block_ref(signed_block(registry, 0, 0))
        env = WireEnvelope(FWD_ENVELOPE, 0, 2, ref=ref)
        assert tuple(env) == (FWD_ENVELOPE, 0, 2, None, ref)
        assert env == WireEnvelope(FWD_ENVELOPE, 0, 2, None, ref)
        assert env != WireEnvelope(FWD_ENVELOPE, 0, 3, ref=ref)
        assert hash(env) == hash(WireEnvelope(FWD_ENVELOPE, 0, 2, ref=ref))

    @pytest.mark.parametrize(
        "env",
        [
            WireEnvelope(BLOCK_ENVELOPE, 1, 3),  # no block
            WireEnvelope(BLOCK_ENVELOPE, 1, 3, ref=bytes(32)),  # a ref, no block
            WireEnvelope(FWD_ENVELOPE, 1, 3),  # no ref
            WireEnvelope(FWD_ENVELOPE, 1, 3, ref=bytes(31)),
            WireEnvelope(FWD_ENVELOPE, 1, 3, ref=bytes(33)),
            WireEnvelope(FWD_ENVELOPE, 1, 3, ref=""),
            WireEnvelope(3, 1, 3, ref=bytes(32)),  # an unknown kind
        ],
        ids=["block-none", "block-ref-only", "fwd-none", "fwd-31", "fwd-33", "fwd-str", "kind-3"],
    )
    def test_envelope_without_its_body_raises_encoding_error(self, env):
        # encoding must not give bytes that decode rejects, nor an assert's
        # error, which ``python -O`` strips
        with pytest.raises(EncodingError):
            env.encode()
        with pytest.raises(EncodingError):
            env.wire_size()

    @pytest.mark.parametrize("sender, receiver", [(-1, 0), (2**32, 0), (0, -1), (0, 2**32), (0, 1.5)])
    def test_header_out_of_range_raises_encoding_error(self, sender, receiver):
        env = WireEnvelope(FWD_ENVELOPE, sender, receiver, ref=bytes(32))
        with pytest.raises(EncodingError):
            env.encode()

    def test_encoding_errors_hold_without_asserts(self):
        # the same checks under ``python -O``, which drops assert statements
        code = (
            "from dagbft.crypto import EncodingError\n"
            "from dagbft.gossip import BLOCK_ENVELOPE, FWD_ENVELOPE, WireEnvelope\n"
            "for env in (WireEnvelope(BLOCK_ENVELOPE, 1, 3), WireEnvelope(FWD_ENVELOPE, 1, 3)):\n"
            "    for method in (env.encode, env.wire_size):\n"
            "        try:\n"
            "            method()\n"
            "        except EncodingError:\n"
            "            continue\n"
            "        raise SystemExit('no EncodingError')\n"
        )
        src = str(Path(gossip.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

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
                decoded = WireEnvelope.decode(mutant)
            except EncodingError:
                continue
            # the codec is canonical: what decodes re-encodes to itself, so
            # hashing the received core bytes gives the ref a fresh copy has
            assert decoded.encode() == mutant
            if decoded.kind == BLOCK_ENVELOPE:
                got = decoded.block
                fresh = Block(got.builder, got.seqno, got.preds, got.requests)
                assert got.ref == content_digest(fresh.core_bytes())
                assert block_to_wire(got) == mutant[ENVELOPE_HEAD_SIZE:]
                assert block_to_wire(fresh.with_signature(got.signature)) == block_to_wire(got)


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
    def test_shuffled_arrivals(self, seed, monkeypatch):
        rng = Random(seed)
        cap = rng.choice((2, 3, 1024))
        monkeypatch.setattr(gossip, "PENDING_CAP_PER_BUILDER", cap)
        # equal keys, two registry objects: the oracle verifies on its own
        node = make_node(make_registry())
        oracle = RescanPromoter(BlockDag(make_registry()))
        pool = block_pool(rng, make_registry())
        forged = [
            b.with_signature(Signature(SignatureScheme.HMAC_SHA256, bytes(32)))
            for b in rng.sample(pool, 3)
        ]
        arrivals = pool + rng.sample(pool, len(pool) // 2) + forged
        rng.shuffle(arrivals)
        arrivals += pool  # re-delivers whatever was evicted
        evicted = set()
        for now, block in enumerate(arrivals):
            outcome = node.on_receive_block(block)
            assert getattr(outcome, "value", outcome) == oracle.on_receive_block(block)
            if isinstance(outcome, bytes):
                evicted.add(block.builder)
            if rng.random() < 0.3:
                promoted = [block_ref(b) for b in node.try_promote()]
                assert promoted == [block_ref(b) for b in oracle.try_promote()]
            node.request_missing(now)
            assert set(node.fwd_clock) <= set(node._waiters)
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
