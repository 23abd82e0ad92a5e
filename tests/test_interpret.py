"""Interpretation of the DAG: order, buffer contents, determinism."""

from __future__ import annotations

from random import Random

import pytest

from dagbft.blockdag import BlockDag, block_ref
from dagbft.brb import (
    ECHO,
    READY,
    ReliableBroadcast,
    decode_deliver,
    encode_broadcast,
    encode_payload,
)
from dagbft.interpret import InterpretError, Interpreter, _Slot
from dagbft.protocol import Label, Message

from .oracles import debug_oracles, interpret_in_random_order, live_labels
from .util import buffers, fig_pair_dag, lockstep_dag, make_registry, signed_block

N, F = 4, 1
L1 = Label(0, 1)


@pytest.fixture
def registry():
    return make_registry()


def protocol() -> ReliableBroadcast:
    return ReliableBroadcast(N, F)


def broadcast_fixture(registry, rounds: int):
    """Lockstep DAG with broadcast(42) for label L1 in server 0's genesis."""
    return lockstep_dag(
        registry, N, rounds, {(0, 0): ((L1, encode_broadcast(42)),)}
    )


class TestBroadcastRounds:
    """The canonical buffer picture for a broadcast riding the first block."""

    def test_round_zero_emits_echo_to_all(self, registry):
        dag, blocks = broadcast_fixture(registry, rounds=1)
        reports = Interpreter(dag, protocol()).run_to_fixpoint()
        fed, emitted = buffers(reports, block_ref(blocks[(0, 0)]), L1)
        assert fed == ()
        assert set(emitted) == {Message(0, r, encode_payload(ECHO, 42)) for r in range(N)}

    def test_round_one_receivers_relay_the_echo(self, registry):
        dag, blocks = broadcast_fixture(registry, rounds=2)
        reports = Interpreter(dag, protocol()).run_to_fixpoint()
        for server in (1, 2, 3):
            fed, emitted = buffers(reports, block_ref(blocks[(server, 1)]), L1)
            assert fed == (Message(0, server, encode_payload(ECHO, 42)),)
            assert set(emitted) == {
                Message(server, r, encode_payload(ECHO, 42)) for r in range(N)
            }

    def test_originator_round_one_hears_itself_but_stays_quiet(self, registry):
        # the echoed guard suppresses a second echo on the originator's chain
        dag, blocks = broadcast_fixture(registry, rounds=2)
        reports = Interpreter(dag, protocol()).run_to_fixpoint()
        fed, emitted = buffers(reports, block_ref(blocks[(0, 1)]), L1)
        assert fed == (Message(0, 0, encode_payload(ECHO, 42)),)
        assert emitted == ()

    def test_round_two_emits_ready_after_quorum(self, registry):
        dag, blocks = broadcast_fixture(registry, rounds=3)
        reports = Interpreter(dag, protocol()).run_to_fixpoint()
        for server in range(N):
            _, emitted = buffers(reports, block_ref(blocks[(server, 2)]), L1)
            assert set(emitted) == {
                Message(server, r, encode_payload(READY, 42)) for r in range(N)
            }

    def test_round_three_delivers_everywhere_once(self, registry):
        dag, _ = broadcast_fixture(registry, rounds=4)
        it = Interpreter(dag, protocol())
        it.run_to_fixpoint()
        delivered = [
            (ind.on_behalf_of, decode_deliver(ind.payload))
            for ind in it.take_indications()
        ]
        assert sorted(delivered) == [(s, 42) for s in range(N)]


class TestFixpoint:
    def test_interprets_whole_dag_in_dependency_order(self, registry):
        dag, (b1, b2, b3) = fig_pair_dag(registry)
        it = Interpreter(dag, protocol())
        reports = it.run_to_fixpoint()
        order = [r.ref for r in reports]
        assert len(order) == 3
        assert order.index(block_ref(b3)) == 2

    def test_second_run_is_a_no_op(self, registry):
        dag, _ = fig_pair_dag(registry)
        it = Interpreter(dag, protocol())
        assert len(it.run_to_fixpoint()) == 3
        assert it.run_to_fixpoint() == []

    def test_incremental_growth(self, registry):
        dag, blocks = broadcast_fixture(registry, rounds=2)
        it = Interpreter(dag, protocol())
        assert len(it.run_to_fixpoint()) == 8
        nxt = signed_block(
            registry, 0, 2, (block_ref(blocks[(0, 1)]), block_ref(blocks[(1, 1)]))
        )
        dag.insert(nxt)
        assert [r.ref for r in it.run_to_fixpoint()] == [block_ref(nxt)]


class TestEquivocationSplitsState:
    def test_forks_interpret_independently(self, registry):
        dag, (b1, b2, b3) = fig_pair_dag(registry)
        # fork of b3 carrying a broadcast request; b3 carries none
        fork = signed_block(
            registry,
            0,
            1,
            (block_ref(b1), block_ref(b2)),
            ((L1, encode_broadcast(42)),),
        )
        dag.insert(fork)
        it = Interpreter(dag, protocol())
        reports = it.run_to_fixpoint()
        assert buffers(reports, block_ref(fork), L1)[1] != ()
        assert buffers(reports, block_ref(b3), L1)[1] == ()
        assert it.state_digest(block_ref(fork), L1) != it.state_digest(block_ref(b3), L1)


class TestStateDigests:
    def test_uninterpreted_block_errors(self, registry):
        dag, (b1, _, _) = fig_pair_dag(registry)
        it = Interpreter(dag, protocol())
        with pytest.raises(InterpretError):
            it.state_digest(block_ref(b1), L1)

    def test_two_interpreters_agree_everywhere(self, registry):
        dag, _ = broadcast_fixture(registry, rounds=3)
        a = Interpreter(dag, protocol())
        b = Interpreter(dag, protocol())
        a.run_to_fixpoint()
        b.run_to_fixpoint()
        for ref in dag.refs():
            for label in live_labels(dag, ref):
                assert a.state_digest(ref, label) == b.state_digest(ref, label)

    def test_prefix_dag_agrees_with_extension(self, registry):
        small, blocks = broadcast_fixture(registry, rounds=2)
        big, _ = broadcast_fixture(registry, rounds=4)
        a = Interpreter(small, protocol())
        b = Interpreter(big, protocol())
        a.run_to_fixpoint()
        b.run_to_fixpoint()
        for ref in small.refs():
            for label in live_labels(small, ref):
                assert a.state_digest(ref, label) == b.state_digest(ref, label)

    def test_random_selection_order_agrees(self, registry):
        dag, _ = broadcast_fixture(registry, rounds=4)
        base = Interpreter(dag, protocol())
        base.run_to_fixpoint()
        orders = set()
        for seed in range(5):
            other = Interpreter(dag, protocol())
            orders.add(tuple(r.ref for r in interpret_in_random_order(other, Random(seed))))
            assert other.run_to_fixpoint() == []
            for ref in dag.refs():
                for label in live_labels(dag, ref):
                    assert base.state_digest(ref, label) == other.state_digest(ref, label)
        assert len(orders) > 1


class TestGrowingDag:
    def test_repeated_calls_match_one_call_on_the_final_dag(self, registry):
        final, blocks = broadcast_fixture(registry, rounds=5)
        # within the second and third batch, blocks depend on each other
        batches = [
            [(0, 0), (1, 0)],
            [(2, 0), (3, 0)] + [(s, 1) for s in range(N)],
            [(s, k) for k in (2, 3) for s in range(N)],
            [(s, 4) for s in range(N)],
        ]
        dag = BlockDag(registry)
        grown = Interpreter(dag, protocol())
        grown_reports = []
        with debug_oracles():
            for batch in batches:
                for key in batch:
                    dag.insert(blocks[key])
                grown_reports += grown.run_to_fixpoint()
                assert sorted(r.ref for r in grown_reports) == sorted(dag.refs())
        assert sorted(r.ref for r in grown_reports) == sorted(final.refs())

        once = Interpreter(final, protocol())
        once_reports = once.run_to_fixpoint()
        for ref in final.refs():
            for label in live_labels(final, ref):
                assert grown.state_digest(ref, label) == once.state_digest(ref, label)
                assert buffers(grown_reports, ref, label) == buffers(once_reports, ref, label)
        assert len(grown.take_indications()) == len(once.take_indications()) == 4


class TestByzantineInputs:
    def test_garbage_request_skipped_and_counted(self, registry):
        dag = BlockDag(registry)
        block = signed_block(
            registry, 0, 0, requests=((L1, b"\x01"), (L1, encode_broadcast(42)))
        )
        dag.insert(block)
        reports = Interpreter(dag, protocol()).run_to_fixpoint()
        assert [r.ref for r in reports] == [block_ref(block)]
        (act,) = reports[0].labels
        assert act.skipped_requests == 1
        # the well-formed request still went through
        assert act.emitted != ()

    def test_duplicated_pred_refs_absorbed(self, registry):
        dag, blocks = broadcast_fixture(registry, rounds=1)
        g0 = blocks[(0, 0)]
        g1 = blocks[(1, 0)]
        doubled = signed_block(
            registry,
            1,
            1,
            (block_ref(g1), block_ref(g0), block_ref(g0)),
        )
        dag.insert(doubled)
        reports = Interpreter(dag, protocol()).run_to_fixpoint()
        fed, _ = buffers(reports, block_ref(doubled), L1)
        assert fed == (Message(0, 1, encode_payload(ECHO, 42)),)


class TestLiveLabelSoundness:
    def test_nonempty_out_buffers_have_a_request_ancestor(self, registry):
        dag, _ = broadcast_fixture(registry, rounds=3)
        reports = Interpreter(dag, protocol()).run_to_fixpoint()
        emitting = [(r.ref, act.label) for r in reports for act in r.labels if act.emitted]
        assert emitting
        for ref, label in emitting:
            assert label == L1
            assert label in live_labels(dag, ref)


class TestDebugChecks:
    def test_debug_assertions_hold_on_normal_runs(self, registry):
        dag, blocks = broadcast_fixture(registry, rounds=3)
        with debug_oracles():
            it = Interpreter(dag, protocol())
            it.run_to_fixpoint()
            # growing the dag and re-running keeps the frozen slots intact
            nxt = signed_block(registry, 0, 3, (block_ref(blocks[(0, 2)]),))
            dag.insert(nxt)
            assert len(it.run_to_fixpoint()) == 1

    def test_mutated_slot_is_caught(self, registry):
        dag, blocks = broadcast_fixture(registry, rounds=3)
        ref = block_ref(blocks[(1, 1)])
        with debug_oracles():
            it = Interpreter(dag, protocol())
            it.run_to_fixpoint()
            it._slots[ref].instances[L1].echo_senders[42].add(3)
            dag.insert(signed_block(registry, 0, 3, (block_ref(blocks[(0, 2)]),)))
            with pytest.raises(AssertionError, match=f"{ref.hex()[:12]} was modified"):
                it.run_to_fixpoint()

    def test_slot_written_before_its_block_is_caught(self, registry):
        dag, (_, _, b3) = fig_pair_dag(registry)
        ref = block_ref(b3)
        with debug_oracles():
            it = Interpreter(dag, protocol())
            it._slots[ref] = _Slot({}, {})
            with pytest.raises(AssertionError, match=f"{ref.hex()[:12]} already populated"):
                it.run_to_fixpoint()

    def test_oracles_restore_the_methods_even_on_a_violation(self):
        def wrapped():
            return BlockDag.insert, Interpreter._interpret_block, Interpreter.run_to_fixpoint

        originals = wrapped()
        with pytest.raises(ZeroDivisionError), debug_oracles():
            assert all(now is not was for now, was in zip(wrapped(), originals))
            1 / 0
        assert wrapped() == originals

    def test_indications_drain_once(self, registry):
        dag, _ = broadcast_fixture(registry, rounds=4)
        it = Interpreter(dag, protocol())
        it.run_to_fixpoint()
        assert len(it.take_indications()) == 4
        assert it.take_indications() == []

