"""Interpretation of the DAG: order, buffer contents, determinism."""

from __future__ import annotations

from random import Random

import pytest

from dagbft.blockdag import BlockDag, block_ref
from dagbft.brb import (
    ECHO,
    READY,
    BrbInstance,
    ReliableBroadcast,
    decode_deliver,
    encode_broadcast,
    encode_payload,
)
from dagbft.interpret import InterpretError, Interpreter, _Slot
from dagbft.protocol import Label, Message
from dagbft.simnet import run

from .oracles import (
    CloningInterpreter,
    debug_oracles,
    interpret_in_random_order,
    live_labels,
    slot_fingerprint,
)
from .scenarios import adversarial_scenario, fig_broadcast_scenario, random_scenario
from .util import (
    buffers,
    fig_pair_dag,
    indications,
    lockstep_dag,
    make_registry,
    signed_block,
)

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
        reports = Interpreter(dag, protocol()).run_to_fixpoint()
        delivered = [(server, decode_deliver(p)) for server, p in indications(reports)]
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


class TestStateDigestCoverage:
    """What ``state_digest`` covers: a block's instance, each flag and
    sender set of it included, and its out-buffer. Any change to one of
    them at a block changes the block's digest."""

    @staticmethod
    def digest_with(it: Interpreter, ref, instance, out) -> bytes:
        """The digest of (ref, L1) with the slot's L1 instance and out-buffer
        swapped for ``instance`` and ``out``."""
        slot = it._slots[ref]
        it._slots[ref] = _Slot({**slot.instances, L1: instance}, {**slot.out, L1: out})
        try:
            return it.state_digest(ref, L1)
        finally:
            it._slots[ref] = slot

    def test_flags_sender_sets_and_out_buffer_change_the_digest(self, registry):
        dag, _ = broadcast_fixture(registry, rounds=4)
        it = Interpreter(dag, protocol())
        it.run_to_fixpoint()
        changed = dict.fromkeys(["flag", "echo_senders", "ready_senders", "out"], 0)
        for ref in dag.refs():
            slot = it._slots[ref]
            if L1 not in slot.instances:
                continue
            inst, out = slot.instances[L1], slot.out.get(L1, ())
            digest = it.state_digest(ref, L1)
            assert self.digest_with(it, ref, inst.clone(), out) == digest
            for flag in ("echoed", "readied", "delivered"):
                flipped = inst.clone()
                setattr(flipped, flag, not getattr(inst, flag))
                assert self.digest_with(it, ref, flipped, out) != digest, flag
                changed["flag"] += 1
            for table in ("echo_senders", "ready_senders"):
                for value in {42, *getattr(inst, table)}:  # 42, the value broadcast
                    for sender in set(range(N)) - getattr(inst, table).get(value, set()):
                        grown = inst.clone()
                        getattr(grown, table).setdefault(value, set()).add(sender)
                        assert self.digest_with(it, ref, grown, out) != digest, table
                        changed[table] += 1
            for i in range(len(out)):
                dropped = out[:i] + out[i + 1 :]
                assert self.digest_with(it, ref, inst, dropped) != digest
                changed["out"] += 1
        assert all(changed.values()), changed


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
        assert sorted(indications(grown_reports)) == sorted(indications(once_reports))
        assert len(indications(once_reports)) == 4


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

    def test_mutated_slot_taken_from_a_shared_store_is_caught(self, registry):
        # the later interpreter computes nothing itself: every slot it holds
        # comes from the store, fingerprinted when the first one computed it
        dag, blocks = broadcast_fixture(registry, rounds=3)
        ref = block_ref(blocks[(1, 1)])
        store: dict = {}
        with debug_oracles():
            Interpreter(dag, protocol(), store).run_to_fixpoint()
            later = Interpreter(dag.copy(), protocol(), store)
            later.run_to_fixpoint()
            later._slots[ref].instances[L1].echo_senders[42].add(3)
            later.dag.insert(signed_block(registry, 0, 3, (block_ref(blocks[(0, 2)]),)))
            with pytest.raises(AssertionError, match=f"{ref.hex()[:12]} was modified"):
                later.run_to_fixpoint()

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
        assert len(indications(it.run_to_fixpoint())) == 4
        assert it.run_to_fixpoint() == []

    def test_reported_digest_is_taken_after_the_indications_drain(self, registry):
        # state bytes encode pending indications: a report's digest must be
        # the block's settled digest, also where the block delivers
        dag, _ = broadcast_fixture(registry, rounds=4)
        it = Interpreter(dag, protocol())
        reports = it.run_to_fixpoint()
        assert any(act.indications for r in reports for act in r.labels)
        for report in reports:
            for act in report.labels:
                assert act.state_digest == it.state_digest(report.ref, act.label)


def assert_same_as_cloning(dag, proto, seed=None):
    """``Interpreter`` and the full-clone reference give equal reports and
    equal slots, untouched labels included, on every block of ``dag``; in
    ref order, or in the random order ``seed`` picks."""
    ours = Interpreter(dag, proto)
    reference = CloningInterpreter(dag, proto)
    if seed is None:
        assert ours.run_to_fixpoint() == reference.run_to_fixpoint()
    else:
        got = interpret_in_random_order(ours, Random(seed))
        assert got == interpret_in_random_order(reference, Random(seed))
    for ref in dag.refs():
        assert slot_fingerprint(ours, ref) == slot_fingerprint(reference, ref)


class TestCopyOnWrite:
    """A block shares its parent's instances and clones a label only when
    it feeds it; the result must be the full-clone interpreter's."""

    def test_matches_the_cloning_interpreter_on_the_broadcast_fixture(self, registry):
        dag, _ = broadcast_fixture(registry, rounds=5)
        assert_same_as_cloning(dag, protocol())

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_cloning_interpreter_in_random_orders(self, registry, seed):
        dag, _ = broadcast_fixture(registry, rounds=5)
        assert_same_as_cloning(dag, protocol(), seed)

    @pytest.mark.parametrize("index", range(10))
    @pytest.mark.parametrize("make", [random_scenario, adversarial_scenario])
    def test_matches_the_cloning_interpreter_on_final_dags(self, make, index):
        scenario = make(index)
        for dag in run(scenario).final_dags.values():
            assert_same_as_cloning(dag, ReliableBroadcast(scenario.n, scenario.f))

    def chain(self, registry, requests=()):
        """Server 0's chain g0 <- b1 <- b2: g0 broadcasts on L1, b1 hears
        its own echo and emits nothing, so b2 is fed nothing on L1."""
        dag, blocks = broadcast_fixture(registry, rounds=1)
        g0 = blocks[(0, 0)]
        b1 = signed_block(registry, 0, 1, (block_ref(g0),))
        b2 = signed_block(registry, 0, 2, (block_ref(b1),), requests)
        for block in (b1, b2):
            dag.insert(block)
        it = Interpreter(dag, protocol())
        reports = it.run_to_fixpoint()
        return it, reports, [block_ref(b) for b in (g0, b1, b2)]

    def test_untouched_label_shares_the_parent_instance(self, registry):
        it, reports, (_, r1, r2) = self.chain(registry)
        (report,) = [r for r in reports if r.ref == r2]
        assert report.labels == ()
        assert it._slots[r2].instances[L1] is it._slots[r1].instances[L1]

    def test_touched_label_gets_its_own_clone(self, registry):
        it, reports, (r0, r1, _) = self.chain(registry)
        assert buffers(reports, r1, L1)[0] == (Message(0, 0, encode_payload(ECHO, 42)),)
        assert it._slots[r1].instances[L1] is not it._slots[r0].instances[L1]

    def test_skipped_request_keeps_the_shared_instance(self, registry):
        it, reports, (_, r1, r2) = self.chain(registry, ((L1, b"\x01"),))
        (report,) = [r for r in reports if r.ref == r2]
        (act,) = report.labels
        assert (act.label, act.skipped_requests, act.fed, act.emitted) == (L1, 1, (), ())
        assert it._slots[r2].instances[L1] is it._slots[r1].instances[L1]
        assert act.state_digest == it.state_digest(r1, L1)

    def test_mutation_through_a_shared_instance_is_caught(self, registry):
        with debug_oracles():
            it, _, (_, r1, r2) = self.chain(registry)
            assert it._slots[r2].instances[L1] is it._slots[r1].instances[L1]
            # written through the child's slot, so the parent's changes too
            it._slots[r2].instances[L1].echo_senders[42].add(3)
            it.dag.insert(signed_block(registry, 0, 3, (r2,)))
            with pytest.raises(AssertionError, match=f"{r1.hex()[:12]} was modified"):
                it.run_to_fixpoint()


class TestCloneCount:
    """A block clones at most once per label its report lists, however many
    labels its history holds."""

    @pytest.mark.parametrize(
        "scenario", [fig_broadcast_scenario(), random_scenario(0)], ids=["fig", "random0"]
    )
    def test_clones_per_block_are_bounded_by_its_report(self, monkeypatch, scenario):
        clones = 0
        clone = BrbInstance.clone
        interpret_block = Interpreter._interpret_block
        checked = 0

        def counting_clone(self):
            nonlocal clones
            clones += 1
            return clone(self)

        def counted_interpret_block(self, ref):
            nonlocal clones, checked
            clones = 0
            report = interpret_block(self, ref)
            assert clones <= len(report.labels), (ref.hex()[:12], clones, report.labels)
            checked += 1
            return report

        monkeypatch.setattr(BrbInstance, "clone", counting_clone)
        monkeypatch.setattr(Interpreter, "_interpret_block", counted_interpret_block)
        run(scenario)
        assert checked


class TestSharedStore:
    """Interpreters of equal protocols may share one store of (slot,
    report) per ref: each block is computed once, and every interpreter
    reports what a private one would, in its own order."""

    def test_sharing_interpreters_reuse_slots_and_reports(self, registry):
        dag, _ = broadcast_fixture(registry, rounds=4)
        store: dict = {}
        first = Interpreter(dag, protocol(), store)
        later = Interpreter(dag.copy(), protocol(), store)
        private = Interpreter(dag, protocol())
        computed = first.run_to_fixpoint()
        assert len(store) == len(dag) == len(computed)
        assert later.run_to_fixpoint() == computed == private.run_to_fixpoint()
        for ref in dag.refs():
            assert later._slots[ref] is first._slots[ref] is store[ref][0]
            assert slot_fingerprint(later, ref) == slot_fingerprint(private, ref)
        assert private._shared is not store

    def test_each_interpreter_schedules_by_its_own_blocks(self, registry):
        # the later server's DAG grows in batches; the store already holds
        # every block, yet its reports come as a private interpreter's do
        dag, _ = broadcast_fixture(registry, rounds=5)
        store: dict = {}
        Interpreter(dag, protocol(), store).run_to_fixpoint()
        grown, grown_private = BlockDag(registry), BlockDag(registry)
        later = Interpreter(grown, protocol(), store)
        private = Interpreter(grown_private, protocol())
        refs = list(dag.refs())
        for start in range(0, len(refs), 6):
            for ref in refs[start : start + 6]:
                grown.insert(dag.get(ref))
                grown_private.insert(dag.get(ref))
            assert later.run_to_fixpoint() == private.run_to_fixpoint()
        assert len(store) == len(refs)
