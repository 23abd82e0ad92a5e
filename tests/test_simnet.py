"""Simulator engine: determinism, delivery guarantees, byzantine behaviors."""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from dagbft.blockdag import block_ref
from dagbft.brb import decode_deliver
from dagbft.crypto import KeyRegistry
from dagbft.protocol import Label
from dagbft.simnet import (
    BehaviorSpec,
    RequestInjection,
    Scenario,
    ScenarioError,
    run,
)

from .oracles import extends, perfect_network_deliveries, union_dags
from .scenarios import fig_broadcast_scenario


def surfaced_deliveries(events) -> dict[tuple[int, tuple[int, int]], list[int]]:
    out: dict[tuple[int, tuple[int, int]], list[int]] = {}
    for ev in events:
        if ev["kind"] == "INDICATE" and ev["surfaced"]:
            key = (ev["server"], tuple(ev["label"]))
            out.setdefault(key, []).append(decode_deliver(bytes.fromhex(ev["indication"])))
    return out


class TestScenarioValidation:
    def test_server_count_must_match_fault_bound(self):
        with pytest.raises(ScenarioError):
            Scenario(n=5, f=1, seed=0, max_steps=5).validate()

    def test_too_many_byzantine(self):
        with pytest.raises(ScenarioError):
            Scenario(
                n=4,
                f=1,
                seed=0,
                max_steps=5,
                byzantine=((1, BehaviorSpec("SILENT")), (2, BehaviorSpec("SILENT"))),
            ).validate()

    def test_delay_bounds_sanity(self):
        with pytest.raises(ScenarioError):
            Scenario(n=4, f=1, seed=0, max_steps=5, delay_bounds=(0, 2)).validate()
        with pytest.raises(ScenarioError):
            Scenario(n=4, f=1, seed=0, max_steps=5, delay_bounds=(3, 2)).validate()

    def test_unknown_behavior_kind(self):
        with pytest.raises(ScenarioError):
            Scenario(
                n=4, f=1, seed=0, max_steps=5, byzantine=((1, BehaviorSpec("EVIL")),)
            ).validate()

    def test_request_to_unknown_server(self):
        with pytest.raises(ScenarioError):
            Scenario(
                n=4,
                f=1,
                seed=0,
                max_steps=5,
                requests=(RequestInjection(0, 9, Label(9, 1), 1),),
            ).validate()

    def test_json_round_trip(self):
        scenario = fig_broadcast_scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_json_round_trip_with_byzantine(self):
        scenario = Scenario(
            n=4,
            f=1,
            seed=3,
            max_steps=9,
            byzantine=((3, BehaviorSpec("SELECTIVE_SEND", targets=(0, 1))),),
            requests=(RequestInjection(0, 0, Label(0, 1), 42),),
            snapshot_steps=(4,),
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario


class TestDeterminism:
    def test_honest_run_byte_identical(self):
        scenario = fig_broadcast_scenario()
        assert run(scenario).trace_text() == run(scenario).trace_text()

    def test_byzantine_run_byte_identical(self):
        scenario = Scenario(
            n=4,
            f=1,
            seed=13,
            max_steps=15,
            delay_bounds=(1, 3),
            byzantine=((3, BehaviorSpec("EQUIVOCATE")),),
            requests=(RequestInjection(0, 0, Label(0, 1), 42),),
            snapshot_steps=(7,),
        )
        assert run(scenario).trace_text() == run(scenario).trace_text()

    def test_different_seeds_differ(self):
        # jittered delays: the seed actually steers the schedule
        scenario = Scenario(
            n=4,
            f=1,
            seed=7,
            max_steps=12,
            delay_bounds=(1, 4),
            requests=(RequestInjection(0, 0, Label(0, 1), 42),),
        )
        assert run(scenario).trace_text() != run(scenario.with_seed(8)).trace_text()


class TestHonestEndToEnd:
    def test_every_server_delivers_the_broadcast(self):
        result = run(fig_broadcast_scenario())
        delivered = surfaced_deliveries(result.events)
        # oracle: the same protocol over an ideal direct network
        oracle = perfect_network_deliveries(4, 1, originator=0, value=42)
        assert {s: vs[0] for (s, _), vs in delivered.items()} == oracle

    def test_send_deliver_matching(self):
        result = run(fig_broadcast_scenario())
        sends = sum(1 for e in result.events if e["kind"] == "SEND")
        delivers = sum(1 for e in result.events if e["kind"] == "DELIVER")
        assert sends == delivers  # all-correct run: nothing dropped

    def test_deliver_within_delay_bound(self):
        scenario = fig_broadcast_scenario()
        result = run(scenario)
        sent = {}
        for ev in result.events:
            if ev["kind"] == "SEND":
                sent.setdefault((ev["ref"], ev["to"], ev["frm"]), []).append(ev["step"])
        for ev in result.events:
            if ev["kind"] != "DELIVER":
                continue
            candidates = sent[(ev["ref"], ev["to"], ev["frm"])]
            assert any(
                0 < ev["step"] - s <= scenario.delay_bounds[1] for s in candidates
            )

    def test_final_dags_converge(self):
        result = run(fig_broadcast_scenario())
        dags = list(result.final_dags.values())
        for other in dags[1:]:
            assert dags[0].vertex_set() == other.vertex_set()
            assert dags[0].edge_set() == other.edge_set()


class TestEquivocation:
    def _scenario(self, seed=11):
        return Scenario(
            n=4,
            f=1,
            seed=seed,
            max_steps=18,
            delay_bounds=(1, 2),
            byzantine=((3, BehaviorSpec("EQUIVOCATE")),),
            requests=(RequestInjection(0, 0, Label(0, 1), 42),),
            snapshot_steps=(9,),
        )

    def test_correct_servers_still_agree(self):
        result = run(self._scenario())
        delivered = surfaced_deliveries(result.events)
        values = {vs[0] for (s, _), vs in delivered.items()}
        assert values == {42}
        assert {s for (s, _) in delivered} == {0, 1, 2}

    def test_fork_blocks_share_a_parent(self):
        result = run(self._scenario())
        # find two distinct blocks by the equivocator at the same seqno
        by_seq: dict[int, set[str]] = {}
        parents: dict[str, list[str]] = {}
        for ev in result.events:
            if ev["kind"] == "INSERT" and ev["builder"] == 3:
                by_seq.setdefault(ev["seqno"], set()).add(ev["ref"])
                parents[ev["ref"]] = ev["preds"]
        forked = {k: refs for k, refs in by_seq.items() if len(refs) > 1}
        assert forked, "equivocator never forked"
        k, refs = sorted(forked.items())[0]
        a, b = sorted(refs)[:2]
        assert a != b

    def test_forks_cannot_be_joined(self):
        # a block listing both forks as predecessors has two parents: invalid
        result = run(self._scenario())
        dag = result.final_dags[0]
        by_seq: dict[int, list] = {}
        for block in dag.blocks():
            if block.builder == 3:
                by_seq.setdefault(block.seqno, []).append(block)
        forks = next((bs for bs in by_seq.values() if len(bs) > 1), None)
        if forks is None:
            pytest.skip("this seed produced no fork visible to server 0")
        from dagbft.crypto import KeyRegistry

        registry = KeyRegistry.generate(4, result.scenario.seed)
        joiner_core = type(forks[0])(
            3,
            forks[0].seqno + 1,
            (block_ref(forks[0]), block_ref(forks[1])),
            (),
        )
        joiner = joiner_core.with_signature(
            registry.sign(registry.handle(3), block_ref(joiner_core).digest)
        )
        assert not dag.is_valid(joiner)

    def test_split_instance_states_across_forks(self):
        # server 0 interprets both forks; when their inputs differ, so do the
        # per-fork state digests
        result = run(
            Scenario(
                n=4,
                f=1,
                seed=5,
                max_steps=18,
                delay_bounds=(1, 2),
                byzantine=((3, BehaviorSpec("EQUIVOCATE")),),
                requests=(RequestInjection(0, 3, Label(3, 1), 42),),
                snapshot_steps=(9,),
            )
        )
        states: dict[tuple[int, str], set[str]] = {}
        for ev in result.events:
            if ev["kind"] != "INTERPRET" or ev["server"] != 0 or ev["builder"] != 3:
                continue
            for act in ev["labels"]:
                states.setdefault(ev["ref"], set()).add(act["state"])
        # equivocating chain produced diverging interpretations for at least
        # two distinct blocks at the same height
        assert len(states) >= 2


class TestConvergenceAcrossBehaviors:
    @pytest.mark.parametrize(
        "spec",
        [
            BehaviorSpec("SILENT"),
            BehaviorSpec("SELECTIVE_SEND", targets=(0,)),
            BehaviorSpec("GARBAGE"),
            BehaviorSpec("CRASH_AT", crash_step=7),
            BehaviorSpec("DUPLICATE_REFS"),
            BehaviorSpec("EQUIVOCATE"),
        ],
        ids=lambda s: s.kind,
    )
    def test_snapshot_union_extends_final(self, spec):
        scenario = Scenario(
            n=4,
            f=1,
            seed=29,
            max_steps=15,
            delay_bounds=(1, 3),
            byzantine=((2, spec),),
            requests=(RequestInjection(0, 0, Label(0, 1), 42),),
            snapshot_steps=(5, 10),
        )
        result = run(scenario)
        correct = scenario.correct_servers()
        for t in (5, 10):
            snaps = result.snapshots[t]
            for s1 in correct:
                for s2 in correct:
                    joint = union_dags(snaps[s1], snaps[s2])
                    for target in correct:
                        assert extends(joint, result.final_dags[target])


class TestSelectiveSendRecovery:
    def test_withheld_blocks_recovered_via_fwd(self):
        scenario = Scenario(
            n=4,
            f=1,
            seed=17,
            max_steps=18,
            delay_bounds=(1, 2),
            byzantine=((3, BehaviorSpec("SELECTIVE_SEND", targets=(0,))),),
            requests=(RequestInjection(0, 0, Label(0, 1), 42),),
            snapshot_steps=(9,),
        )
        result = run(scenario)
        fwd_requests = [e for e in result.events if e["kind"] == "FWD_REQ"]
        assert fwd_requests, "starved servers should have requested the gap"
        # the byzantine blocks seen by server 0 end up everywhere
        byz_refs = {
            block_ref(b).hex()
            for b in result.final_dags[0].blocks()
            if b.builder == 3
        }
        assert byz_refs
        for server in (1, 2):
            have = {
                block_ref(b).hex()
                for b in result.final_dags[server].blocks()
                if b.builder == 3
            }
            assert byz_refs <= have


class TestParallelSeedSweep:
    def test_concurrent_runs_match_serial_runs(self):
        # whole simulations share no mutable state, so a thread-pool seed
        # sweep must reproduce the serial traces exactly
        from concurrent.futures import ThreadPoolExecutor

        scenarios = [
            Scenario(
                n=4,
                f=1,
                seed=seed,
                max_steps=12,
                delay_bounds=(1, 3),
                byzantine=((3, BehaviorSpec("EQUIVOCATE")),),
                requests=(RequestInjection(0, 0, Label(0, 1), 42),),
            )
            for seed in range(8)
        ]
        serial = [run(sc).trace_text() for sc in scenarios]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda sc: run(sc).trace_text(), scenarios))
        assert threaded == serial


class TestTraceShape:
    def test_steps_are_non_decreasing(self):
        scenario = Scenario(
            n=4,
            f=1,
            seed=19,
            max_steps=15,
            delay_bounds=(1, 4),
            byzantine=((3, BehaviorSpec("SELECTIVE_SEND", targets=(1,))),),
            requests=(RequestInjection(0, 0, Label(0, 1), 42),),
            snapshot_steps=(7,),
        )
        steps = [e["step"] for e in run(scenario).events]
        assert steps == sorted(steps)

    def test_surfaced_indications_decode_under_the_protocol(self):
        result = run(fig_broadcast_scenario())
        for ev in result.events:
            if ev["kind"] == "INDICATE" and ev["surfaced"]:
                assert decode_deliver(bytes.fromhex(ev["indication"])) == 42


class TestEventualValidity:
    def test_snapshot_blocks_reach_every_correct_server(self):
        # anything a correct server validated mid-run is in every correct
        # server's final DAG after the drain
        scenario = Scenario(
            n=4,
            f=1,
            seed=37,
            max_steps=15,
            delay_bounds=(1, 4),
            byzantine=((2, BehaviorSpec("SELECTIVE_SEND", targets=(3,))),),
            requests=(RequestInjection(0, 0, Label(0, 1), 42),),
            snapshot_steps=(6, 11),
        )
        result = run(scenario)
        correct = scenario.correct_servers()
        for step, snaps in result.snapshots.items():
            for server in correct:
                validated = snaps[server].vertex_set()
                for target in correct:
                    assert validated <= result.final_dags[target].vertex_set()


class TestGarbageHandling:
    def test_garbage_dropped_and_counted(self):
        scenario = Scenario(
            n=4,
            f=1,
            seed=23,
            max_steps=12,
            byzantine=((1, BehaviorSpec("GARBAGE")),),
            requests=(RequestInjection(0, 0, Label(0, 1), 42),),
        )
        result = run(scenario)
        reasons = {e["reason"] for e in result.events if e["kind"] == "DROP"}
        assert reasons == {"undecodable", "bad_signature"}
        delivered = surfaced_deliveries(result.events)
        assert {s for (s, _) in delivered} == {0, 2, 3}


class TestRequestRouting:
    def test_requests_to_byzantine_originator_are_embedded(self):
        scenario = Scenario(
            n=4,
            f=1,
            seed=31,
            max_steps=15,
            byzantine=((2, BehaviorSpec("CRASH_AT", crash_step=12)),),
            requests=(RequestInjection(0, 2, Label(2, 1), 99),),
            snapshot_steps=(7,),
        )
        result = run(scenario)
        delivered = surfaced_deliveries(result.events)
        # the pre-crash byzantine originator behaves honestly: everyone delivers
        assert {s: vs[0] for (s, _), vs in delivered.items()} == {0: 99, 1: 99, 3: 99}


class TestVerifyOnce:
    def test_each_server_verifies_each_block_at_most_once(self, monkeypatch):
        # each verify is charged to the server of the nearest calling object
        # that belongs to one (a DAG's owner, a node's or signer's server)
        calls: Counter = Counter()
        verify = KeyRegistry.verify

        def counting_verify(self, server, digest, sig):
            frame = sys._getframe(1)
            while True:
                caller = frame.f_locals.get("self")
                asker = getattr(caller, "owner", getattr(caller, "server", None))
                if isinstance(asker, int):
                    break
                frame = frame.f_back
            calls[(asker, digest)] += 1
            return verify(self, server, digest, sig)

        monkeypatch.setattr(KeyRegistry, "verify", counting_verify)
        scenario = Scenario(
            n=7,
            f=2,
            seed=29,
            max_steps=36,
            delay_bounds=(1, 8),
            byzantine=(
                (5, BehaviorSpec("EQUIVOCATE")),
                (6, BehaviorSpec("SELECTIVE_SEND", targets=(0, 1, 2))),
            ),
            requests=tuple(
                RequestInjection(3 * i, i % 5, Label(i % 5, 1 + i), 40 + i) for i in range(6)
            ),
        )
        result = run(scenario)
        correct = set(scenario.correct_servers())
        per_correct = {key: count for key, count in calls.items() if key[0] in correct}
        stored = {
            (server, ref.digest) for server, dag in result.final_dags.items() for ref in dag.refs()
        }
        assert stored <= set(per_correct)  # every stored block was verified
        assert max(per_correct.values()) == 1
