"""Simulator engine: determinism, delivery guarantees, byzantine behaviors."""

from __future__ import annotations

import gc
import hashlib
import json
import re
import sys
import weakref
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagbft import gossip, simnet, trace
from dagbft.blockdag import Block, block_ref, block_to_wire
from dagbft.brb import decode_broadcast, decode_deliver
from dagbft.checks import (
    check_brb,
    check_convergence,
    check_interpretation_agreement,
    check_point_to_point,
)
from dagbft.crypto import (
    Ed25519Registry,
    KeyRegistry,
    Signature,
    SignatureScheme,
    ed25519_available,
)
from dagbft.gossip import BLOCK_ENVELOPE, FWD_ENVELOPE, WireEnvelope
from dagbft.interpret import Interpreter
from dagbft.protocol import Label
from dagbft.simnet import (
    BehaviorSpec,
    RequestInjection,
    Scenario,
    ScenarioError,
    Simulation,
    run,
)

from .oracles import (
    dag_graph,
    eager_schedule,
    extends,
    live_snapshots,
    perfect_network_deliveries,
    private_decoding,
    private_interpreters,
    union_dags,
)
from .scenarios import adversarial_scenario, fig_broadcast_scenario, random_scenario
from .test_trace_lock import EVICTING_AT_CAP_2, corpus

_SCENARIO_KEYS = set(fig_broadcast_scenario().to_dict()) | {"unknown"}
# any JSON value, nested a little, with a few of each scalar type
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10) | st.floats() | st.sampled_from(["1", "SILENT"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "targets", "crash_step", "step", "1"]), inner),
    max_leaves=8,
)


def surfaced_deliveries(events) -> dict[tuple[int, tuple[int, int]], list[int]]:
    out: dict[tuple[int, tuple[int, int]], list[int]] = {}
    for ev in events:
        if ev["kind"] == "INDICATE" and ev["surfaced"]:
            key = (ev["server"], tuple(ev["label"]))
            out.setdefault(key, []).append(decode_deliver(bytes.fromhex(ev["indication"])))
    return out


class TestScenarioValidation:
    # a Scenario or BehaviorSpec is valid by construction: each invalid
    # case below is built inside pytest.raises
    def test_server_count_must_match_fault_bound(self):
        with pytest.raises(ScenarioError):
            Scenario(n=5, f=1, seed=0, max_steps=5)

    def test_too_many_byzantine(self):
        with pytest.raises(ScenarioError):
            Scenario(
                n=4,
                f=1,
                seed=0,
                max_steps=5,
                byzantine=((1, BehaviorSpec("SILENT")), (2, BehaviorSpec("SILENT"))),
            )

    def test_delay_bounds_sanity(self):
        with pytest.raises(ScenarioError):
            Scenario(n=4, f=1, seed=0, max_steps=5, delay_bounds=(0, 2))
        with pytest.raises(ScenarioError):
            Scenario(n=4, f=1, seed=0, max_steps=5, delay_bounds=(3, 2))
        # from JSON the (int, int) type check comes first; this rule guards Python callers
        with pytest.raises(ScenarioError, match="delay_bounds must be a"):
            Scenario(n=4, f=1, seed=0, max_steps=5, delay_bounds=(1, 2, 3))

    def test_unknown_behavior_kind(self):
        with pytest.raises(ScenarioError):
            Scenario(n=4, f=1, seed=0, max_steps=5, byzantine=((1, BehaviorSpec("EVIL")),))

    def test_request_to_unknown_server(self):
        with pytest.raises(ScenarioError):
            Scenario(
                n=4,
                f=1,
                seed=0,
                max_steps=5,
                requests=(RequestInjection(0, 9, Label(9, 1), 1),),
            )

    @pytest.mark.parametrize(
        "label, value",
        [(Label(0, 1), 2**64), (Label(0, 1), -1), (Label(2**32, 1), 1), (Label(0, 2**64), 1)],
        ids=["value-too-big", "value-negative", "originator-too-big", "nonce-too-big"],
    )
    def test_request_outside_its_encoding(self, label, value):
        with pytest.raises(ScenarioError):
            RequestInjection(0, 0, label, value)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "EQUIVOCATE", "targets": (1,)},
            {"kind": "CRASH_AT", "crash_step": 4, "targets": (1,)},
            {"kind": "SILENT", "crash_step": 4},
            {"kind": "SELECTIVE_SEND", "crash_step": 4, "targets": (1,)},
            {"kind": "SELECTIVE_SEND"},
        ],
        ids=[
            "targets-on-equivocate", "targets-on-crash", "crash-step-on-silent",
            "crash-step-on-selective-send", "selective-send-without-targets",
        ],
    )
    def test_behavior_fields_its_kind_does_not_read(self, spec):
        with pytest.raises(ScenarioError):
            BehaviorSpec(**spec)

    def test_behavior_targets_must_be_servers(self):
        spec = BehaviorSpec("SELECTIVE_SEND", targets=(0, 4))
        with pytest.raises(ScenarioError, match="targets out of range"):
            Scenario(n=4, f=1, seed=0, max_steps=5, byzantine=((1, spec),))

    def test_snapshot_steps_are_distinct(self):
        with pytest.raises(ScenarioError, match="distinct"):
            Scenario(n=4, f=1, seed=0, max_steps=5, snapshot_steps=(3, 3))

    def test_replace_is_validated_too(self):
        scenario = Scenario(n=4, f=1, seed=0, max_steps=5)
        with pytest.raises(ScenarioError, match="distinct"):
            replace(scenario, snapshot_steps=(3, 3))

    @pytest.mark.parametrize(
        "extra, rule",
        [
            ({"byzantine": [1]}, "'byzantine' has the wrong type"),
            ({"seed": float("inf")}, "'seed' has the wrong type"),
            ({"byzantine": {1: {"kind": "SILENT"}}}, "is not a server id"),
            (
                {"byzantine": {"1": {"kind": "SILENT"}, "01": {"kind": "GARBAGE"}}},
                "more byzantine servers than the fault bound",
            ),
            ({"byzantine": {"1": {"kind": "CRASH_AT", "crash_step": -1}}}, "crash_step must be"),
            ({"byzantine": {"1": {"kind": "EVIL"}}}, "unknown behavior kind 'EVIL'"),
            ({"byzantine": {"9": {"kind": "SILENT"}}}, "byzantine server 9 out of range"),
            (
                {"n": 7, "f": 2, "byzantine": {"3": {"kind": "SILENT"}, "03": {"kind": "SILENT"}}},
                "server 3 listed byzantine twice",
            ),
            ({"max_steps": 0}, "max_steps must be positive"),
            ({"cadence": 0}, "cadence and fwd_interval must be"),
            (
                {"requests": [{"step": 5, "server": 0, "label": [0, 1], "value": 1}]},
                "request step must fall inside the run horizon",
            ),
        ],
        ids=[
            "byzantine-list", "infinite-seed", "int-byzantine-key", "byzantine-twice",
            "negative-crash-step", "unknown-kind", "byzantine-out-of-range",
            "byzantine-twice-at-n7", "no-steps", "no-cadence", "request-past-horizon",
        ],
    )
    def test_malformed_dict_is_scenario_error(self, extra, rule):
        with pytest.raises(ScenarioError, match=re.escape(rule)):
            Scenario.from_dict({"n": 4, "f": 1, "seed": 0, "max_steps": 5, **extra})

    @pytest.mark.parametrize("data", [[4, 1, 0, 5], None, {"n": 4, "f": 1, "seed": 0}])
    def test_scenario_must_be_a_complete_object(self, data):
        with pytest.raises(ScenarioError):
            Scenario.from_dict(data)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(sorted(_SCENARIO_KEYS)), _json_values))
    def test_any_json_parses_or_is_scenario_error(self, extra):
        try:
            Scenario.from_dict({"n": 4, "f": 1, "seed": 0, "max_steps": 5, **extra})
        except ScenarioError:
            pass

    def test_json_round_trip(self):
        scenario = fig_broadcast_scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    @pytest.mark.parametrize("name, scenario", list(corpus()), ids=[n for n, _ in corpus()])
    def test_strict_parser_reads_what_to_dict_writes(self, name, scenario):
        assert Scenario.from_dict(json.loads(json.dumps(scenario.to_dict()))) == scenario

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

    @pytest.mark.parametrize("name, scenario", list(corpus()), ids=[n for n, _ in corpus()])
    def test_trace_does_not_depend_on_snapshot_steps(self, name, scenario):
        unsnapped = replace(scenario, snapshot_steps=())
        assert run(scenario).trace_text() == run(unsnapped).trace_text()

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
            assert dag_graph(dags[0]) == dag_graph(other)


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

    def test_each_fork_goes_out_with_its_own_signature(self):
        sim = Simulation(self._scenario())
        adversary = sim.adversaries[3]
        adversary.on_step(0)  # the genesis block: a single chain
        adversary.outbox.clear()
        adversary.on_step(3)  # the next cadence step seals two forks
        forks = {}
        for envelope in adversary.outbox:
            block = WireEnvelope.decode(envelope.encode()).block
            ref_hex = envelope.named_ref.hex()
            assert block_ref(block).hex() == ref_hex
            assert sim.registry.verify(3, block_ref(block), block.signature)
            forks[ref_hex] = block.signature
        assert len(forks) == 2 and len(set(forks.values())) == 2

    def test_forks_cannot_be_joined(self):
        # a block listing both forks as predecessors has two parents: invalid
        result = run(self._scenario())
        dag = result.final_dags[0]
        by_seq: dict[int, list] = {}
        for block in map(dag.get, dag.refs()):
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
            registry.sign(3, block_ref(joiner_core))
        )
        assert not dag.is_valid(joiner)

    def test_largest_value_forks_to_zero(self):
        # the second fork carries value + 1, which wraps at 2**64
        top = 2**64 - 1
        result = run(
            Scenario(
                n=4,
                f=1,
                seed=5,
                max_steps=12,
                byzantine=((3, BehaviorSpec("EQUIVOCATE")),),
                requests=(RequestInjection(4, 3, Label(3, 1), top),),
            )
        )
        payloads = {
            payload
            for ev in result.events
            if ev["kind"] == "INSERT" and ev["builder"] == 3
            for originator, nonce, payload in ev["requests"]
            if (originator, nonce) == (3, 1)
        }
        assert payloads == {top.to_bytes(8, "big").hex(), (0).to_bytes(8, "big").hex()}

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
        with live_snapshots(scenario.snapshot_steps) as snapshots:
            result = run(scenario)
        correct = scenario.correct_servers()
        for t in (5, 10):
            snaps = snapshots[t]
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
            for b in map(result.final_dags[0].get, result.final_dags[0].refs())
            if b.builder == 3
        }
        assert byz_refs
        for server in (1, 2):
            have = {
                block_ref(b).hex()
                for b in map(result.final_dags[server].get, result.final_dags[server].refs())
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

    @pytest.mark.parametrize("name, scenario", list(corpus()), ids=[n for n, _ in corpus()])
    def test_adversaries_send_nothing_in_the_drain(self, name, scenario):
        # byzantine servers are halted in the drain: their outboxes are
        # never flushed there
        byzantine = {server for server, _ in scenario.byzantine}
        drained = [
            e
            for e in run(scenario).events
            if e["kind"] == "SEND" and e["step"] >= scenario.max_steps
        ]
        assert drained
        assert not [e for e in drained if e["frm"] in byzantine]

    @pytest.mark.parametrize("index", range(4))
    def test_adversaries_take_nothing_in_the_drain(self, monkeypatch, index):
        # envelopes to a halted adversary stay on the wire but are not even
        # handed to it: it takes envelopes before the drain and none in it
        scenario = adversarial_scenario(index)
        draining = False
        taken: Counter = Counter()  # draining -> envelopes adversaries took
        on_deliver = simnet._Adversary.on_deliver
        drain = Simulation._drain

        def counting_on_deliver(self, now, envelope):
            taken[draining] += 1
            return on_deliver(self, now, envelope)

        def flagged_drain(self, start):
            nonlocal draining
            draining = True
            return drain(self, start)

        monkeypatch.setattr(simnet._Adversary, "on_deliver", counting_on_deliver)
        monkeypatch.setattr(Simulation, "_drain", flagged_drain)
        byzantine = {server for server, _ in scenario.byzantine}
        drained = [e for e in run(scenario).events if e["step"] >= scenario.max_steps]
        assert any(e["kind"] == "SEND" and e["to"] in byzantine for e in drained)
        assert taken[True] == 0 and taken[False] > 0


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
        with live_snapshots(scenario.snapshot_steps) as snapshots:
            result = run(scenario)
        correct = scenario.correct_servers()
        assert set(snapshots) == {6, 11}
        for step, snaps in snapshots.items():
            for server in correct:
                validated = set(snaps[server].refs())
                for target in correct:
                    assert validated <= set(result.final_dags[target].refs())


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

    def test_bogus_block_goes_out_with_its_zero_signature(self):
        garbage = ((1, BehaviorSpec("GARBAGE")),)
        scenario = Scenario(n=4, f=1, seed=23, max_steps=12, byzantine=garbage)
        adversary = Simulation(scenario).adversaries[1]
        adversary.on_step(0)
        wires = [env.encode() for env in adversary.outbox if type(env) is WireEnvelope]
        bogus = [WireEnvelope.decode(wire).block for wire in wires]
        assert len(bogus) == 4
        assert {b.signature for b in bogus} == {Signature(SignatureScheme.HMAC_SHA256, bytes(32))}


class TestMisaddressedEnvelopes:
    """The link, not the envelope header, names who sent an envelope and to
    whom: one whose header says otherwise is dropped before a reply can go
    to the server the header names."""

    def _run_with_fwd(self, byzantine, link, header):
        scenario = Scenario(
            n=4,
            f=1,
            seed=5,
            max_steps=12,
            byzantine=byzantine,
            requests=(RequestInjection(0, 1, Label(1, 1), 7),),
        )
        sim = Simulation(scenario)
        genesis = block_ref(Block(0, 0, (), ()))  # server 0 seals it at step 0
        wire = WireEnvelope(FWD_ENVELOPE, *header, ref=genesis).encode()
        sim._schedule(3, *link, wire)  # raw bytes, due at step 4 with unit delay
        return [e for e in sim.run().events if e["step"] == 4]

    @pytest.mark.parametrize("header", [(99, 0), (2, 0), (3, 1)], ids=["unknown", "third", "receiver"])
    def test_correct_server_drops_it(self, header):
        events = self._run_with_fwd((), (3, 0), header)
        drops = [e for e in events if e["kind"] == "DROP"]
        assert drops == [
            {"schema": 1, "step": 4, "kind": "DROP", "server": 0, "reason": "misaddressed", "frm": 3}
        ]
        assert not [e for e in events if e["kind"] == "FWD_RESP"]

    def test_adversary_ignores_it(self):
        crash = ((3, BehaviorSpec("CRASH_AT", crash_step=100)),)
        events = self._run_with_fwd(crash, (0, 3), (99, 3))
        assert not [e for e in events if e["kind"] == "DROP"]
        assert not [e for e in events if e["kind"] == "SEND" and e["frm"] == 3 and e["to"] == 99]


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

    def test_adversary_blocks_take_requests_oldest_first(self):
        # an adversary's block carries at most MAX_REQUESTS_PER_BLOCK of its
        # requests, oldest first, as a correct server's does; the equivocator
        # seals the rest into both forks of its next block, the second fork
        # with every value one higher
        values = [100 + i for i in range(10)]
        result = run(
            Scenario(
                n=4,
                f=1,
                seed=5,
                max_steps=9,
                byzantine=((3, BehaviorSpec("EQUIVOCATE")),),
                requests=tuple(
                    RequestInjection(0, 3, Label(3, i), v) for i, v in enumerate(values)
                ),
            )
        )
        carried: dict[int, dict[str, list]] = {}
        for ev in result.events:
            if ev["kind"] == "INSERT" and ev["builder"] == 3 and ev["seqno"] < 2:
                carried.setdefault(ev["seqno"], {})[ev["ref"]] = [
                    ((originator, nonce), decode_broadcast(bytes.fromhex(payload)))
                    for originator, nonce, payload in ev["requests"]
                ]
        cap = gossip.MAX_REQUESTS_PER_BLOCK
        oldest = [((3, i), v) for i, v in enumerate(values)]
        assert list(carried[0].values()) == [oldest[:cap]]
        forks = sorted(carried[1].values())
        assert forks == [oldest[cap:], [(label, v + 1) for label, v in oldest[cap:]]]


class TestVerifyOnce:
    def test_each_server_verifies_each_block_at_most_once(self, monkeypatch):
        # each verify is charged to the server of the nearest calling object
        # that belongs to one (a node, a signer or an adversary)
        calls: Counter = Counter()
        verify = KeyRegistry.verify

        def counting_verify(self, server, digest, sig):
            frame = sys._getframe(1)
            while True:
                caller = frame.f_locals.get("self")
                asker = getattr(caller, "server", None)
                if isinstance(asker, int):
                    break
                frame = frame.f_back
            calls[(asker, server, digest, sig)] += 1
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
        sim = Simulation(scenario)
        result = sim.run()
        correct = set(scenario.correct_servers())
        per_correct: Counter = Counter()
        per_signed: Counter = Counter()
        for (asker, builder, digest, sig), count in calls.items():
            if asker in correct:
                per_correct[(asker, digest)] += count
                per_signed[(builder, digest, sig)] += count
        # every block object an adversary or a correct server stores passed
        # a check under the run's registry, which an adversary's restricted
        # signer wraps: only a verify that returned True sets the mark
        adversary_dags = [adversary.node.dag for adversary in sim.adversaries.values()]
        for dag in (*result.final_dags.values(), *adversary_dags):
            for ref in dag.refs():
                assert dag.get(ref).__dict__.get("_verified_by") is sim.registry
        # servers share a block object and its check: a block is verified
        # at its builder's commit, no more
        assert set(per_signed.values()) == {1}
        assert max(per_correct.values()) == 1

    def test_adversarial_runs_verify_each_passing_signature_once(self, monkeypatch):
        # adversaries verify with the registry their restricted signers wrap,
        # so the pass one server keeps on a shared block serves every server:
        # each block any server holds passed one check, and no other passed
        passed: Counter = Counter()
        verify = KeyRegistry.verify

        def counting_verify(self, server, digest, sig):
            ok = verify(self, server, digest, sig)
            passed[(server, digest, sig)] += ok
            return ok

        monkeypatch.setattr(KeyRegistry, "verify", counting_verify)
        for index in range(20):
            passed.clear()
            sim = Simulation(adversarial_scenario(index))
            sim.run()
            held = {block_ref(block) for _, block in held_blocks(sim)}
            assert +passed and set(passed.values()) <= {0, 1}, index
            assert {digest for _, digest, _ in +passed} == held, index

    @pytest.mark.parametrize(
        "registry_class",
        [
            KeyRegistry,
            pytest.param(
                Ed25519Registry,
                marks=pytest.mark.skipif(
                    not ed25519_available(), reason="cryptography not installed"
                ),
            ),
        ],
    )
    def test_adversary_free_runs_verify_each_block_once(self, registry_class, monkeypatch):
        # one signature check per block: at its builder's commit, and never
        # again at a receiver; the backend is swapped as the benchmark swaps it
        verified: Counter = Counter()
        verify = registry_class.verify

        def counting_verify(self, server, digest, sig):
            verified[digest] += 1
            return verify(self, server, digest, sig)

        monkeypatch.setattr(simnet, "KeyRegistry", registry_class)
        monkeypatch.setattr(registry_class, "verify", counting_verify)
        for index in range(20):
            verified.clear()
            result = run(random_scenario(index, byzantine=False))
            refs = set().union(*(dag.refs() for dag in result.final_dags.values()))
            assert sum(verified.values()) == len(refs), index
            assert set(verified) == refs, index


class TestEncodeOnce:
    def test_each_sealed_block_core_is_encoded_once(self, monkeypatch):
        # a sealed block's wire bytes reuse the core bytes its ref hashed,
        # and a decoded block hashes the bytes it arrived in
        encoded: Counter = Counter()
        sealed: set[tuple] = set()
        core_bytes = Block.core_bytes
        seal = gossip.GossipNode.seal

        def core(block):
            return block.builder, block.seqno, block.preds, block.requests

        def counting_core_bytes(self):
            encoded[core(self)] += 1
            return core_bytes(self)

        def recording_seal(self, requests, preds):
            block = seal(self, requests, preds)
            sealed.add(core(block))
            return block

        monkeypatch.setattr(Block, "core_bytes", counting_core_bytes)
        monkeypatch.setattr(gossip.GossipNode, "seal", recording_seal)
        for scenario in [g(i) for g in (random_scenario, adversarial_scenario) for i in range(10)]:
            encoded.clear()
            sealed.clear()
            run(scenario)
            assert sealed <= encoded.keys()
            assert set(encoded.values()) == {1}


class TestInsertEventsAreTheLiveDag:
    @pytest.mark.parametrize("name, scenario", list(corpus()), ids=[n for n, _ in corpus()])
    def test_inserts_up_to_each_step_list_the_live_dag(self, name, scenario):
        # the trace's INSERT events are the only snapshot: at every step,
        # each correct server's DAG holds exactly the refs they list so far
        with live_snapshots(range(scenario.max_steps)) as snapshots:
            result = run(scenario)
        inserted = {s: set() for s in scenario.correct_servers()}
        events = iter(result.events)
        event = next(events, None)
        for step in range(scenario.max_steps):
            while event is not None and event["step"] <= step:
                if event["kind"] == "INSERT":
                    inserted[event["server"]].add(event["ref"])
                event = next(events, None)
            live = {s: {ref.hex() for ref in dag.refs()} for s, dag in snapshots[step].items()}
            assert live == inserted, step


CHECKERS = (
    check_point_to_point,
    check_brb,
    check_convergence,
    check_interpretation_agreement,
)


class TestPendingEviction:
    def test_runs_that_evict_stay_correct(self, monkeypatch):
        # at a cap of 2, correct servers evict pending blocks in a seeded
        # batch; each DROP names the evicted block, which reaches the DAG
        # only if delivered again, and every checker stays clean
        monkeypatch.setattr(gossip, "PENDING_CAP_PER_BUILDER", 2)
        evicting = 0
        for scenario in [g(i) for g in (random_scenario, adversarial_scenario) for i in range(20)]:
            result = run(scenario)
            for check in CHECKERS:
                report = check(result.events, scenario)
                assert report.ok, report.violations[:3]
            evicted: set[tuple[int, str]] = set()
            for e in result.events:
                if e["kind"] == "DROP" and e["reason"] == "pending_evicted":
                    evicted.add((e["server"], e["ref"]))
                elif e["kind"] == "DELIVER" and e["envelope"] == "BLOCK":
                    evicted.discard((e["to"], e["ref"]))
                elif e["kind"] == "PROMOTE":
                    assert (e["server"], e["ref"]) not in evicted, e
            evicting += any(e.get("reason") == "pending_evicted" for e in result.events)
        assert evicting >= 5  # 10 of these 40 runs evict

    def test_drain_asks_again_for_an_evicted_block(self, monkeypatch):
        # at a cap of 1 the drain's FWD answers evict each other; a server
        # must ask again for a block it evicted, or its DAG stays short
        monkeypatch.setattr(gossip, "PENDING_CAP_PER_BUILDER", 1)
        scenario = random_scenario(0)
        result = run(scenario)
        assert any(e.get("reason") == "pending_evicted" for e in result.events)
        for check in CHECKERS:
            report = check(result.events, scenario)
            assert report.ok, report.violations[:3]


# the trace-lock corpus and the first ten scenarios of each generator
DIFFERENTIAL = {
    **dict(corpus()),
    **{f"random_{i}": random_scenario(i) for i in range(10)},
    **{f"adversarial_{i}": adversarial_scenario(i) for i in range(10)},
}


class TestSharedInterpretation:
    """A simulation's correct servers share one interpreter store, so each
    block is interpreted once per run. Private stores, one per server, are
    the reference: they must give the same trace bytes."""

    @pytest.mark.parametrize("name", list(DIFFERENTIAL))
    def test_private_stores_give_the_same_trace(self, name):
        scenario = DIFFERENTIAL[name]
        shared = run(scenario).trace_text()
        with private_interpreters():
            private = run(scenario).trace_text()
        assert shared == private

    def test_interpret_entries_come_from_each_servers_own_report(self):
        # one labels list per report: shared by every server on the shared
        # store, so that each private store's own computation is recorded
        def lists_per_ref(events):
            out: dict[str, set[int]] = {}
            for e in events:
                if e["kind"] == "INTERPRET":
                    out.setdefault(e["ref"], set()).add(id(e["labels"]))
            return out

        scenario = fig_broadcast_scenario()
        shared = run(scenario).events
        with private_interpreters():
            private = run(scenario).events
        servers = len(scenario.correct_servers())
        assert {len(ids) for ids in lists_per_ref(shared).values()} == {1}
        assert {len(ids) for ids in lists_per_ref(private).values()} == {servers}

    def test_private_interpreters_give_each_server_its_own_store(self):
        scenario = fig_broadcast_scenario()

        def stores(sim):
            return {id(node.interpreter._shared) for node in sim.correct.values()}

        assert len(stores(Simulation(scenario))) == 1
        with private_interpreters():
            assert len(stores(Simulation(scenario))) == len(scenario.correct_servers())
        assert len(stores(Simulation(scenario))) == 1  # put back on exit

    def test_each_block_is_interpreted_once_per_run(self, monkeypatch):
        computed: Counter = Counter()
        interpret_block = Interpreter._interpret_block

        def counting_interpret_block(self, ref):
            computed[ref.hex()] += 1
            return interpret_block(self, ref)

        monkeypatch.setattr(Interpreter, "_interpret_block", counting_interpret_block)
        scenario = adversarial_scenario(1)
        events = run(scenario).events
        interpreted = Counter(e["ref"] for e in events if e["kind"] == "INTERPRET")
        assert computed.keys() == interpreted.keys()
        assert set(computed.values()) == {1}
        assert max(interpreted.values()) == len(scenario.correct_servers())
        computed.clear()
        with private_interpreters():
            run(scenario)
        assert computed == interpreted


def ref_fields(events: list[dict]) -> list[str]:
    """The values of every field that names a ref: ``ref``, INSERT
    ``preds`` and INDICATE ``block``."""
    out = []
    for e in events:
        if type(e.get("ref")) is str:
            out.append(e["ref"])
        if e["kind"] == "INSERT":
            out += e["preds"]
        elif e["kind"] == "INDICATE":
            out.append(e["block"])
    return out


class TestOneStringPerRef:
    """A run hex-encodes each ref once and ``trace.loads`` reads each ref
    value once, so every field naming one ref holds one string object."""

    @pytest.mark.parametrize("gen", [random_scenario, adversarial_scenario])
    @pytest.mark.parametrize("index", range(10))
    def test_equal_refs_are_one_object(self, gen, index):
        events = run(gen(index)).events
        for held in (events, trace.loads(trace.dumps(events))):
            values = ref_fields(held)
            objects = {value: set() for value in values}
            for value in values:
                objects[value].add(id(value))
            assert len(values) > len(objects)  # refs recur: the check is not vacuous
            assert all(len(ids) == 1 for ids in objects.values())


def intake_corpus():
    """(name, scenario, pending cap) of the 178 runs the block intake is
    checked on: the trace-lock corpus and both generators 0-39 at the real
    cap, and both generators 0-19 at caps 1 and 2, where runs evict."""
    generators = (("random", random_scenario), ("adversarial", adversarial_scenario))
    for name, scenario in corpus():
        yield f"lock_{name}", scenario, gossip.PENDING_CAP_PER_BUILDER
    for prefix, generate in generators:
        for i in range(40):
            yield f"{prefix}_{i}", generate(i), gossip.PENDING_CAP_PER_BUILDER
    for cap in (1, 2):
        for prefix, generate in generators:
            for i in range(20):
                yield f"cap{cap}_{prefix}_{i}", generate(i), cap


INTAKE = {name: (scenario, cap) for name, scenario, cap in intake_corpus()}


def held_blocks(sim: Simulation):
    """(server, block) for every block object a server, correct or not,
    holds in its DAG or pending buffer."""
    nodes = {server: shim.gossip for server, shim in sim.correct.items()}
    nodes.update((server, adversary.node) for server, adversary in sim.adversaries.items())
    for server, node in nodes.items():
        for block in (*map(node.dag.get, node.dag.refs()), *node.pending.values()):
            yield server, block


class TestLazyTieDigest:
    """``_schedule`` takes the SEND size from lengths, and ``_deliver_due``
    hashes an envelope's wire bytes only where it shares its link and send
    step with another envelope due at the same step. Encoding and hashing
    every envelope at send time, as ``eager_schedule`` does, is the
    reference: it must give the same trace bytes."""

    TIE_CORPUS = {
        f"{gen.__name__}({i})": gen(i) for gen in (random_scenario, adversarial_scenario) for i in range(40)
    }

    def test_eager_schedule_gives_the_same_traces(self, monkeypatch):
        tied: list[int] = []  # per run, the envelopes due with another of their link and send step
        deliver_due = Simulation._deliver_due

        def counting_deliver_due(self, now, halted=()):
            links = Counter(item[0] for item in self.inflight.get(now, ()))
            tied[-1] += sum(count for count in links.values() if count > 1)
            return deliver_due(self, now, halted)

        for name, scenario in self.TIE_CORPUS.items():
            with eager_schedule():
                eager = run(scenario).trace_text()
            tied.append(0)
            monkeypatch.setattr(Simulation, "_deliver_due", counting_deliver_due)
            lazy = run(scenario).trace_text()
            monkeypatch.undo()
            assert lazy == eager, name
        # the digest path ran: 36 of the 80 runs tie, 688 envelopes in all (38
        # runs and 1,548 envelopes share a link and send step, in any batch)
        assert (sum(map(bool, tied)), sum(tied)) == (36, 688)


class TestTieOrder:
    """``_deliver_due`` sorts a due batch by link, (receiver, sender, send
    step), and puts the envelopes of one link in their wire bytes' SHA-256
    order, hashing only those."""

    def test_only_tied_envelopes_are_hashed(self, monkeypatch):
        sim = Simulation(fig_broadcast_scenario())
        tied = [WireEnvelope(FWD_ENVELOPE, 0, 1, ref=bytes([i]) * 32) for i in (7, 8, 9)]
        untied = [
            WireEnvelope(FWD_ENVELOPE, 0, 1, ref=bytes([5]) * 32),  # one send step earlier
            WireEnvelope(FWD_ENVELOPE, 3, 1, ref=bytes([6]) * 32),
        ]
        junk = b"\xff" * 24
        items = [((1, 0, 3), 0, 1, env) for env in tied]
        items += [((1, 0, 2), 0, 1, untied[0]), ((1, 3, 3), 3, 1, untied[1]), ((0, 2, 3), 2, 0, junk)]
        sim.inflight[4] = [items[i] for i in (3, 1, 5, 0, 4, 2)]
        hashed, digest = [], simnet._digest

        def counting_digest(sent):
            hashed.append(sent)
            return digest(sent)

        monkeypatch.setattr(simnet, "_digest", counting_digest)
        sim._deliver_due(4)
        by_wire = sorted(tied, key=lambda env: hashlib.sha256(env.encode()).digest())
        assert by_wire != tied  # the digest order is not the order built
        delivered = [(e["kind"], e.get("frm"), e.get("ref")) for e in sim.events]
        assert delivered == [
            ("DROP", 2, None),  # undecodable junk, to server 0
            *(("DELIVER", 0, env.ref.hex()) for env in [untied[0], *by_wire]),
            ("DELIVER", 3, untied[1].ref.hex()),
        ]
        assert sorted(hashed) == sorted(tied)


class TestAdversaryRandom:
    """GARBAGE is the one behavior that draws random numbers, so only its
    adversaries get a seeded generator beside the delay generator."""

    @pytest.mark.parametrize(
        "kinds, generators",
        [(("EQUIVOCATE", "SELECTIVE_SEND"), 1), (("GARBAGE", "CRASH_AT"), 2), (("GARBAGE", "GARBAGE"), 3)],
    )
    def test_random_generators_per_simulation(self, kinds, generators, monkeypatch):
        made = []

        class CountingRandom(simnet.Random):
            def __init__(self, seed):
                made.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(simnet, "Random", CountingRandom)
        specs = [
            BehaviorSpec(kind, targets=(0, 1)) if kind == "SELECTIVE_SEND" else BehaviorSpec(kind)
            for kind in kinds
        ]
        scenario = Scenario(n=7, f=2, seed=9, max_steps=6, byzantine=tuple(zip((5, 6), specs)))
        sim = Simulation(scenario)
        assert len(made) == generators
        garbage = [s for s, spec in scenario.byzantine if spec.kind == "GARBAGE"]
        assert made[1:] == [(9 << 8) ^ s for s in garbage]
        assert [s for s, adv in sim.adversaries.items() if adv.rng is not None] == garbage


class TestSharedDecoding:
    """A simulation's receivers, adversaries included, are handed the
    envelope sent, so they share the object its builder sealed, hashed once
    and verified at its commit, and no block is decoded. Private decoding,
    each receiver decoding every envelope from its bytes, is the reference:
    it must give the same trace bytes."""

    def test_corpus_has_178_runs(self):
        assert len(INTAKE) == 178

    @pytest.mark.parametrize("name", list(INTAKE))
    def test_private_decoding_gives_the_same_trace(self, name, monkeypatch):
        scenario, cap = INTAKE[name]
        monkeypatch.setattr(gossip, "PENDING_CAP_PER_BUILDER", cap)
        shared = run(scenario).trace_text()
        taken = 0  # envelopes and junk handed to adversaries not halted
        on_deliver = simnet._Adversary.on_deliver

        def counting_on_deliver(self, now, envelope):
            nonlocal taken
            taken += 1
            return on_deliver(self, now, envelope)

        monkeypatch.setattr(simnet._Adversary, "on_deliver", counting_on_deliver)
        with private_decoding() as decodes:
            private = run(scenario)
        assert private.trace_text() == shared
        # the wire is empty at the end, so every send to a correct server,
        # never halted, was delivered: each delivery was decoded once
        correct = set(scenario.correct_servers())
        to_correct = sum(e["kind"] == "SEND" and e["to"] in correct for e in private.events)
        assert len(decodes) == to_correct + taken
        envelopes = [(sent, decoded) for sent, decoded in decodes if sent is not None]
        assert envelopes
        for sent, decoded in envelopes:
            assert decoded == sent
            if sent.kind == BLOCK_ENVELOPE:
                assert decoded.block is not sent.block
                assert block_ref(decoded.block) == block_ref(sent.block)
                assert block_to_wire(decoded.block) == block_to_wire(sent.block)
        garbage = any(spec.kind == "GARBAGE" for _, spec in scenario.byzantine)
        assert garbage or len(envelopes) == len(decodes)  # only junk is raw

    def test_correct_servers_share_one_object_per_block(self):
        scenario = adversarial_scenario(1)

        def objects_per_ref(result):
            # a builder's own blocks included: its receivers are handed the
            # object it sealed, so they share that object with it
            out: dict[bytes, list[int]] = {}
            for dag in result.final_dags.values():
                for ref in dag.refs():
                    out.setdefault(ref, []).append(id(dag.get(ref)))
            return out

        def distinct(held):
            return Counter(len(set(ids)) for ids in held.values())

        shared = objects_per_ref(run(scenario))
        with private_decoding():
            private = objects_per_ref(run(scenario))
        assert distinct(shared) == Counter({1: len(shared)})
        assert distinct(private) == Counter(len(ids) for ids in private.values())
        assert max(distinct(private)) > 1
        assert distinct(objects_per_ref(run(scenario))) == distinct(shared)  # put back

    def test_a_copy_with_other_signature_bytes_is_checked_on_its_own(self):
        # a receiver is handed the object sent: a copy of a good block with
        # zeroed signature bytes is its own object and fails its own check,
        # even after the good copy passed at another receiver
        sim = Simulation(fig_broadcast_scenario())  # unit delay
        good = sim.correct[0].gossip.seal((), ())
        sig = good.signature
        forged = good.with_signature(Signature(sig.scheme, bytes(len(sig.data))))
        for now, (block, receiver) in enumerate(((good, 1), (forged, 2), (good, 2))):
            sim._send_envelopes(now, [WireEnvelope(BLOCK_ENVELOPE, 0, receiver, block=block)])
            sim._deliver_due(now + 1)
        drops = [(e["server"], e["reason"]) for e in sim.events if e["kind"] == "DROP"]
        assert drops == [(2, "bad_signature")]
        at_1 = sim.correct[1].gossip.pending[block_ref(good)]
        at_2 = sim.correct[2].gossip.pending[block_ref(good)]
        assert at_1 is at_2 is good and at_1.signature == sig
        assert at_1.__dict__["_verified_by"] is sim.registry
        assert "_verified_by" not in forged.__dict__

    @pytest.mark.parametrize("name", list(EVICTING_AT_CAP_2))
    def test_no_evicted_block_is_kept_alive(self, name, monkeypatch):
        # an evicted pending block must not stay alive through the simulator:
        # once collected, it lives only if some server holds it, and the
        # servers, not the engine, are what keep it alive
        monkeypatch.setattr(gossip, "PENDING_CAP_PER_BUILDER", 2)
        generate, index = EVICTING_AT_CAP_2[name]
        evicted: list[weakref.ref] = []
        evict = gossip.GossipNode._evict_oldest

        def recording_evict(self, of_builder):
            evicted.append(weakref.ref(self.pending[next(iter(of_builder))]))
            return evict(self, of_builder)

        monkeypatch.setattr(gossip.GossipNode, "_evict_oldest", recording_evict)
        sim = Simulation(generate(index))
        result = sim.run()
        assert any(e.get("reason") == "pending_evicted" for e in result.events)
        gc.collect()
        held = {id(block) for _, block in held_blocks(sim)}
        assert all(block() is None or id(block()) in held for block in evicted)
        del result
        sim.correct.clear()
        sim.adversaries.clear()
        gc.collect()
        assert evicted and all(block() is None for block in evicted)

    @pytest.mark.parametrize("name", list(INTAKE))
    def test_a_held_block_is_not_decoded_again(self, name, monkeypatch):
        # receivers are handed the envelope sent, so no block reaches
        # block_from_wire: only raw bytes are decoded, GARBAGE junk, each
        # at most once, and always when it goes to a correct server
        scenario, cap = INTAKE[name]
        monkeypatch.setattr(gossip, "PENDING_CAP_PER_BUILDER", cap)
        decoded: Counter = Counter()
        decode = WireEnvelope.decode.__func__
        from_wire = gossip.block_from_wire

        def counting_decode(cls, data):
            decoded["envelope"] += 1
            return decode(cls, data)

        def counting_from_wire(data):
            block = from_wire(data)
            decoded["block"] += 1
            return block

        monkeypatch.setattr(WireEnvelope, "decode", classmethod(counting_decode))
        monkeypatch.setattr(gossip, "block_from_wire", counting_from_wire)
        events = run(scenario).events
        correct = set(scenario.correct_servers())
        raw = [e for e in events if e["kind"] == "SEND" and e["envelope"] == "RAW"]
        assert any(e["kind"] == "DELIVER" and e["envelope"] == "BLOCK" for e in events)
        assert decoded["block"] == 0
        assert sum(e["to"] in correct for e in raw) <= decoded["envelope"] <= len(raw)


@pytest.mark.skipif(not ed25519_available(), reason="cryptography not installed")
class TestEd25519EndToEnd:
    def test_checks_clean_and_each_block_verified_once(self, monkeypatch):
        # the backend is swapped as the benchmark swaps it: the scenario has
        # no field for it
        verified: Counter = Counter()
        verify = Ed25519Registry.verify

        def counting_verify(self, server, digest, sig):
            verified[(server, digest, sig)] += 1
            return verify(self, server, digest, sig)

        monkeypatch.setattr(simnet, "KeyRegistry", Ed25519Registry)
        monkeypatch.setattr(Ed25519Registry, "verify", counting_verify)
        scenario = Scenario(
            n=7,
            f=2,
            seed=5,
            max_steps=24,
            delay_bounds=(1, 4),
            requests=tuple(RequestInjection(2 * i, i, Label(i, 1), 40 + i) for i in range(7)),
            snapshot_steps=(8, 16),
        )
        result = run(scenario)
        for check in CHECKERS:
            report = check(result.events, scenario)
            assert report.ok and not report.vacuous, (check.__name__, report.violations[:3])
        blocks = {e["ref"] for e in result.events if e["kind"] == "INSERT"}
        assert {sig.scheme for _, _, sig in verified} == {SignatureScheme.ED25519}
        assert len(verified) == len(blocks)
        assert set(verified.values()) == {1}
