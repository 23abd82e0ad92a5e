"""Trace checkers: clean runs stay clean, forged traces are caught."""

from __future__ import annotations

import re

from dagbft import checks, trace
from dagbft.brb import encode_deliver
from dagbft.checks import (
    check_brb,
    check_convergence,
    check_interpretation_agreement,
    check_point_to_point,
    message_census,
)
from dagbft.protocol import Label, message_from_canonical
from dagbft.simnet import BehaviorSpec, RequestInjection, Scenario, run

from .forgeries import (
    V,
    W,
    X,
    Y,
    Z,
    forged_base,
    forged_byzantine_refeed,
    forged_cross_edge,
    forged_duplicate,
    forged_partitioned,
    forged_unsigned_origin,
    msg_hex,
)
from .scenarios import fig_broadcast_scenario

ALL_CHECKERS = (
    check_point_to_point,
    check_brb,
    check_convergence,
    check_interpretation_agreement,
)


class TestCleanRuns:
    def test_honest_run_is_clean(self):
        scenario = fig_broadcast_scenario()
        result = run(scenario)
        for checker in ALL_CHECKERS:
            report = checker(result.events, scenario)
            assert report.ok, report.violations
            assert not report.vacuous

    def test_byzantine_run_is_clean(self):
        scenario = Scenario(
            n=7,
            f=2,
            seed=41,
            max_steps=15,
            delay_bounds=(1, 3),
            byzantine=(
                (4, BehaviorSpec("EQUIVOCATE")),
                (6, BehaviorSpec("SELECTIVE_SEND", targets=(0, 1, 2))),
            ),
            requests=(RequestInjection(0, 0, Label(0, 1), 42),),
            snapshot_steps=(5, 10),
        )
        result = run(scenario)
        for checker in ALL_CHECKERS:
            report = checker(result.events, scenario)
            assert report.ok, report.violations

    def test_equivocating_originator_keeps_agreement(self):
        # the byzantine originator forks its broadcast into two values;
        # validity is vacuous, but correct servers never split: either a
        # single common value is delivered everywhere or nobody delivers
        scenario = Scenario(
            n=4,
            f=1,
            seed=47,
            max_steps=18,
            delay_bounds=(1, 2),
            byzantine=((3, BehaviorSpec("EQUIVOCATE")),),
            requests=(RequestInjection(1, 3, Label(3, 1), 42),),
            snapshot_steps=(9,),
        )
        result = run(scenario)
        report = check_brb(result.events, scenario)
        assert report.ok, report.violations
        per_server: dict[int, set[str]] = {}
        for ev in result.events:
            if ev["kind"] == "INDICATE" and ev["surfaced"]:
                per_server.setdefault(ev["server"], set()).add(ev["indication"])
        values = {v for vs in per_server.values() for v in vs}
        assert len(values) <= 1
        if per_server:
            assert set(per_server) == {0, 1, 2}

    def test_empty_trace_is_vacuous(self):
        # no recorded activity and no promised broadcasts: nothing to judge
        scenario = Scenario(n=4, f=1, seed=0, max_steps=3)
        for checker in ALL_CHECKERS:
            report = checker([], scenario)
            assert report.ok
            assert report.vacuous

    def test_empty_trace_with_promised_broadcast_fails_validity(self):
        # the scenario says a correct originator broadcast; an empty trace
        # means the deliveries were lost
        scenario = fig_broadcast_scenario()
        report = check_brb([], scenario)
        assert not report.ok
        assert all(v.startswith(("validity",)) for v in report.violations)


class TestNegativeFixtures:
    def test_clean_forged_base(self):
        scenario, events = forged_base()
        assert check_point_to_point(events, scenario).ok

    def test_duplicated_delivery_caught_exactly_once(self):
        scenario, events = forged_duplicate()
        report = check_point_to_point(events, scenario)
        assert len(report.violations) == 1
        assert report.violations[0].startswith("no-duplication")

    def test_unsigned_origin_caught_exactly_once(self):
        scenario, events = forged_unsigned_origin()
        report = check_point_to_point(events, scenario)
        assert len(report.violations) == 1
        assert report.violations[0].startswith("authenticity")

    def test_message_fed_to_a_block_never_inserted_caught_once(self):
        # an interpretation of a block its server never inserted has no
        # referenced block to vouch for a correct sender's message
        scenario, events = forged_base()
        entry = {"label": [0, 1], "fed": [msg_hex(0, 1)], "emitted": [], "state": "33" * 32, "skipped": 0}
        events.append(trace.event(2, "INTERPRET", server=1, ref=V, builder=1, labels=[entry]))
        report = check_point_to_point(events, scenario)
        assert report.violations == [
            f"authenticity: interpreter 1: message claiming sender 0 in in-buffer of {'ee' * 6} "
            "has no signed origin block (label 0/1)"
        ]

    def test_byzantine_message_refed_from_one_origin_caught_once(self):
        scenario, events = forged_byzantine_refeed()
        report = check_point_to_point(events, scenario)
        assert report.violations == [
            f"no-duplication: interpreter 1: origin block {'ee' * 6} contributed the same "
            "message twice to server 1 (label 0/1)"
        ]

    def test_dropped_delivery_caught(self):
        # block Z references X but the echo addressed to server 1 is missing
        # from its in-buffer
        scenario, events = forged_base()
        events[5]["labels"][0]["fed"] = []
        report = check_point_to_point(events, scenario)
        assert any(v.startswith("reliable-delivery") for v in report.violations)


class TestServerViews:
    def test_each_distinct_message_decoded_once(self, monkeypatch):
        events = run(fig_broadcast_scenario()).events
        distinct = {
            h
            for ev in events
            if ev["kind"] == "INTERPRET"
            for act in ev["labels"]
            for h in act["fed"] + act["emitted"]
        }
        calls = []

        def counting(data):
            calls.append(data)
            return message_from_canonical(data)

        monkeypatch.setattr(checks, "message_from_canonical", counting)
        views = checks.server_views(events)
        assert len(calls) == len(distinct) > 0
        assert sum(len(v.fed) for v in views.values()) > len(distinct)

    def test_preds_kept_distinct_in_order_from_the_first_insert(self):
        scenario, events = forged_base()
        events.append(
            trace.event(2, "INSERT", server=1, ref=W, builder=2, seqno=0, preds=[X, Z, X], requests=[])
        )
        events.append(
            trace.event(3, "INSERT", server=1, ref=W, builder=2, seqno=0, preds=[Y], requests=[])
        )
        view = checks.server_views(events)[1]
        assert view.preds == {X: [], Y: [], Z: [Y, X], W: [X, Z]}
        assert view.inserts[W]["step"] == 2


class TestBrbChecker:
    def _events_with_delivery(self, server: int, value: int, surfaced=True):
        return [
            trace.event(
                5,
                "INDICATE",
                server=server,
                label=[0, 1],
                indication=encode_deliver(value).hex(),
                on_behalf_of=server,
                block="aa" * 32,
                surfaced=surfaced,
            )
        ]

    def _scenario(self):
        return Scenario(
            n=4,
            f=1,
            seed=0,
            max_steps=3,
            requests=(RequestInjection(0, 0, Label(0, 1), 42),),
        )

    def test_missing_deliveries_fail_validity_and_totality(self):
        scenario = self._scenario()
        events = self._events_with_delivery(0, 42)
        report = check_brb(events, scenario)
        kinds = {v.split(":")[0] for v in report.violations}
        assert "validity" in kinds
        assert "totality" in kinds

    def test_wrong_value_fails_integrity_and_consistency(self):
        scenario = self._scenario()
        events = []
        for server in range(4):
            events += self._events_with_delivery(server, 42 if server else 57)
        report = check_brb(events, scenario)
        kinds = {v.split(":")[0] for v in report.violations}
        assert "integrity" in kinds
        assert "consistency" in kinds

    def test_double_delivery_fails_no_duplication(self):
        scenario = self._scenario()
        events = []
        for server in range(4):
            events += self._events_with_delivery(server, 42)
        events += self._events_with_delivery(2, 42)
        report = check_brb(events, scenario)
        assert any(v.startswith("no-duplication") for v in report.violations)

    def test_unsurfaced_indications_ignored(self):
        scenario = self._scenario()
        events = []
        for server in range(4):
            events += self._events_with_delivery(server, 42)
        events += self._events_with_delivery(1, 99, surfaced=False)
        assert check_brb(events, scenario).ok


class TestConvergenceChecker:
    def test_forged_divergence_detected(self):
        scenario = Scenario(n=4, f=1, seed=0, max_steps=6, snapshot_steps=(2,))
        # server 0 permanently holds a block that server 1 never gets
        events = [
            trace.event(0, "INSERT", server=0, ref="aa" * 32, builder=2, seqno=0, preds=[], requests=[]),
            trace.event(0, "INSERT", server=1, ref="bb" * 32, builder=3, seqno=0, preds=[], requests=[]),
        ]
        report = check_convergence(events, scenario)
        assert not report.ok

    def test_edge_across_two_snapshots_fails_only_their_union(self):
        # each snapshot alone is extended by every final DAG; only the
        # union of the two lacks server 1's edge between them
        scenario, events = forged_cross_edge()
        report = check_convergence(events, scenario)
        assert report.checked == 27
        assert report.violations == [
            "convergence: union of snapshots (0@1, 2@1) is not extended by the final DAG of server 1",
            "convergence: union of snapshots (2@1, 0@1) is not extended by the final DAG of server 1",
        ]

    def test_violations_reported_in_pair_order(self):
        scenario, events = forged_partitioned()
        report = check_convergence(events, scenario)
        assert report.checked == 2 * 2 * 2 * 2 * 2
        pairs = [
            tuple(int(x) for x in re.findall(r"\d+", v)) for v in report.violations
        ]  # (s1, t1, s2, t2, target)
        assert len(pairs) == 16
        assert pairs == sorted(pairs, key=lambda p: (p[0], p[2], p[1], p[3], p[4]))
        assert {p[4] for p in pairs} == {0, 1}

    def test_no_snapshots_is_vacuous(self):
        scenario = Scenario(n=4, f=1, seed=0, max_steps=6)
        events = [
            trace.event(0, "INSERT", server=0, ref="aa" * 32, builder=0, seqno=0, preds=[], requests=[]),
        ]
        assert check_convergence(events, scenario).vacuous


class TestAgreementChecker:
    def test_forged_disagreement_detected(self):
        scenario = Scenario(n=4, f=1, seed=0, max_steps=3)
        common = dict(ref="aa" * 32, builder=0)
        events = [
            trace.event(0, "INTERPRET", server=0, labels=[{"label": [0, 1], "fed": [], "emitted": [], "state": "11" * 32, "skipped": 0}], **common),
            trace.event(0, "INTERPRET", server=1, labels=[{"label": [0, 1], "fed": [], "emitted": [], "state": "22" * 32, "skipped": 0}], **common),
        ]
        report = check_interpretation_agreement(events, scenario)
        assert len(report.violations) == 1


class TestCensus:
    def test_wire_is_blocks_and_fwd_only(self):
        result = run(fig_broadcast_scenario())
        census = message_census(result.events)
        assert census.other_envelopes == 0
        assert census.noise_envelopes == 0
        assert census.block_envelopes > 0
        assert census.fwd_envelopes == 0  # lockstep run loses nothing

    def test_block_envelope_arithmetic(self):
        # every built block goes to every server exactly once
        result = run(fig_broadcast_scenario())
        census = message_census(result.events)
        assert census.block_envelopes == census.blocks_built * 4

    def test_materialized_messages_counted(self):
        result = run(fig_broadcast_scenario())
        census = message_census(result.events)
        assert census.materialized_messages >= 20
        assert census.deliveries_surfaced == 4
        # the messages the lowest interpreting server's interpretation emitted
        interprets = [e for e in result.events if e["kind"] == "INTERPRET"]
        lowest = min(e["server"] for e in interprets)
        acts = [a for e in interprets if e["server"] == lowest for a in e["labels"]]
        assert census.materialized_messages == sum(len(a["emitted"]) for a in acts)
