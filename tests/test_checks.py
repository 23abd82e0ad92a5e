"""Trace checkers: clean runs stay clean, forged traces are caught."""

from __future__ import annotations

import gc
import re
from itertools import chain

import pytest

from dagbft import checks, cli, trace
from dagbft.brb import encode_deliver
from dagbft.checks import (
    check_brb,
    check_convergence,
    check_interpretation_agreement,
    check_point_to_point,
    message_census,
)
from dagbft.interpret import Interpreter
from dagbft.protocol import Label, message_from_canonical
from dagbft.simnet import BehaviorSpec, RequestInjection, Scenario, run

from . import forgeries, oracles
from .forgeries import (
    W,
    X,
    Y,
    Z,
    forged_base,
    forged_byzantine_refeed,
    forged_conflicting_preds,
    forged_cross_edge,
    forged_duplicate,
    forged_failure_order,
    forged_fed_to_uninserted_block,
    forged_interpret_only_server,
    forged_interpreted_only_pred,
    forged_partitioned,
    forged_unclosed_snapshot,
    forged_unsigned_origin,
)
from .scenarios import adversarial_scenario, fig_broadcast_scenario, random_scenario
from .test_trace_lock import corpus as trace_lock_corpus

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
        scenario, events = forged_fed_to_uninserted_block()
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

    def test_interpreted_only_pred_vouches_for_its_messages(self):
        # V's INTERPRET event, without its INSERT, still names V as the
        # origin block of the echo Z and W both feed
        scenario, events = forged_interpreted_only_pred()
        for pass_events in (events, trace.loads(trace.dumps(events))):
            report = check_point_to_point(pass_events, scenario)
            assert _report(report) == _report(oracles.check_point_to_point(pass_events, scenario))
            assert report.violations == [
                f"no-duplication: interpreter 1: origin block {'ee' * 6} contributed the same "
                "message twice to server 1 (label 0/1)"
            ]

    def test_violations_reported_in_edge_order(self):
        # by emitting block, label, place in its out-buffer and the receiving
        # block's INSERT order; then no duplication; then by feeding block,
        # label and place in its in-buffer
        scenario, events = forged_failure_order()
        for pass_events in (events, trace.loads(trace.dumps(events))):
            report = check_point_to_point(pass_events, scenario)
            assert _report(report) == _report(oracles.check_point_to_point(pass_events, scenario))
            blocks = [re.findall(r"in-buffer of (\w\w)", v) for v in report.violations]
            assert blocks == [["cc"], ["22"], ["11"], ["dd"], [], ["dd"], ["dd"], ["dd"]]
            senders = [re.findall(r"sender (\d)", v) for v in report.violations[5:]]
            assert senders == [["2"], ["3"], ["2"]]

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
        entries = sum(len(body.acts) for v in views.values() for body in v.bodies)
        assert entries > len(distinct)

    @pytest.mark.parametrize(
        "scenario", [fig_broadcast_scenario(), adversarial_scenario(1)], ids=["fig_broadcast", "adversarial"]
    )
    def test_every_message_is_an_untracked_plain_bytes(self, scenario, monkeypatch):
        # what a run's reports feed and emit, and what the views decode, in
        # memory and read back: no subclass, and nothing the cyclic
        # collector tracks
        reports = []
        run_to_fixpoint = Interpreter.run_to_fixpoint

        def recording(interpreter):
            out = run_to_fixpoint(interpreter)
            reports.extend(out)
            return out

        monkeypatch.setattr(Interpreter, "run_to_fixpoint", recording)
        events = run(scenario).events
        fed = [m for report in reports for act in report.labels for m in (*act.fed, *act.emitted)]
        decoded = [
            m
            for held in (events, trace.loads(trace.dumps(events)))
            for view in checks.server_views(held).values()
            for body in view.bodies
            for buffers in body.acts.values()
            for m in chain(*buffers)
        ]
        assert fed and decoded
        for m in fed + decoded:
            assert type(m) is bytes and not gc.is_tracked(m)

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

    @pytest.mark.parametrize("read_back", [False, True], ids=["in memory", "read back"])
    def test_a_pass_reads_the_event_list_once(self, read_back):
        events = run(adversarial_scenario(1)).events
        if read_back:
            events = trace.loads(trace.dumps(events))
        counted = _IterCounted(events)
        views = checks.server_views(counted)
        assert counted.iterations == 1
        assert views[0].interpreted and views[0].inserts

    @pytest.mark.parametrize("read_back", [False, True], ids=["in memory", "read back"])
    def test_one_distinct_preds_list_per_distinct_preds_list(self, read_back, monkeypatch):
        # a run and trace.loads both give equal preds lists one object, also
        # those of distinct refs (genesis blocks, an equivocator's forks), so
        # the list is found by its id alone
        events = run(adversarial_scenario(1)).events
        if read_back:
            events = trace.loads(trace.dumps(events))
        inserts = [ev for ev in events if ev["kind"] == "INSERT"]
        distinct = {tuple(ev["preds"]) for ev in inserts}
        calls = []

        class Counting(dict):
            @classmethod
            def fromkeys(cls, keys, value=None):
                calls.append(keys)
                return dict.fromkeys(keys, value)

        monkeypatch.setattr(checks, "dict", Counting, raising=False)
        views = checks.server_views(events)
        assert len(calls) == len(distinct) < len(inserts)
        shared = {}
        for view in views.values():
            for ref, preds in view.preds.items():
                assert shared.setdefault(tuple(view.inserts[ref]["preds"]), preds) is preds


class _IterCounted(list):
    """A list that counts the passes made over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _report(report: checks.CheckReport) -> tuple:
    return report.violations, report.checked, report.vacuous


class TestReadPaths:
    """Each checker reads only the trace facts its property names: only the
    link properties decode messages, through the one per-server view."""

    def test_convergence_and_agreement_decode_no_message(self, monkeypatch):
        scenario = fig_broadcast_scenario()
        events = run(scenario).events
        checkers = (check_convergence, check_interpretation_agreement)
        want = [_report(checker(events, scenario)) for checker in checkers]

        def refuse(*args):
            raise AssertionError("read the messages")

        monkeypatch.setattr(checks, "server_views", refuse)
        monkeypatch.setattr(checks, "message_from_canonical", refuse)
        assert [_report(checker(events, scenario)) for checker in checkers] == want
        assert all(checked for _, checked, _ in want)

    def test_a_check_pass_builds_the_views_once(self, monkeypatch):
        # the order `dagbft check` runs the checkers in by default, and the
        # benchmark's check pass too
        scenario = fig_broadcast_scenario()
        events = run(scenario).events
        calls = []
        server_views = checks.server_views

        def counting(events):
            calls.append(len(events))
            return server_views(events)

        monkeypatch.setattr(checks, "server_views", counting)
        for checker in cli._CHECKERS.values():
            assert checker(events, scenario).ok
        assert calls == [len(events)]

    def test_interpret_only_server_and_repeated_entry(self):
        scenario, events = forged_interpret_only_server()
        convergence = check_convergence(events, scenario)
        assert (len(convergence.violations), convergence.checked) == (12, 32)
        assert all(v.endswith("final DAG of server 2") for v in convergence.violations)
        assert _report(check_interpretation_agreement(events, scenario)) == ([], 2, False)


def _interpret_twice(events: list[dict]) -> None:
    events.append(dict(events[5], step=2))  # Z's INTERPRET event again


def _interpret_again_without_labels(events: list[dict]) -> None:
    events.append(dict(events[5], step=2, labels=[]))  # Z's entry for label 0/1 still holds


def _repeat_a_label(events: list[dict]) -> None:
    entry = events[5]["labels"][0]  # Z's only entry; the last entry for a label holds
    events[5]["labels"].insert(0, dict(entry, fed=[]))


def _interpret_without_insert(events: list[dict]) -> None:
    events.append(trace.event(2, "INTERPRET", server=1, ref=W, builder=1, labels=[]))


_SCENARIO_CORPUS = dict(trace_lock_corpus()) | {
    f"{make.__name__} {i}": make(i) for make in (random_scenario, adversarial_scenario) for i in range(40)
}


def _decided_once(events: list[dict], scenario: Scenario, monkeypatch) -> list[checks.CheckReport]:
    """The point-to-point reports of the events in memory and read back from
    text, each pass deciding each distinct block key once."""
    decided = []
    decide = checks._decide_block

    def counting(key, correct):
        decided.append(key)
        return decide(key, correct)

    monkeypatch.setattr(checks, "_decide_block", counting)
    reports = []
    for pass_events in (events, trace.loads(trace.dumps(events))):
        decided.clear()
        reports.append(check_point_to_point(pass_events, scenario))
        assert len(decided) == len(set(decided))
    return reports


class TestPerBlockVerdicts:
    """Every block a server inserted or interpreted has a verdict key, and a
    pass decides each distinct key once, passing or failing, and reports
    what the reference checker reports, in memory and read back from text."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda events: None,
            _interpret_twice,
            _interpret_again_without_labels,
            _repeat_a_label,
            _interpret_without_insert,
        ],
        ids=[
            "clean",
            "interpreted twice",
            "interpreted again without labels",
            "label repeated in a body",
            "interpreted, not inserted",
        ],
    )
    def test_odd_views_match_the_reference(self, edit):
        scenario, events = forged_base()
        edit(events)
        for pass_events in (events, trace.loads(trace.dumps(events))):
            got = _report(check_point_to_point(pass_events, scenario))
            assert got == _report(oracles.check_point_to_point(pass_events, scenario))
            assert got[0] == [] and got[1] > 0

    @pytest.mark.parametrize("scenario", list(_SCENARIO_CORPUS.values()), ids=list(_SCENARIO_CORPUS))
    def test_clean_runs_decide_each_block_once(self, scenario, monkeypatch):
        for report in _decided_once(run(scenario).events, scenario, monkeypatch):
            assert report.ok and not report.vacuous

    def test_failing_blocks_decided_once(self, monkeypatch):
        # a failing verdict carries its violations, so every server holding
        # the block reuses it as it reuses a passing one
        cases = [getattr(forgeries, name)() for name in dir(forgeries) if name.startswith("forged_")]
        cases += [(scenario, events) for _, scenario, events in forgeries.seeded_body_mutants()]
        failing = 0
        for scenario, events in cases:
            in_memory, _ = _decided_once(events, scenario, monkeypatch)
            failing += not in_memory.ok
        assert failing > len(cases) / 2


_FILE_CORPUS = {"fig_broadcast": fig_broadcast_scenario()} | {
    f"{make.__name__} {i}": make(i) for make in (random_scenario, adversarial_scenario) for i in range(20)
}


@pytest.mark.parametrize("scenario", list(_FILE_CORPUS.values()), ids=list(_FILE_CORPUS))
def test_file_and_memory_traces_give_equal_reports(scenario):
    # in memory the correct servers' INTERPRET events share one labels list
    # per block, and read from a file one per distinct list; the views
    # decode each list object once
    events = run(scenario).events
    loaded = trace.loads(trace.dumps(events))
    for checker in ALL_CHECKERS:
        assert _report(checker(loaded, scenario)) == _report(checker(events, scenario)), checker
    assert message_census(loaded) == message_census(events)


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

    def test_conflicting_preds_judged_pair_by_pair(self):
        # server 1 records Y without its pred X: its snapshot alone fails at
        # the servers that have the edge, and every union with a snapshot
        # holding the edge fails at server 1
        scenario, events = forged_conflicting_preds()
        report = check_convergence(events, scenario)
        assert report.checked == 27
        failing = [
            (0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1), (1, 1, 0),
            (1, 1, 2), (1, 2, 1), (2, 0, 1), (2, 1, 1), (2, 2, 1),
        ]  # (s1, s2, target)
        assert report.violations == [
            f"convergence: union of snapshots ({a}@1, {b}@1) is not extended by the final DAG of server {t}"
            for a, b, t in failing
        ]

    def test_unclosed_snapshot_fails_only_its_union_with_the_pred(self):
        # server 0's snapshot holds Y but not its pred X, server 2's holds X
        # alone: only their union lacks the edge X -> Y every final DAG has
        scenario, events = forged_unclosed_snapshot()
        report = check_convergence(events, scenario)
        assert report.checked == 27
        assert report.violations == [
            f"convergence: union of snapshots ({a}@1, {b}@1) is not extended by the final DAG of server {t}"
            for a, b in ((0, 2), (2, 0))
            for t in (0, 1, 2)
        ]

    def test_pairs_compared_edge_by_edge_only_when_a_condition_fails(self, monkeypatch):
        # C1 (one distinct-preds set per ref) and C2 (closed snapshots) hold
        # on simulated traces, which are then judged per snapshot; each of
        # the three forgeries breaks one, and is judged pair by pair
        calls = []
        edges_within = checks._edges_within

        def counting(preds, refs):
            calls.append(len(refs))
            return edges_within(preds, refs)

        monkeypatch.setattr(checks, "_edges_within", counting)
        scenario = fig_broadcast_scenario()
        assert check_convergence(run(scenario).events, scenario).ok
        assert calls == []
        for forged in (forged_cross_edge, forged_conflicting_preds, forged_unclosed_snapshot):
            calls.clear()
            scenario, events = forged()
            check_convergence(events, scenario)
            assert calls, forged.__name__

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

