"""CLI subcommands: run, check, export-dot, census, and their exit codes."""

from __future__ import annotations

import io
import json

import pytest

from dagbft import trace
from dagbft.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATIONS, main
from dagbft.simnet import run

from .forgeries import msg_hex
from .scenarios import adversarial_scenario, fig_broadcast_scenario


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(fig_broadcast_scenario().to_dict()))
    return path


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main([str(a) for a in argv], out=out)
    return code, out.getvalue()


class TestRun:
    def test_run_writes_trace_and_summary(self, tmp_path, scenario_file):
        out_path = tmp_path / "trace.jsonl"
        code, text = run_cli("run", "--scenario", scenario_file, "--out", out_path)
        assert code == EXIT_OK
        assert "blocks" in text
        events = trace.read_jsonl(str(out_path))
        surfaced = sum(1 for e in events if e["kind"] == "INDICATE" and e["surfaced"])
        assert surfaced > 0
        assert text.rstrip().endswith(f", {surfaced} indications")

    def test_repeat_runs_are_byte_identical(self, tmp_path, scenario_file):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("run", "--scenario", scenario_file, "--out", a, "--seed", 7)
        run_cli("run", "--scenario", scenario_file, "--out", b, "--seed", 7)
        assert a.read_bytes() == b.read_bytes()

    def test_snapshot_dot_files_written(self, tmp_path, scenario_file):
        out_path = tmp_path / "trace.jsonl"
        code, _ = run_cli(
            "run", "--scenario", scenario_file, "--out", out_path, "--snapshots", "5"
        )
        assert code == EXIT_OK
        dots = sorted(tmp_path.glob("trace.step5.s*.dot"))
        assert len(dots) == 4
        assert dots[0].read_text().startswith("digraph blockdag")

    def test_bad_server_count_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 5, "f": 1, "seed": 0, "max_steps": 4}))
        code, text = run_cli("run", "--scenario", bad, "--out", tmp_path / "t.jsonl")
        assert code == EXIT_CONFIG
        assert "3f + 1" in text

    def test_snapshot_outside_horizon_is_config_error(self, tmp_path, scenario_file):
        code, text = run_cli(
            "run", "--scenario", scenario_file, "--out", tmp_path / "t.jsonl", "--snapshots", 999
        )
        assert code == EXIT_CONFIG
        assert "snapshot step" in text

    @pytest.mark.parametrize(
        "extra",
        [
            {"byzantine": [1]},
            {"requests": [{"step": 0, "server": 0, "label": [0, 1], "value": 2**64}]},
            {"requests": [{"step": 0, "server": 0, "label": [0, 1], "value": -1}]},
            {"requests": [{"step": 0, "server": 0, "label": [2**32, 1], "value": 1}]},
            {"requests": [{"step": 0, "server": 0, "label": [0, 2**64], "value": 1}]},
            {"seed": float("inf")},
            {"max_requests_per_block": 0},
            {"max_requests_per_block": -1},
            {"n": 4.9, "f": 1.2},
            {"n": 4.0},
            {"n": True, "f": False},
            {"max_steps": True},
            {"seed": "7"},
            {"cadence": 3.0},
            {"fwd_interval": True},
            {"delay_bounds": [1, 2.5]},
            {"delay_bounds": [1, 2, 3]},
            {"snapshot_steps": ["1"]},
            {"snapshot_steps": [3, 3]},
            {"byzantine": {"1": {"kind": "SELECTIVE_SEND", "targets": [True]}}},
            {"byzantine": {"1": {"kind": "CRASH_AT", "crash_step": 2.5}}},
            {"requests": [{"step": 0.0, "server": 0, "label": [0, 1], "value": 1}]},
            {"requests": [{"step": 0, "server": True, "label": [0, 1], "value": 1}]},
            {"requests": [{"step": 0, "server": 0, "label": ["0", 1], "value": 1}]},
            {"requests": [{"step": 0, "server": 0, "label": [0], "value": 1}]},
            {"requests": [{"step": 0, "server": 0, "label": [0, 1], "value": 1.5}]},
            {"requests": [{"step": 0, "server": 0, "label": [0, 1]}]},
            {"requests": [[0, 0, [0, 1], 1]]},
            {"byzantine": {"1": {"kind": "EQUIVOCATE", "targets": [1], "crash_step": 4}}},
            {"byzantine": {"1": {"kind": "SILENT", "crash_step": 0}}},
            {"byzantine": {"1": {"kind": "SELECTIVE_SEND"}}},
            {"byzantine": {"1": {"kind": "SELECTIVE_SEND", "targets": []}}},
            {"byzantine": {"x": {"kind": "SILENT"}}},
            {"byzantine": {"+1": {"kind": "SILENT"}}},
            {"byzantine": {"1": "SILENT"}},
        ],
        ids=[
            "byzantine-list", "value-too-big", "value-negative", "originator-too-big",
            "nonce-too-big", "infinite-seed", "no-requests-per-block", "negative-requests-per-block",
            "float-n-and-f", "whole-float-n", "bool-n-and-f", "bool-max-steps", "string-seed",
            "float-cadence", "bool-fwd-interval", "float-delay-bound", "delay-bounds-triple",
            "string-snapshot-step", "duplicate-snapshot-steps", "bool-target", "float-crash-step",
            "float-request-step", "bool-request-server", "string-label", "short-label",
            "float-value", "request-lacks-value", "request-list", "fields-equivocate-ignores",
            "crash-step-on-silent", "selective-send-without-targets",
            "selective-send-empty-targets", "non-decimal-byzantine-key", "signed-byzantine-key",
            "behavior-string",
        ],
    )
    def test_malformed_scenario_is_config_error(self, tmp_path, extra):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 4, "f": 1, "seed": 0, "max_steps": 4, **extra}))
        code, text = run_cli("run", "--scenario", bad, "--out", tmp_path / "t.jsonl")
        assert code == EXIT_CONFIG
        assert text.startswith("error: ")

    @pytest.mark.parametrize(
        "extra, key",
        [
            ({"drain": False}, "drain"),
            ({"adversary_budget": 4}, "adversary_budget"),
            ({"max_requests_per_block": 8}, "max_requests_per_block"),
            ({"cadance": 1}, "cadance"),
            ({"byzantine": {"1": {"kind": "SILENT", "budget": 1}}}, "budget"),
            ({"byzantine": {"1": {"kind": "EQUIVOCATE", "targets": [1]}}}, "targets"),
            (
                {"requests": [{"step": 0, "server": 0, "label": [0, 1], "value": 1, "at": 0}]},
                "at",
            ),
        ],
        ids=[
            "drain", "adversary-budget", "max-requests-per-block", "misspelled-cadence",
            "behavior-key", "targets-on-equivocate", "request-key",
        ],
    )
    def test_unknown_key_is_named(self, tmp_path, extra, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 4, "f": 1, "seed": 0, "max_steps": 4, **extra}))
        code, text = run_cli("run", "--scenario", bad, "--out", tmp_path / "t.jsonl")
        assert code == EXIT_CONFIG
        assert text.startswith("error: ") and repr(key) in text

    def test_repeated_snapshot_step_is_config_error(self, tmp_path, scenario_file):
        code, text = run_cli(
            "run", "--scenario", scenario_file, "--out", tmp_path / "t.jsonl", "--snapshots", "5,5"
        )
        assert code == EXIT_CONFIG
        assert "distinct" in text

    def test_largest_value_at_an_equivocator_runs(self, tmp_path):
        scenario = {
            "n": 4, "f": 1, "seed": 5, "max_steps": 12,
            "byzantine": {"3": {"kind": "EQUIVOCATE"}},
            "requests": [{"step": 4, "server": 3, "label": [3, 1], "value": 2**64 - 1}],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, text = run_cli("run", "--scenario", path, "--out", tmp_path / "t.jsonl")
        assert code == EXIT_OK
        assert "ran 12 steps" in text

    @pytest.mark.parametrize(
        "content", [None, b"\xff\xfe", b"[" * 200_000], ids=["missing", "not-utf8", "too-deep"]
    )
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_unreadable_scenario_is_config_error(self, tmp_path, command, content):
        path = tmp_path / "scenario.json"
        if content is not None:
            path.write_bytes(content)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        extra = {"run": ["--out", tmp_path / "t.jsonl"], "check": ["--trace", empty]}[command]
        code, text = run_cli(command, "--scenario", path, *extra)
        assert code == EXIT_CONFIG
        assert text.startswith("error: ")


class TestCheck:
    def test_clean_trace_exits_zero(self, tmp_path, scenario_file):
        out_path = tmp_path / "trace.jsonl"
        run_cli("run", "--scenario", scenario_file, "--out", out_path)
        code, text = run_cli("check", "--trace", out_path, "--scenario", scenario_file)
        assert code == EXIT_OK
        assert text.count("PASS") == 4

    def test_subset_of_props(self, tmp_path, scenario_file):
        out_path = tmp_path / "trace.jsonl"
        run_cli("run", "--scenario", scenario_file, "--out", out_path)
        code, text = run_cli(
            "check", "--trace", out_path, "--scenario", scenario_file, "--props", "brb"
        )
        assert code == EXIT_OK
        assert text.count("PASS") == 1

    def test_violations_exit_one_and_name_the_problem(self, tmp_path, scenario_file):
        forged = tmp_path / "forged.jsonl"
        events = [
            trace.event(
                0,
                "INDICATE",
                server=0,
                label=[0, 1],
                indication="000000000000002a",
                on_behalf_of=0,
                block="aa" * 32,
                surfaced=True,
            )
        ]
        trace.write_jsonl(events, str(forged))
        code, text = run_cli("check", "--trace", forged, "--scenario", scenario_file)
        assert code == EXIT_VIOLATIONS
        assert "totality" in text

    def test_empty_trace_is_vacuously_clean(self, tmp_path, scenario_file):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, text = run_cli("check", "--trace", empty, "--scenario", scenario_file)
        assert code == EXIT_OK
        assert "vacuous" in text

    def test_malformed_trace_reports_line_number(self, tmp_path, scenario_file):
        bad = tmp_path / "bad.jsonl"
        send = trace.event(0, "SEND", frm=0, to=1, envelope="BLOCK", ref=None, size=1)
        bad.write_text(trace.dumps([send]) + "not json\n")
        code, text = run_cli("check", "--trace", bad, "--scenario", scenario_file)
        assert code == EXIT_CONFIG
        assert "line 2" in text

    def test_unknown_prop_rejected(self, tmp_path, scenario_file):
        out_path = tmp_path / "trace.jsonl"
        run_cli("run", "--scenario", scenario_file, "--out", out_path)
        code, text = run_cli(
            "check", "--trace", out_path, "--scenario", scenario_file, "--props", "nope"
        )
        assert code == EXIT_CONFIG


def _insert(step, server, ref, builder, seqno, preds):
    return trace.event(
        step, "INSERT", server=server, ref=ref, builder=builder, seqno=seqno,
        preds=preds, requests=[],
    )


class TestExportDot:
    def test_three_block_trace_renders_three_nodes_two_edges(self, tmp_path):
        b1, b2, b3 = "aa" * 32, "bb" * 32, "cc" * 32
        events = [
            _insert(0, 1, b1, 0, 0, []),
            _insert(0, 1, b2, 1, 0, []),
            _insert(1, 1, b3, 0, 1, [b1, b2]),
        ]
        trace_path = tmp_path / "fig.jsonl"
        trace.write_jsonl(events, str(trace_path))
        out_path = tmp_path / "fig.dot"
        code, _ = run_cli("export-dot", "--trace", trace_path, "--out", out_path)
        assert code == EXIT_OK
        dot = out_path.read_text()
        assert dot.count("label=") == 3
        assert dot.count("->") == 2

    def test_fork_trace_renders_four_nodes_four_edges(self, tmp_path):
        b1, b2, b3, b4 = "aa" * 32, "bb" * 32, "cc" * 32, "dd" * 32
        events = [
            _insert(0, 2, b1, 0, 0, []),
            _insert(0, 2, b2, 1, 0, []),
            _insert(1, 2, b3, 0, 1, [b1, b2]),
            _insert(1, 2, b4, 0, 1, [b1, b2]),
        ]
        trace_path = tmp_path / "fork.jsonl"
        trace.write_jsonl(events, str(trace_path))
        out_path = tmp_path / "fork.dot"
        code, _ = run_cli("export-dot", "--trace", trace_path, "--out", out_path)
        assert code == EXIT_OK
        dot = out_path.read_text()
        assert dot.count("label=") == 4
        assert dot.count("->") == 4

    def test_deterministic_bytes(self, tmp_path, scenario_file):
        trace_path = tmp_path / "trace.jsonl"
        run_cli("run", "--scenario", scenario_file, "--out", trace_path)
        d1, d2 = tmp_path / "one.dot", tmp_path / "two.dot"
        run_cli("export-dot", "--trace", trace_path, "--out", d1)
        run_cli("export-dot", "--trace", trace_path, "--out", d2)
        assert d1.read_bytes() == d2.read_bytes()

    def test_trace_without_inserts_is_config_error(self, tmp_path):
        trace_path = tmp_path / "none.jsonl"
        trace.write_jsonl([trace.event(0, "DROP", server=0, reason="x")], str(trace_path))
        code, _ = run_cli("export-dot", "--trace", trace_path, "--out", tmp_path / "o.dot")
        assert code == EXIT_CONFIG


_MALFORMED_EVENTS = [
    '{"schema":1,"step":0,"kind":"INSERT"}',
    '{"schema":1,"step":0,"kind":"INSERT","server":0,"builder":0,"seqno":0,"preds":[],"requests":[]}',
    '{"schema":1,"step":0,"kind":"SEND","frm":0,"to":1,"envelope":"BLOCK","ref":null}',
    '{"schema":1,"step":0,"kind":"INTERPRET","server":0,"ref":"aa","builder":0,'
    '"labels":[{"label":[0,1],"fed":[],"emitted":[],"skipped":0}]}',
    '{"schema":1,"step":0,"kind":"INTERPRET","server":0,"ref":"aa","builder":0,"labels":[7]}',
    '{"schema":1,"step":0,"kind":["INSERT"]}',
    # present but wrongly typed
    '{"schema":1,"step":0,"kind":"INSERT","server":0,"ref":"aa","builder":0,"seqno":0,'
    '"preds":5,"requests":[]}',
    '{"schema":1,"step":0,"kind":"INSERT","server":"x","ref":"aa","builder":0,"seqno":0,'
    '"preds":[],"requests":[]}',
    '{"schema":1,"step":0,"kind":"INDICATE","server":0,"label":[0],"indication":"2a",'
    '"on_behalf_of":0,"block":"aa","surfaced":true}',
    '{"schema":1,"step":0,"kind":"INTERPRET","server":0,"ref":"aa","builder":0,'
    '"labels":[{"label":[0,1],"fed":3,"emitted":[],"state":"11","skipped":0}]}',
    '{"schema":1,"step":true,"kind":"PROMOTE","server":0,"ref":"aa"}',
    '{"schema":true,"step":0,"kind":"PROMOTE","server":0,"ref":"aa"}',
    '{"schema":1.0,"step":0,"kind":"PROMOTE","server":0,"ref":"aa"}',
    pytest.param("[" * 200_000, id="nested-too-deep"),
]


def _interpret_emitting(message_hex: str) -> list[dict]:
    entry = {"label": [0, 1], "fed": [], "emitted": [message_hex], "state": "11", "skipped": 0}
    return [
        _insert(0, 1, "aa" * 32, 0, 0, []),
        trace.event(0, "INTERPRET", server=1, ref="aa" * 32, builder=0, labels=[entry]),
    ]


def _indicating(indication_hex: str) -> list[dict]:
    return [
        trace.event(
            0, "INDICATE", server=2, label=[0, 1], indication=indication_hex, on_behalf_of=2,
            block="aa" * 32, surfaced=True,
        )
    ]


class TestMalformedEvents:
    """A line the JSON decoder cannot read, or one that lacks a field every
    event of its kind carries or gives one a wrong type, is malformed input:
    exit 2 with its line number, for every subcommand that reads a trace,
    never a traceback or a violation. So is a file that is not UTF-8."""

    @staticmethod
    def _run_on(tmp_path, scenario_file, command, content: bytes):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(trace.dumps([_insert(0, 1, "aa" * 32, 0, 0, [])]).encode() + content)
        extra = {
            "check": ["--scenario", scenario_file],
            "export-dot": ["--out", tmp_path / "o.dot"],
            "census": [],
        }[command]
        return run_cli(command, "--trace", bad, *extra)

    @pytest.mark.parametrize("line", _MALFORMED_EVENTS)
    @pytest.mark.parametrize("command", ["check", "export-dot", "census"])
    def test_rejected_with_line_number(self, tmp_path, scenario_file, command, line):
        code, text = self._run_on(tmp_path, scenario_file, command, line.encode() + b"\n")
        assert code == EXIT_CONFIG
        assert "line 2" in text

    @pytest.mark.parametrize("command", ["check", "export-dot", "census"])
    def test_text_that_is_not_utf8_is_rejected(self, tmp_path, scenario_file, command):
        code, text = self._run_on(tmp_path, scenario_file, command, b"\xff\xfe\n")
        assert code == EXIT_CONFIG
        assert "not UTF-8" in text

    @pytest.mark.parametrize(
        "scenario", [fig_broadcast_scenario(), adversarial_scenario(3)], ids=["fig", "adv3"]
    )
    def test_required_fields_are_those_every_simulated_event_carries(self, scenario):
        events = run(scenario).events
        assert trace.loads(trace.dumps(events)) == events
        common: dict[str, set[str]] = {}
        for e in events:
            common.setdefault(e["kind"], set(e)).intersection_update(e)
        for kind, fields in common.items():
            assert fields - {"schema", "step", "kind"} == set(trace.FIELDS[kind]), kind
        for e in events:
            for name, spec in trace.FIELDS[e["kind"]].items():
                assert trace.conforms(e[name], spec), (e["kind"], name, e[name])
            if e["kind"] == "INTERPRET":
                for entry in e["labels"]:
                    assert set(entry) == set(trace.LABEL_FIELDS)
                    for name, spec in trace.LABEL_FIELDS.items():
                        assert trace.conforms(entry[name], spec), (name, entry[name])

    @pytest.mark.parametrize(
        "events, named",
        [
            (_interpret_emitting("zz"), f"server 1 block {'aa' * 6}: undecodable message"),
            (_interpret_emitting("00"), f"server 1 block {'aa' * 6}: undecodable message"),
            (_indicating("zz"), "server 2 label 0/1: undecodable indication"),
            (_indicating("00"), "server 2 label 0/1: undecodable indication"),
        ],
        ids=["not-hex", "not-a-message", "indication-not-hex", "indication-not-eight-bytes"],
    )
    def test_undecodable_message_is_malformed_input(self, tmp_path, scenario_file, events, named):
        bad_trace = tmp_path / "bad.jsonl"
        trace.write_jsonl(events, str(bad_trace))
        code, text = run_cli("check", "--trace", bad_trace, "--scenario", scenario_file)
        assert code == EXIT_CONFIG
        assert f"malformed trace: {named}" in text

    def test_message_fed_to_a_block_never_inserted_is_one_violation(self, tmp_path, scenario_file):
        entry = {"label": [0, 1], "fed": [msg_hex(0, 1)], "emitted": [], "state": "11", "skipped": 0}
        forged = tmp_path / "forged.jsonl"
        trace.write_jsonl(
            [trace.event(0, "INTERPRET", server=1, ref="ff" * 32, builder=1, labels=[entry])],
            str(forged),
        )
        code, text = run_cli(
            "check", "--trace", forged, "--scenario", scenario_file, "--props", "ppl"
        )
        assert code == EXIT_VIOLATIONS
        assert "FAIL point-to-point: 1 violation(s)" in text
        assert "  authenticity: interpreter 1:" in text


class TestCensus:
    def test_census_prints_counts(self, tmp_path, scenario_file):
        trace_path = tmp_path / "trace.jsonl"
        run_cli("run", "--scenario", scenario_file, "--out", trace_path)
        code, text = run_cli("census", "--trace", trace_path)
        assert code == EXIT_OK
        assert "block_envelopes:" in text
        assert "wire_protocol_messages: 0" in text

    def test_missing_subcommand_is_usage_error(self):
        code, _ = run_cli()
        assert code == EXIT_CONFIG
