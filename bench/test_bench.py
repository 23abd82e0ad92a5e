"""Tests for the benchmark's own checks, on the short smoke form of each
workload. Run with ``python3 -m pytest bench``.

Each check is shown to pass on a clean run and to reject a seeded fault.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
from pathlib import Path

import pytest

import harness  # puts the checkout's src/ on sys.path
import oracle
import run
from dagbft import gossip, simnet
from tracer import Tracer
from workloads import WORKLOADS

BENCHMARK_JSON = Path(harness.ROOT, "BENCHMARK.json")


def smoke_run(name: str, seed: int = 1):
    workload = WORKLOADS[name](seed, smoke=True)
    with harness.registry(workload.registry_class):
        result, text = harness.run_once(workload.scenario)
    return workload.scenario, result, text


@pytest.fixture(scope="module")
def brb_smoke():
    return smoke_run("brb-many-labels")


def surfaced_indications(events):
    return [i for i, ev in enumerate(events) if ev["kind"] == "INDICATE" and ev["surfaced"]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_every_check(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--smoke"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 40
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_removed_indication_is_rejected(brb_smoke):
    scenario, result, _ = brb_smoke
    clean = oracle.check_deliveries(scenario, result.events)
    assert clean.failed == 0 and not clean.failures and not clean.problems
    events = list(result.events)
    del events[surfaced_indications(events)[0]]
    outcome = oracle.check_deliveries(scenario, events)
    assert outcome.failed == 1
    assert outcome.attempted == clean.attempted
    assert harness.run_checkers(events, scenario)


def test_altered_indication_is_rejected(brb_smoke):
    scenario, result, _ = brb_smoke
    events = list(result.events)
    index = surfaced_indications(events)[-1]
    value = int(events[index]["indication"], 16)
    events[index] = {**events[index], "indication": (value ^ 1).to_bytes(8, "big").hex()}
    outcome = oracle.check_deliveries(scenario, events)
    assert outcome.failed == 1
    assert "expected" in outcome.failures[0]


def test_missing_correct_block_after_drain_is_rejected(brb_smoke):
    scenario, result, _ = brb_smoke
    assert oracle.check_final_dags(scenario, result.final_dags) == []
    dag = result.final_dags[0].copy()
    last = max(dag.refs(), key=lambda ref: dag.get(ref).seqno)
    del dag._vertices[last]
    problems = oracle.check_final_dags(scenario, {**result.final_dags, 0: dag})
    assert problems and "server 0 lacks 1" in problems[0]


def test_traced_run_matches_untraced_run():
    scenario, _, untraced = smoke_run("byzantine-reorder")
    with Tracer() as tracer:
        result, traced = harness.run_once(scenario)
    assert oracle.check_same_trace(untraced, traced) == []
    assert tracer.summary().calls("blockdag.is_valid") > 0
    # every wrapper is gone again
    assert simnet.run.__module__ == "dagbft.simnet" and not hasattr(simnet.run, "__wrapped__")


def test_trace_that_differs_under_tracing_is_rejected(monkeypatch):
    scenario, _, untraced = smoke_run("byzantine-reorder")
    # a faulty wrapper that swallows the FWD requests of the traced run
    monkeypatch.setattr(gossip.GossipNode, "request_missing", lambda self, now, force=False: [])
    with Tracer():
        _, traced = harness.run_once(scenario)
    problems = oracle.check_same_trace(untraced, traced)
    assert problems and "differs" in problems[0]


def test_traced_smoke_run_reports_every_layer_metric():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", "ed25519-signed", "--seed", "1", "--seconds", "0", "--trace", "1", "--smoke"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["crypto.verify_calls_per_block"]["value"] > 0


def test_calibrated_clock_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with harness.Calibrated() as clock:
        sum(range(100_000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.seconds > 0 and clock.wall_s > 0


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
