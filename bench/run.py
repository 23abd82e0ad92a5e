"""dagbft benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload brb-many-labels --seed 1 --seconds 25 --trace 0

A run repeats the workload's scenario (a pure function of ``--seed``) until
``--seconds`` have passed, always finishing the repetition it is in. Every
repetition attempts the same operations: one expected surfaced delivery per
(label injected at a correct originator, correct server). The first
repetition is checked against the injection list, the four trace checkers
and the final DAGs; every later one must give byte-identical trace text.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions, checks that their traces are equal, prints
the per-layer metrics and writes the spans to ``bench/out/``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a summary goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import harness
import oracle
from tracer import Tracer
from workloads import WORKLOADS

END_TO_END = {
    "setup_s": "s",
    "blocks_per_s": "blocks/s",
    "peak_rss_mb": "MB",
    "check_s": "s",
    "trace_bytes_per_block": "B/block",
    "wire_bytes_per_delivery": "B/delivery",
    "delivery_steps_p50": "steps",
    "delivery_steps_tail": "steps",
}

PER_LAYER = {
    "crypto.verify_calls_per_block": "calls/block",
    "crypto.verify_self_s": "s",
    "crypto.sign_self_s": "s",
    "blockdag.block_ref_calls_per_block": "calls/block",
    "blockdag.block_ref_self_s": "s",
    "blockdag.is_valid_calls_per_block": "calls/block",
    "blockdag.is_valid_self_s": "s",
    "blockdag.insert_self_s": "s",
    "gossip.try_promote_self_s": "s",
    "gossip.promote_yield": "blocks/call",
    "gossip.pending_high_water": "blocks",
    "gossip.on_receive_block_self_s": "s",
    "gossip.decode_self_s": "s",
    "gossip.encode_self_s": "s",
    "gossip.disseminate_self_s": "s",
    "gossip.fwd_requests_per_block": "reqs/block",
    "gossip.pending_wait_steps_p50": "steps",
    "interpret.run_to_fixpoint_self_s": "s",
    "interpret.ms_per_block": "ms/block",
    "interpret.ms_per_block_growth": "ratio",
    "interpret.state_digest_calls_per_block": "calls/block",
    "interpret.state_digest_self_s": "s",
    "brb.clone_calls_per_block": "calls/block",
    "brb.clone_self_s": "s",
    "brb.on_receive_self_s": "s",
    "brb.state_bytes_self_s": "s",
    "shim.tick_self_s": "s",
    "simnet.self_s": "s",
    "simnet.events_per_block": "events/block",
    "trace.dumps_s": "s",
    "trace.interpret_bytes_share": "ratio",
    "checks.point_to_point_s": "s",
    "checks.brb_s": "s",
    "checks.convergence_s": "s",
    "checks.agreement_s": "s",
    "checks.server_views_calls": "calls",
    "tracing.slowdown": "ratio",
}


SETUP_BATCH = 20  # Simulation(scenario) calls per timed set-up batch
CHECK_PASSES = 2  # timed passes of the trace checkers per repetition


class Run:
    """Outcome of one benchmark run: operation counts, problems, metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.wall: dict[str, float] = {}

    def result(self, units: dict[str, str]) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit} for name, unit in units.items()
            },
        }


def check_first(run: Run, scenario, result) -> oracle.Outcome:
    """Every check of one repetition except the trace checkers. Failed
    operations are counted, not listed as problems."""
    outcome = oracle.check_deliveries(scenario, result.events)
    run.problems += outcome.problems
    run.failures = outcome.failures
    run.problems += oracle.check_final_dags(scenario, result.final_dags)
    if outcome.attempted < 40:
        run.problems.append(f"only {outcome.attempted} operations; the workload needs 40")
    return outcome


def measure(workload: str, seed: int, seconds: float, smoke: bool) -> Run:
    """End-to-end metrics, tracing off. Each repetition times a set-up
    batch, the run and ``CHECK_PASSES`` passes of the checkers in calibrated
    seconds; the metrics take the median over all of them."""
    scenario = WORKLOADS[workload](seed, smoke).scenario
    run = Run()
    setups, runs, checkers = [], [], []
    digest = None
    start = perf_counter()
    while not runs or perf_counter() - start < seconds:
        # each timed section starts from a collected heap, so the garbage of
        # the section before it is not billed to it
        gc.collect()
        setups.append(harness.time_setup(scenario, SETUP_BATCH))
        gc.collect()
        with harness.Calibrated() as clock:
            result, text = harness.run_once(scenario)
        runs.append(clock)
        for _ in range(CHECK_PASSES):
            gc.collect()
            with harness.Calibrated() as clock:
                violations = harness.run_checkers(result.events, scenario)
            checkers.append(clock)
        if digest is None:
            digest = hashlib.sha256(text.encode()).digest()
            run.problems += violations
            outcome = check_first(run, scenario, result)
            blocks = harness.interpreted_blocks(result.events)
            run.metrics.update(
                trace_bytes_per_block=len(text.encode()) / blocks,
                wire_bytes_per_delivery=harness.wire_bytes_per_delivery(scenario, result.events),
                delivery_steps_p50=statistics.median(outcome.latencies),
                delivery_steps_tail=harness.tail(outcome.latencies),
            )
        elif hashlib.sha256(text.encode()).digest() != digest:
            run.problems.append("a repetition produced different trace bytes")
        run.attempted += outcome.attempted
        run.failed += outcome.failed
        del result, text
    run.metrics["setup_s"] = statistics.median(c.seconds for c in setups) / SETUP_BATCH
    run.metrics["blocks_per_s"] = blocks / statistics.median(c.seconds for c in runs)
    run.metrics["check_s"] = statistics.median(c.seconds for c in checkers)
    run.metrics["peak_rss_mb"] = peak_rss_mb(workload, seed, smoke)
    run.wall = {
        "setup_s": statistics.median(c.wall_s for c in setups) / SETUP_BATCH,
        "run_s": statistics.median(c.wall_s for c in runs),
        "check_s": statistics.median(c.wall_s for c in checkers),
    }
    print(
        f"{workload} seed {seed}: {len(runs)} repetitions of {blocks} blocks and "
        f"{outcome.attempted} operations, {len(checkers)} check passes; "
        f"median wall times {run.wall}",
        file=sys.stderr,
    )
    return run


def peak_rss_mb(workload: str, seed: int, smoke: bool) -> float:
    """Peak RSS of a fresh process that makes one run."""
    cmd = [sys.executable, str(Path(__file__).with_name("peak_rss.py")), workload, str(seed)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.splitlines()[-1])["peak_rss_kib"] / 1024


def measure_traced(workload: str, seed: int, seconds: float, smoke: bool) -> Run:
    """Per-layer metrics: an untraced and a traced repetition in turn, in
    wall time (the calibration probes would land in the spans)."""
    scenario = WORKLOADS[workload](seed, smoke).scenario
    run = Run()
    plain_times, traced_times, layers, tracers = [], [], [], []
    outcome = None
    start = perf_counter()
    while not traced_times or perf_counter() - start < seconds:
        gc.collect()
        began = perf_counter()
        result, plain_text = harness.run_once(scenario)
        plain_times.append(perf_counter() - began)
        if outcome is None:
            run.problems += harness.run_checkers(result.events, scenario)
            outcome = check_first(run, scenario, result)
        del result
        gc.collect()
        with Tracer() as tracer:
            began = perf_counter()
            result, text = harness.run_once(scenario)
            traced_times.append(perf_counter() - began)
            harness.run_checkers(result.events, scenario)
        run.problems += oracle.check_same_trace(plain_text, text)
        layers.append(harness.layer_metrics(tracer, result.events, text))
        tracers.append(tracer)
        run.attempted += 2 * outcome.attempted
        run.failed += 2 * outcome.failed
        del result, text, plain_text
    for name in layers[0]:
        run.metrics[name] = statistics.median(layer[name] for layer in layers)
    run.metrics["tracing.slowdown"] = statistics.median(traced_times) / statistics.median(plain_times)
    run.wall = {"untraced_run_s": statistics.median(plain_times), "traced_run_s": statistics.median(traced_times)}
    harness.OUT.mkdir(exist_ok=True)
    spans = harness.OUT / f"spans-{workload}-{seed}.csv.gz"
    for rep, tracer in enumerate(tracers):
        tracer.dump(str(spans), rep, "wt" if rep == 0 else "at")
    print(
        f"{workload} seed {seed}: {len(traced_times)} traced repetitions, "
        f"tracing slowdown {run.metrics['tracing.slowdown']:.2f}x, spans in {spans}",
        file=sys.stderr,
    )
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small scenarios, for the tests")
    args = parser.parse_args(argv)

    measure_one, units = (measure_traced, PER_LAYER) if args.trace else (measure, END_TO_END)
    with harness.registry(WORKLOADS[args.workload](args.seed, args.smoke).registry_class):
        run = measure_one(args.workload, args.seed, args.seconds, args.smoke)
    out = run.result(units)
    harness.OUT.mkdir(exist_ok=True)
    path = harness.OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    details = {"wall": run.wall, "problems": run.problems, "failures": run.failures}
    path.write_text(json.dumps({**out, **details}, indent=1) + "\n")
    for line in (run.problems + run.failures)[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
