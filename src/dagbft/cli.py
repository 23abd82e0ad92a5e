"""Command-line front end: run scenarios, check traces, export DOT, census.

Exit codes: 0 success / clean checks, 1 check violations, 2 usage or config
or malformed input, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checks, simnet, trace
from .blockdag import render_dot

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_CHECKERS = {
    "ppl": checks.check_point_to_point,
    "brb": checks.check_brb,
    "conv": checks.check_convergence,
    "agree": checks.check_interpretation_agreement,
}


def _load_scenario(path: str, out) -> simnet.Scenario | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=out)
        return None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        print(f"error: scenario is not valid JSON: {exc}", file=out)
        return None
    try:
        return simnet.Scenario.from_dict(data)
    except simnet.ScenarioError as exc:
        print(f"error: {exc}", file=out)
        return None


def _load_trace(path: str, out) -> list[dict] | None:
    try:
        return trace.read_jsonl(path)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=out)
        return None
    except trace.TraceFormatError as exc:
        print(f"error: malformed trace: {exc}", file=out)
        return None


def cmd_run(args, out) -> int:
    scenario = _load_scenario(args.scenario, out)
    if scenario is None:
        return EXIT_CONFIG
    if args.seed is not None:
        scenario = scenario.with_seed(args.seed)
    if args.snapshots:
        try:
            steps = [int(s) for s in args.snapshots.split(",")]
        except ValueError:
            print("error: --snapshots expects a comma-separated list of steps", file=out)
            return EXIT_CONFIG
        try:
            scenario = simnet.Scenario.from_dict({**scenario.to_dict(), "snapshot_steps": steps})
        except simnet.ScenarioError as exc:
            print(f"error: {exc}", file=out)
            return EXIT_CONFIG
    result = simnet.run(scenario)
    try:
        trace.write_jsonl(result.events, args.out)
    except OSError as exc:
        print(f"error: cannot write trace: {exc}", file=out)
        return EXIT_IO
    if result.snapshots:
        snap_dir = args.snapshot_dir or os.path.dirname(os.path.abspath(args.out))
        stem = os.path.splitext(os.path.basename(args.out))[0]
        try:
            os.makedirs(snap_dir, exist_ok=True)
            for step in sorted(result.snapshots):
                for server, dag in sorted(result.snapshots[step].items()):
                    path = os.path.join(snap_dir, f"{stem}.step{step}.s{server}.dot")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(dag.to_dot())
        except OSError as exc:
            print(f"error: cannot write snapshots: {exc}", file=out)
            return EXIT_IO
    census = checks.message_census(result.events)
    print(
        f"ran {scenario.max_steps} steps (n={scenario.n}, f={scenario.f}, seed={scenario.seed}): "
        f"{census.blocks_built} blocks, {census.block_envelopes} BLOCK + "
        f"{census.fwd_envelopes} FWD envelopes, "
        f"{census.deliveries_surfaced} indications",
        file=out,
    )
    return EXIT_OK


def cmd_check(args, out) -> int:
    events = _load_trace(args.trace, out)
    if events is None:
        return EXIT_CONFIG
    scenario = _load_scenario(args.scenario, out)
    if scenario is None:
        return EXIT_CONFIG
    if not events:
        print("trace is empty: all checks vacuously clean", file=out)
        return EXIT_OK
    names = args.props.split(",") if args.props else list(_CHECKERS)
    bad = [n for n in names if n not in _CHECKERS]
    if bad:
        print(f"error: unknown checker(s) {','.join(bad)}; known: {','.join(_CHECKERS)}", file=out)
        return EXIT_CONFIG
    failed = False
    for name in names:
        try:
            report = _CHECKERS[name](events, scenario)
        except trace.TraceFormatError as exc:
            print(f"error: malformed trace: {exc}", file=out)
            return EXIT_CONFIG
        print(report.summary(), file=out)
        for violation in report.violations:
            print(f"  {violation}", file=out)
        failed = failed or not report.ok
    return EXIT_VIOLATIONS if failed else EXIT_OK


def cmd_export_dot(args, out) -> int:
    events = _load_trace(args.trace, out)
    if events is None:
        return EXIT_CONFIG
    inserts = [e for e in events if e["kind"] == "INSERT"]
    if not inserts:
        print("error: trace has no INSERT events to export", file=out)
        return EXIT_CONFIG
    server = args.server if args.server is not None else min(e["server"] for e in inserts)
    seen: dict[str, tuple[str, int, int, list[str]]] = {}
    for e in inserts:
        if e["server"] == server and e["ref"] not in seen:
            seen[e["ref"]] = (e["ref"], e["builder"], e["seqno"], list(e["preds"]))
    if not seen:
        print(f"error: no INSERT events for server {server}", file=out)
        return EXIT_CONFIG
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_dot(list(seen.values())))
    except OSError as exc:
        print(f"error: cannot write DOT: {exc}", file=out)
        return EXIT_IO
    print(f"wrote DOT for server {server}: {len(seen)} blocks", file=out)
    return EXIT_OK


def cmd_census(args, out) -> int:
    events = _load_trace(args.trace, out)
    if events is None:
        return EXIT_CONFIG
    census = checks.message_census(events)
    for key, value in census.as_dict().items():
        print(f"{key}: {value}", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagbft",
        description="Run and check block-DAG embeddings of deterministic BFT protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its trace")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--snapshots", default=None, help="comma-separated snapshot steps")
    p_run.add_argument("--snapshot-dir", default=None)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run trace checkers")
    p_check.add_argument("--trace", required=True)
    p_check.add_argument("--scenario", required=True)
    p_check.add_argument("--props", default=None, help=f"subset of {','.join(_CHECKERS)}")
    p_check.set_defaults(func=cmd_check)

    p_dot = sub.add_parser("export-dot", help="export one server's DAG as DOT")
    p_dot.add_argument("--trace", required=True)
    p_dot.add_argument("--out", required=True)
    p_dot.add_argument("--server", type=int, default=None)
    p_dot.set_defaults(func=cmd_export_dot)

    p_census = sub.add_parser("census", help="envelope and message counts")
    p_census.add_argument("--trace", required=True)
    p_census.set_defaults(func=cmd_census)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    return args.func(args, out)


if __name__ == "__main__":
    sys.exit(main())
