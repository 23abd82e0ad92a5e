"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The two scenario batches (100 mixed, 200 adversarial) are produced once per
module; every criterion that consumes a batch charges the full batch runtime
against its own budget, so the reported timings are conservative.
"""

from __future__ import annotations

import time
from itertools import combinations_with_replacement, permutations
from random import Random

import pytest

from dagbft import checks, trace
from dagbft.blockdag import BlockDag, block_ref
from dagbft.brb import ECHO, READY, ReliableBroadcast, encode_broadcast, encode_payload
from dagbft.checks import (
    check_brb,
    check_convergence,
    check_interpretation_agreement,
    check_point_to_point,
    message_census,
)
from dagbft.interpret import Interpreter
from dagbft.protocol import Label, message
from dagbft.simnet import run

from . import forgeries, oracles
from .forgeries import forged_duplicate, forged_unsigned_origin
from .oracles import (
    Digraph,
    debug_oracles,
    extends,
    feed_instance,
    interpret_in_random_order,
    live_labels,
    reference_outputs,
)
from .scenarios import adversarial_scenario, fig_broadcast_scenario, random_scenario, wide_scenario
from .util import buffers

L1 = Label(0, 1)


def _verdict(name: str, failures: list[str], elapsed: float, budget: float | None) -> None:
    timing = f", {elapsed:.1f}s" + (f" (budget {budget:.0f}s)" if budget else "")
    ok = not failures and (budget is None or elapsed <= budget)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {len(failures)} failure(s){timing}")
    assert not failures, failures[:5]
    if budget is not None:
        assert elapsed <= budget, f"{elapsed:.1f}s exceeds the {budget:.0f}s budget"


@pytest.fixture(scope="module")
def mixed_batch():
    t0 = time.perf_counter()
    batch = []
    for i in range(100):
        scenario = random_scenario(i)
        batch.append((scenario, run(scenario)))
    return batch, time.perf_counter() - t0


@pytest.fixture(scope="module")
def adversarial_batch():
    t0 = time.perf_counter()
    batch = []
    for i in range(200):
        scenario = adversarial_scenario(i)
        batch.append((scenario, run(scenario)))
    return batch, time.perf_counter() - t0


CHECKER_PAIRS = (
    (check_point_to_point, oracles.check_point_to_point),
    (check_brb, oracles.check_brb),
    (check_convergence, oracles.check_convergence),
    (check_interpretation_agreement, oracles.check_interpretation_agreement),
)


def _report_mismatches(name: str, events: list[dict], scenario, pairs=CHECKER_PAIRS) -> list[str]:
    """Where the checkers and their reference copies in ``oracles`` disagree."""
    mismatches = []
    for checker, reference in pairs:
        got, want = checker(events, scenario), reference(events, scenario)
        if (got.violations, got.checked, got.vacuous) != (
            want.violations, want.checked, want.vacuous
        ):
            mismatches.append(f"{name}: {got.name} differs from the reference")
    return mismatches


def _mismatches_in_memory_and_read_back(
    name: str, events: list[dict], scenario, pairs=CHECKER_PAIRS
) -> list[str]:
    """:func:`_report_mismatches` on the events and on the same trace read
    back from its text, where no two INTERPRET events share a labels list."""
    read_back = trace.loads(trace.dumps(events))
    return _report_mismatches(name, events, scenario, pairs) + _report_mismatches(
        f"{name} (read back)", read_back, scenario, pairs
    )


class TestCheckersMatchReference:
    """Every checker gives the report its reference copy gives: the same
    violations in the same order, the same count of checks and the same
    vacuity. The forgeries, the broadcast fixture and the mutants are also
    checked as read back from their trace text."""

    def test_forgeries_and_broadcast_fixture(self):
        cases = [
            (name, *getattr(forgeries, name)())
            for name in sorted(dir(forgeries))
            if name.startswith("forged_")
        ]
        scenario = fig_broadcast_scenario()
        cases.append(("fig_broadcast", scenario, run(scenario).events))
        assert len(cases) >= 7
        failures = [
            mismatch
            for name, sc, events in cases
            for mismatch in _mismatches_in_memory_and_read_back(name, events, sc)
        ]
        assert not failures, failures

    def test_seeded_mutants(self, monkeypatch):
        # each mutant breaks C1 or C2, so convergence is judged pair by pair
        # on every one, and the point-to-point checker sees changed preds
        mutants = forgeries.seeded_mutants()
        assert len(mutants) == 40
        calls = []
        edges_within = checks._edges_within

        def counting(preds, refs):
            calls.append(len(refs))
            return edges_within(preds, refs)

        monkeypatch.setattr(checks, "_edges_within", counting)
        failures, per_snapshot = [], []
        for name, scenario, events in mutants:
            before = len(calls)
            failures += _mismatches_in_memory_and_read_back(name, events, scenario)
            if len(calls) == before:
                per_snapshot.append(name)
        assert not failures, failures
        assert not per_snapshot, per_snapshot

    def test_seeded_body_mutants(self):
        # a changed fed or emitted list reaches only the point-to-point
        # checker, the one checker that reads messages; most mutants fail it,
        # and a failing block is shared by every server that holds it when
        # the edit is made in the labels list the correct servers share
        mutants = forgeries.seeded_body_mutants()
        assert len(mutants) == 400
        failures, failing = [], 0
        for name, scenario, events in mutants:
            failures += _mismatches_in_memory_and_read_back(name, events, scenario, CHECKER_PAIRS[:1])
            failing += not check_point_to_point(events, scenario).ok
        assert not failures, failures
        assert failing > len(mutants) / 2

    def test_seeded_agreement_mutants(self):
        # a changed state digest or a dropped label entry, in the labels list
        # the correct servers share or in one server's own copy; an edited
        # own copy disagrees with another correct server's digest
        mutants = forgeries.seeded_agreement_mutants()
        assert len(mutants) == 160
        failures, unflagged = [], []
        for name, scenario, events in mutants:
            failures += _mismatches_in_memory_and_read_back(name, events, scenario, CHECKER_PAIRS[3:])
            if name.endswith("edit state own") and check_interpretation_agreement(events, scenario).ok:
                unflagged.append(name)
        assert not failures, failures
        assert not unflagged, unflagged

    def test_scenario_batches(self, mixed_batch, adversarial_batch):
        t0 = time.perf_counter()
        failures: list[str] = []
        for name, (batch, _) in (("mixed", mixed_batch), ("adversarial", adversarial_batch)):
            for i, (scenario, result) in enumerate(batch):
                failures += _report_mismatches(f"{name} {i}", result.events, scenario)
        _verdict("checkers match their reference (300 scenarios)", failures, time.perf_counter() - t0, None)

    @pytest.mark.parametrize("n", [10, 13])
    def test_larger_n(self, n):
        # the corpus above runs n=4 and n=7, where a label's fed and emitted
        # lists are short; here they are longer, an honest run and one with
        # an equivocator and a selective sender, each also with a seeded
        # body mutant
        failures, failing = [], 0
        for byzantine in (False, True):
            scenario = wide_scenario(n, byzantine=byzantine)
            events = run(scenario).events
            name = f"n={n} {'byzantine' if byzantine else 'honest'}"
            assert all(checker(events, scenario).ok for checker, _ in CHECKER_PAIRS), name
            failures += _mismatches_in_memory_and_read_back(name, events, scenario)
            # a body edit reaches only the point-to-point checker
            mutant = forgeries.seeded_body_mutant(name, scenario, events)
            failures += _mismatches_in_memory_and_read_back(f"{name} mutant", mutant, scenario, CHECKER_PAIRS[:1])
            failing += not check_point_to_point(mutant, scenario).ok
        assert not failures, failures
        assert failing == 2


class TestCriterion1BroadcastFixture:
    def test_round_by_round_buffers_and_delivery(self):
        t0 = time.perf_counter()
        failures: list[str] = []
        scenario = fig_broadcast_scenario()
        result = run(scenario)

        dag = result.final_dags[0]
        by_pos = {(dag.get(ref).builder, dag.get(ref).seqno): ref for ref in dag.refs()}
        reports = Interpreter(dag, ReliableBroadcast(4, 1)).run_to_fixpoint()

        def out_set(pos):
            return set(buffers(reports, by_pos[pos], L1)[1])

        def in_set(pos):
            return set(buffers(reports, by_pos[pos], L1)[0])

        echo_to_all = {message(0, r, encode_payload(ECHO, 42)) for r in range(4)}
        if out_set((0, 0)) != echo_to_all or in_set((0, 0)) != set():
            failures.append("originator's first block must emit exactly ECHO 42 to all")
        for server in (1, 2, 3):
            expected_in = {message(0, server, encode_payload(ECHO, 42))}
            relay = {message(server, r, encode_payload(ECHO, 42)) for r in range(4)}
            if in_set((server, 1)) != expected_in:
                failures.append(f"server {server} round-1 in-buffer wrong")
            if out_set((server, 1)) != relay:
                failures.append(f"server {server} round-1 must relay the echo")
        # the originator hears its own echo back but the guard keeps it quiet
        if in_set((0, 1)) != {message(0, 0, encode_payload(ECHO, 42))}:
            failures.append("originator round-1 in-buffer wrong")
        if out_set((0, 1)) != set():
            failures.append("originator round-1 out-buffer must be empty")
        for server in range(4):
            ready = {message(server, r, encode_payload(READY, 42)) for r in range(4)}
            if out_set((server, 2)) != ready:
                failures.append(f"server {server} round-2 must emit READY 42 to all")
        surfaced = {
            (e["server"], e["indication"])
            for e in result.events
            if e["kind"] == "INDICATE" and e["surfaced"]
        }
        if surfaced != {(s, encode_broadcast(42).hex()) for s in range(4)}:
            failures.append(f"every server must deliver 42 once, got {sorted(surfaced)}")
        _verdict("criterion 1: broadcast figure fixture", failures, time.perf_counter() - t0, 1.0)


class TestCriterion2InterpretationDeterminism:
    def test_selection_order_and_extension_invariance(self, mixed_batch):
        batch, batch_elapsed = mixed_batch
        t0 = time.perf_counter()
        failures: list[str] = []
        for i, (scenario, result) in enumerate(batch):
            agreement = check_interpretation_agreement(result.events, scenario)
            if not agreement.ok:
                failures.append(f"scenario {i}: {agreement.violations[0]}")
            protocol = ReliableBroadcast(scenario.n, scenario.f)
            server = min(result.final_dags)
            final_dag = result.final_dags[server]
            if len(final_dag) > 60:
                failures.append(f"scenario {i}: {len(final_dag)} blocks exceeds the 60 cap")
                continue
            base = Interpreter(final_dag, protocol)
            base.run_to_fixpoint()
            shuffled = Interpreter(final_dag, protocol)
            interpret_in_random_order(shuffled, Random(i))
            for ref in final_dag.refs():
                for label in live_labels(final_dag, ref):
                    if base.state_digest(ref, label) != shuffled.state_digest(ref, label):
                        failures.append(f"scenario {i}: selection-order mismatch at {ref!r}")
            # the server's DAG at the snapshot step, from its INSERT events
            snap_step = scenario.snapshot_steps[0]
            inserted = {
                e["ref"]
                for e in result.events
                if e["kind"] == "INSERT" and e["server"] == server and e["step"] <= snap_step
            }
            prefix_dag = BlockDag(final_dag.registry)
            for ref in final_dag.refs():  # insertion order is a topological order
                if ref.hex() in inserted:
                    prefix_dag.insert(final_dag.get(ref))
            prefix = Interpreter(prefix_dag, protocol)
            prefix.run_to_fixpoint()
            for ref in prefix_dag.refs():
                for label in live_labels(prefix_dag, ref):
                    if prefix.state_digest(ref, label) != base.state_digest(ref, label):
                        failures.append(f"scenario {i}: prefix/extension mismatch at {ref!r}")
        elapsed = batch_elapsed + (time.perf_counter() - t0)
        _verdict("criterion 2: interpretation determinism (100 scenarios)", failures, elapsed, 30.0)


class TestCriterion3PointToPointLink:
    def test_link_properties_and_negative_fixtures(self, mixed_batch):
        batch, batch_elapsed = mixed_batch
        t0 = time.perf_counter()
        failures: list[str] = []
        for i, (scenario, result) in enumerate(batch):
            report = check_point_to_point(result.events, scenario)
            if not report.ok:
                failures.append(f"scenario {i}: {report.violations[0]}")
        for name, forge in (
            ("duplication", forged_duplicate),
            ("authenticity", forged_unsigned_origin),
        ):
            scenario, events = forge()
            report = check_point_to_point(events, scenario)
            if len(report.violations) != 1:
                failures.append(
                    f"negative fixture {name}: expected exactly 1 violation, got {report.violations}"
                )
        elapsed = batch_elapsed + (time.perf_counter() - t0)
        _verdict("criterion 3: point-to-point link (100 scenarios + 2 fixtures)", failures, elapsed, 30.0)


class TestCriterion4BroadcastPreservation:
    def test_brb_properties_across_adversaries(self, adversarial_batch):
        batch, batch_elapsed = adversarial_batch
        t0 = time.perf_counter()
        failures: list[str] = []
        kinds_seen = set()
        for i, (scenario, result) in enumerate(batch):
            kinds_seen.update(spec.kind for _, spec in scenario.byzantine)
            report = check_brb(result.events, scenario)
            if not report.ok:
                failures.append(f"scenario {i}: {report.violations[0]}")
        missing_kinds = {
            "EQUIVOCATE", "SILENT", "SELECTIVE_SEND", "GARBAGE", "CRASH_AT", "DUPLICATE_REFS"
        } - kinds_seen
        if missing_kinds:
            failures.append(f"adversary kinds never exercised: {sorted(missing_kinds)}")
        elapsed = batch_elapsed + (time.perf_counter() - t0)
        _verdict("criterion 4: broadcast preservation (200 adversarial scenarios)", failures, elapsed, 60.0)


class TestCriterion5GossipConvergence:
    def test_snapshot_unions_extend_finals(self, mixed_batch, adversarial_batch):
        mixed, _ = mixed_batch
        adversarial, _ = adversarial_batch
        t0 = time.perf_counter()
        failures: list[str] = []
        fwd_scenarios = 0
        for name, batch in (("mixed", mixed), ("adversarial", adversarial)):
            for i, (scenario, result) in enumerate(batch):
                report = check_convergence(result.events, scenario)
                if not report.ok:
                    failures.append(f"{name} {i}: {report.violations[0]}")
                if any(e["kind"] == "FWD_REQ" for e in result.events):
                    fwd_scenarios += 1
        if fwd_scenarios < 20:
            failures.append(f"only {fwd_scenarios} scenarios exercised the FWD path")
        _verdict(
            f"criterion 5: gossip convergence (300 scenarios, {fwd_scenarios} with FWD traffic)",
            failures,
            time.perf_counter() - t0,
            None,
        )


class TestCriterion6StructuralLemmas:
    def test_insert_properties_attack_fixture_and_trace_invariants(
        self, mixed_batch, adversarial_batch
    ):
        t0 = time.perf_counter()
        failures: list[str] = []

        # generic insertion: idempotence, extension, acyclicity over 10^3
        # random insert sequences
        rng = Random(0x1E77)
        for seq in range(1000):
            g = Digraph()
            seen: list[int] = []
            for v in range(rng.randrange(1, 9)):
                sources = rng.sample(seen, min(len(seen), rng.randrange(0, 3)))
                edges = {(s, v) for s in sources}
                grown = g.insert(v, edges)
                again = grown.insert(v, edges)
                if again.vertices != grown.vertices or again.edges != grown.edges:
                    failures.append(f"sequence {seq}: insert not idempotent")
                if not extends(g, grown):
                    failures.append(f"sequence {seq}: insert does not extend")
                if not grown.is_acyclic():
                    failures.append(f"sequence {seq}: cycle introduced")
                g = grown
                seen.append(v)

        # mutual-reference attack: the block referenced by X can never itself
        # reference X
        from .util import make_registry, signed_block

        registry = make_registry()
        for i in range(100):
            first = signed_block(registry, 0, 0, requests=((Label(0, i), b"a"),))
            second = signed_block(registry, 1, 0, (block_ref(first),))
            attack = signed_block(registry, 0, 0, (block_ref(second),), ((Label(0, i), b"a"),))
            if block_ref(attack) == block_ref(first):
                failures.append("mutual reference constructed; hash assumption broken")

        # each correct server references any block at most once across all
        # blocks it built, on every trace
        for name, (batch, _) in (("mixed", mixed_batch), ("adversarial", adversarial_batch)):
            for i, (scenario, result) in enumerate(batch):
                correct = set(scenario.correct_servers())
                counts: dict[tuple[int, str], int] = {}
                for ev in result.events:
                    if ev["kind"] != "INSERT" or ev["server"] not in correct:
                        continue
                    if ev["builder"] != ev["server"]:
                        continue
                    for pred in ev["preds"]:
                        key = (ev["server"], pred)
                        counts[key] = counts.get(key, 0) + 1
                dupes = [k for k, c in counts.items() if c > 1]
                if dupes:
                    failures.append(f"{name} {i}: server {dupes[0][0]} referenced a block twice")

        # DAG closure and acyclicity after every insert, slot emptiness before
        # interpretation and immutability after, laid over live runs; in
        # adversarial 0 an equivocator's two forks share a parent
        debugged = {
            "fig": fig_broadcast_scenario(),
            **{f"random {i}": random_scenario(i) for i in (0, 1, 5)},
            "adversarial 0": adversarial_scenario(0),
        }
        for name, scenario in debugged.items():
            try:
                with debug_oracles():
                    result = run(scenario)
            except Exception as exc:
                failures.append(f"debug-checked run {name} raised: {exc}")
                continue
            if name == "adversarial 0" and not _has_sibling_forks(result):
                failures.append("adversarial 0: no correct server holds two sibling forks")

        _verdict("criterion 6: structural lemma suites", failures, time.perf_counter() - t0, 10.0)


def _has_sibling_forks(result) -> bool:
    """Whether some correct server's final DAG holds two blocks by one
    builder at one sequence number past genesis: forks sharing a parent."""
    for dag in result.final_dags.values():
        slots = [(b.builder, b.seqno) for b in map(dag.get, dag.refs()) if b.seqno > 0]
        if len(slots) != len(set(slots)):
            return True
    return False


class TestCriterion7CompressionCensus:
    def test_wire_alphabet_and_parallel_instances(self, mixed_batch, adversarial_batch):
        t0 = time.perf_counter()
        failures: list[str] = []
        for name, (batch, _) in (("mixed", mixed_batch), ("adversarial", adversarial_batch)):
            for i, (scenario, result) in enumerate(batch):
                census = message_census(result.events)
                if census.other_envelopes:
                    failures.append(f"{name} {i}: unknown envelope kind on the wire")
                delivered_labels = {
                    tuple(e["label"])
                    for e in result.events
                    if e["kind"] == "INDICATE" and e["surfaced"]
                }
                if delivered_labels and census.materialized_messages < len(delivered_labels):
                    failures.append(f"{name} {i}: deliveries without materialized messages")

        # parallel instances ride the same blocks: block count is independent
        # of the label count at equal cadence
        single = run(fig_broadcast_scenario(labels=1))
        quad = run(fig_broadcast_scenario(labels=4))
        blocks_single = message_census(single.events).blocks_built
        blocks_quad = message_census(quad.events).blocks_built
        if blocks_single != blocks_quad:
            failures.append(
                f"block count grew with label count: {blocks_single} vs {blocks_quad}"
            )
        quad_delivered = {
            (e["server"], tuple(e["label"]))
            for e in quad.events
            if e["kind"] == "INDICATE" and e["surfaced"]
        }
        if len(quad_delivered) != 16:  # 4 labels x 4 servers
            failures.append(f"parallel labels delivered {len(quad_delivered)}/16")
        _verdict("criterion 7: compression census", failures, time.perf_counter() - t0, 5.0)


class TestCriterion8ExhaustiveMicroOracle:
    UNIVERSE = [(kind, 42, sender) for kind in ("ECHO", "READY") for sender in range(4)]

    def _instance(self):
        return ReliableBroadcast(4, 1).spawn(L1, 0)

    def test_trigger_points_and_permutations(self):
        t0 = time.perf_counter()
        failures: list[str] = []

        # every (echo senders, ready senders) combination: flags must match
        # the threshold predicates exactly
        from itertools import combinations

        for echo_count in range(5):
            for ready_count in range(5):
                for echo_set in combinations(range(4), echo_count):
                    for ready_set in combinations(range(4), ready_count):
                        instance = self._instance()
                        for s in echo_set:
                            instance.on_receive(message(s, 0, encode_payload(ECHO, 42)))
                        for s in ready_set:
                            instance.on_receive(message(s, 0, encode_payload(READY, 42)))
                        want_ready = echo_count >= 3 or ready_count >= 2
                        want_deliver = ready_count >= 3
                        if instance.readied != want_ready:
                            failures.append(
                                f"readied flag wrong for echoes={echo_set} readies={ready_set}"
                            )
                        if instance.delivered != want_deliver:
                            failures.append(
                                f"delivered flag wrong for echoes={echo_set} readies={ready_set}"
                            )

        # all duplicate-free input permutations up to length 6 against the
        # recounting oracle
        checked = 0
        for size in range(0, 7):
            for sequence in permutations(self.UNIVERSE, size):
                inputs = list(sequence)
                expected = reference_outputs(inputs, 4, 1)
                actual = feed_instance(self._instance(), inputs)
                checked += 1
                if actual != expected:
                    failures.append(f"divergence on {inputs}")
                    break
            if failures:
                break

        # all multisets of size <= 6 (duplicates included): at most one
        # delivery regardless of input
        for size in range(0, 7):
            for multiset in combinations_with_replacement(self.UNIVERSE, size):
                instance = self._instance()
                delivered = 0
                for kind, value, sender in multiset:
                    instance.on_receive(
                        message(sender, 0, encode_payload(ECHO if kind == "ECHO" else READY, value))
                    )
                    delivered += len(instance.take_indications())
                if delivered > 1:
                    failures.append(f"multiset {multiset} delivered {delivered} times")
                    break
            if failures:
                break

        _verdict(
            f"criterion 8: exhaustive broadcast micro-oracle ({checked} permutations)",
            failures,
            time.perf_counter() - t0,
            10.0,
        )
