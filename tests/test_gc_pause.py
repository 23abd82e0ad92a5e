"""The cyclic garbage collector is paused over a run, a trace write, a trace
read and each checker (``trace.gc_paused``).

The pause is safe only because none of these calls creates a reference
cycle: reference counting frees everything they drop, so a collection
inside them would find nothing. These tests pin that over the trace-lock
corpus, the benchmark's three workloads, the seeded scenarios and the
hand-forged traces, and they pin that the collector's state is put back and
that no collection starts inside a wrapped call.
"""

from __future__ import annotations

import gc
import importlib.util
import sys
from pathlib import Path

import pytest

from dagbft import checks, simnet, trace
from dagbft.crypto import ed25519_available
from dagbft.simnet import Simulation

from . import forgeries
from .scenarios import adversarial_scenario, fig_broadcast_scenario, random_scenario
from .test_cli import _indicating, _interpret_emitting
from .test_trace_lock import corpus


def _bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


CHECKERS = (
    checks.check_point_to_point,
    checks.check_brb,
    checks.check_convergence,
    checks.check_interpretation_agreement,
)
# name -> (scenario, the class that signs its blocks)
CORPUS = {
    f"{gen.__name__}({i})": (gen(i), simnet.KeyRegistry)
    for gen in (random_scenario, adversarial_scenario)
    for i in range(20)
}
_SEEN = {scenario for scenario, _ in CORPUS.values()}
CORPUS.update(
    (name, (scenario, simnet.KeyRegistry)) for name, scenario in corpus() if scenario not in _SEEN
)
CORPUS.update(
    (name, (workload.scenario, workload.registry_class))
    for name, workload in ((name, make(1)) for name, make in _bench_workloads().items())
)
NEEDS_ED25519 = {name for name, (_, cls) in CORPUS.items() if cls is not simnet.KeyRegistry}
FORGERIES = {name: getattr(forgeries, name) for name in dir(forgeries) if name.startswith("forged_")}


@pytest.fixture
def collector_off():
    """The collector disabled, with no garbage left from before the test."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    if enabled:
        gc.enable()


class TestNoCycles:
    """With the collector off, a collection after each wrapped call finds no
    unreachable object."""

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_run_read_and_checks(self, name, collector_off, monkeypatch):
        scenario, registry_class = CORPUS[name]
        if name in NEEDS_ED25519 and not ed25519_available():
            pytest.skip("cryptography not installed")
        monkeypatch.setattr(simnet, "KeyRegistry", registry_class)
        sim = Simulation(scenario)
        gc.collect()
        result = sim.run()
        assert gc.collect() == 0
        text = trace.dumps(result.events)
        assert gc.collect() == 0
        events = trace.loads(text)
        assert gc.collect() == 0
        for read in (result.events, events):
            for check in CHECKERS:
                check(read, scenario)
                assert gc.collect() == 0, check.__name__
        del sim, result, events
        assert gc.collect() == 0  # nor does what they built hold a cycle

    @pytest.mark.parametrize("name", list(FORGERIES))
    def test_checks_on_forged_traces(self, name, collector_off):
        scenario, events = FORGERIES[name]()
        text = trace.dumps(events)
        assert gc.collect() == 0
        read = trace.loads(text)
        assert gc.collect() == 0
        for evs in (events, read):
            for check in CHECKERS:
                check(evs, scenario)
                assert gc.collect() == 0, check.__name__


def _calls():
    """(name, the wrapped call, a call of the same function that raises)."""
    scenario = fig_broadcast_scenario()
    events = simnet.run(scenario).events
    text = trace.dumps(events)

    def failing_run():
        sim = Simulation(scenario)
        sim._drain = lambda start: trace.loads("{")  # a TraceFormatError from inside the run
        return sim.run()

    def failing_events():
        yield from events
        raise trace.TraceFormatError("an event source that fails part way")

    yield "Simulation.run", lambda: Simulation(scenario).run(), failing_run
    yield "trace.dumps", lambda: trace.dumps(events), lambda: trace.dumps(failing_events())
    yield "trace.loads", lambda: trace.loads(text), lambda: trace.loads(text + "{\n")
    for check in CHECKERS:
        # an undecodable message, and for the BRB checker an undecodable indication
        bad = _indicating("zz") if check is checks.check_brb else _interpret_emitting("zz")
        # convergence and agreement read no message, so they do not raise on it
        raises = check in (checks.check_point_to_point, checks.check_brb)
        yield (
            check.__name__,
            lambda check=check: check(events, scenario),
            (lambda check=check, bad=bad: check(bad, scenario)) if raises else None,
        )


CALLS = list(_calls())


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "caller-disabled"])
    @pytest.mark.parametrize("name, call, failing", CALLS, ids=[c[0] for c in CALLS])
    def test_put_back_on_return_and_raise(self, name, call, failing, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            call()
            assert gc.isenabled() == enabled
            if failing is not None:
                with pytest.raises(trace.TraceFormatError):
                    failing()
                assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_every_entry_point_is_wrapped(self):
        wrapped = [Simulation.run, trace.dumps, trace.loads, *CHECKERS]
        assert all(fn.__wrapped__.__name__ == fn.__name__ for fn in wrapped)


class TestNoCollectionInside:
    """A ``gc.callbacks`` hook sees no collection start inside a wrapped
    call, even with a threshold that starts one at every allocation; the
    unwrapped function starts some, so the hook does see them."""

    def test_no_collection_starts(self):
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        thresholds, enabled = gc.get_threshold(), gc.isenabled()
        scenario = adversarial_scenario(3)
        sim, bare_sim = Simulation(scenario), Simulation(scenario)
        events = simnet.run(scenario).events
        text = trace.dumps(events)
        calls = {
            "Simulation.run": (sim.run, lambda: Simulation.run.__wrapped__(bare_sim)),
            "trace.dumps": (lambda: trace.dumps(events), lambda: trace.dumps.__wrapped__(events)),
            "trace.loads": (lambda: trace.loads(text), lambda: trace.loads.__wrapped__(text)),
        }
        for check in CHECKERS:
            calls[check.__name__] = (
                lambda check=check: check(events, scenario),
                lambda check=check: check.__wrapped__(events, scenario),
            )
        gc.callbacks.append(hook)
        gc.set_threshold(1)
        gc.enable()
        try:
            inside = {}
            for name, (paused, bare) in calls.items():
                starts.clear()
                paused()
                inside[name] = len(starts)
                starts.clear()
                bare()
                assert starts, f"the hook saw no collection in bare {name}"
        finally:
            gc.callbacks.remove(hook)
            gc.set_threshold(*thresholds)
            (gc.enable if enabled else gc.disable)()
        assert inside == dict.fromkeys(calls, 0)
