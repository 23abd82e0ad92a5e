"""Trace serialization: ``dumps`` writes the generic JSON encoder's bytes.

``dumps`` writes most events with a template per kind, and per optional field
of a kind, and encodes each list once per object; the reference is
``json.dumps`` with sorted keys and no whitespace, one line per event. These
tests compare the two over generated events, conforming or not, and over the
simulator's own traces, and pin that only the events the templates cannot
write reach the generic encoder.
"""

from __future__ import annotations

import importlib.util
import json
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagbft import simnet, trace

from .scenarios import adversarial_scenario, random_scenario


def reference(events) -> str:
    return "".join(json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n" for e in events)


class CountingEncoder:
    """Stands in for ``trace._ENCODER`` and keeps the events, not the lists,
    it was asked to encode."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def encode(self, obj) -> str:
        if not isinstance(obj, list):
            self.events.append(obj)
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps_counting(events) -> tuple[str, list[dict]]:
    """``trace.dumps(events)`` and the events it left to the generic encoder."""
    encoder = CountingEncoder()
    with mock.patch.object(trace, "_ENCODER", encoder):
        return trace.dumps(events), encoder.events


# quotes, backslashes, control characters, non-ASCII, astral and lone surrogates
TEXT = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "é", "\U0001f600", "\ud800", "a" * 64]
)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
# near misses of a label: too short or long, or holding a bool
NUMBERS = st.lists(st.integers() | st.booleans(), max_size=3)


def conforming(spec) -> st.SearchStrategy:
    """Values of the ``FIELDS`` type ``spec``."""
    if isinstance(spec, set):
        return st.one_of([conforming(alt) for alt in sorted(spec, key=str)])
    if isinstance(spec, tuple):
        return st.tuples(*map(conforming, spec)).map(list)
    if isinstance(spec, list):
        return st.lists(conforming(spec[0]), max_size=3)
    if spec is dict:
        return st.fixed_dictionaries({k: conforming(v) for k, v in trace.LABEL_FIELDS.items()})
    return {None: st.none(), int: st.integers(), str: TEXT, bool: st.booleans()}[spec]


def events_of(kind: str) -> st.SearchStrategy:
    """Conforming events of ``kind``: with its fields alone, or with one of
    its optional fields as well."""
    fields = {name: conforming(spec) for name, spec in trace.FIELDS[kind].items()}
    base = {"schema": st.just(trace.SCHEMA_VERSION) | st.integers(), "step": st.integers()}
    extras = [{}] + [{name: conforming(spec)} for name, spec in trace.OPTIONAL.get(kind, {}).items()]
    return st.one_of(
        [st.fixed_dictionaries({**base, "kind": st.just(kind), **fields, **extra}) for extra in extras]
    )


CONFORMING = st.one_of([events_of(kind) for kind in sorted(trace.FIELDS)])


@st.composite
def deviant(draw) -> dict:
    """A conforming event with one field replaced by any JSON value, bools,
    None, floats and near-miss labels included, or one field added or taken
    away."""
    event = dict(draw(CONFORMING))
    change = draw(st.sampled_from(["replace", "add", "remove"]))
    if change == "add":
        event[draw(TEXT.filter(lambda k: k not in event))] = draw(JSON)
    else:
        name = draw(st.sampled_from(sorted(event)))
        if change == "replace":
            event[name] = draw(JSON | NUMBERS)
        else:
            del event[name]
    return event


def example(spec):
    """A value of the ``FIELDS`` type ``spec``."""
    if isinstance(spec, set):
        return example(str)
    if isinstance(spec, tuple):
        return [example(item) for item in spec]
    if isinstance(spec, list):
        return [example(spec[0])] * 2
    if spec is dict:
        return {name: example(item) for name, item in trace.LABEL_FIELDS.items()}
    return {int: 7, str: "s", bool: True}[spec]


# values of every type but one field's: bools, None, floats, lists near a label
WRONG = [True, False, None, 1.0, float("nan"), 0, "x", {}]
WRONG += [[], [1], [1, 2, 3], [True, 1], [1, True], [1, None]]


class TestDifferential:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(CONFORMING, max_size=6))
    def test_conforming_events_match_and_skip_the_encoder(self, events):
        text, fallen_back = dumps_counting(events)
        assert text == reference(events)
        assert fallen_back == []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(CONFORMING | deviant(), max_size=6))
    def test_deviant_events_match(self, events):
        assert trace.dumps(events) == reference(events)

    @pytest.mark.parametrize("kind", sorted(trace.FIELDS))
    def test_each_field_with_each_wrong_value_matches(self, kind):
        event = {"schema": trace.SCHEMA_VERSION, "step": 5, "kind": kind}
        event.update((name, example(spec)) for name, spec in trace.FIELDS[kind].items())
        assert dumps_counting([event]) == (reference([event]), [])
        for name in event:
            for value in WRONG:
                if not trace.conforms(value, {"kind": str, **trace.FIELDS[kind]}.get(name, int)):
                    changed = {**event, name: value}
                    assert trace.dumps([changed]) == reference([changed]), (name, value)

    @pytest.mark.parametrize(
        "kind, name", [(kind, name) for kind in trace.OPTIONAL for name in trace.OPTIONAL[kind]]
    )
    def test_each_optional_field_with_each_wrong_value_matches(self, kind, name):
        event = {"schema": trace.SCHEMA_VERSION, "step": 5, "kind": kind}
        event.update((field, example(spec)) for field, spec in trace.FIELDS[kind].items())
        event[name] = example(trace.OPTIONAL[kind][name])
        assert dumps_counting([event]) == (reference([event]), [])
        for value in WRONG:
            if not trace.conforms(value, trace.OPTIONAL[kind][name]):
                changed = {**event, name: value}
                assert dumps_counting([changed]) == (reference([changed]), [changed]), value
        both = {**event, **{other: example(spec) for other, spec in trace.OPTIONAL[kind].items()}}
        assert dumps_counting([both]) == (reference([both]), [both])

    @pytest.mark.parametrize(
        "field, value",
        [("step", True), ("server", False), ("schema", 1.0), ("reason", None), ("kind", "drop")],
    )
    def test_a_wrong_type_or_kind_goes_to_the_encoder(self, field, value):
        event = trace.event(3, "DROP", server=1, reason="undecodable")
        event[field] = value
        text, fallen_back = dumps_counting([event])
        assert text == reference([event])
        assert fallen_back == [event]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.dictionaries(TEXT, JSON, max_size=4) | JSON, max_size=4))
    def test_any_json_value_matches(self, events):
        # unknown kinds, no kind, kinds that are not strings, events that are not objects
        assert trace.dumps(events) == reference(events)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(conforming([str]), min_size=1, max_size=3), st.integers(1, 5))
    def test_a_shared_list_matches_in_every_event(self, lists, copies):
        events = [
            trace.event(step, "INSERT", server=step, ref="ab", builder=0, seqno=step,
                        preds=preds, requests=[])
            for step in range(copies)
            for preds in lists
        ]
        assert trace.dumps(events) == reference(events)

    def test_fresh_lists_from_a_generator_are_not_mistaken_for_earlier_ones(self):
        # each event and its lists die once written, so a new list may take
        # the id of one written before it
        def events():
            for step in range(200):
                yield trace.event(step, "INTERPRET", server=0, ref="cd", builder=1,
                                  labels=[{"step": step}] * (step % 3))

        assert trace.dumps(events()) == reference(events())


def corpus():
    for i in range(20):
        yield f"random_{i}", random_scenario(i)
        yield f"adversarial_{i}", adversarial_scenario(i)


@pytest.mark.parametrize("name, scenario", list(corpus()), ids=[n for n, _ in corpus()])
def test_simulated_traces_match_and_none_falls_back(name, scenario):
    events = simnet.run(scenario).events
    text, fallen_back = dumps_counting(events)
    assert text == reference(events)
    assert fallen_back == []


def test_simulated_drops_carry_one_optional_field_each():
    # the corpus's DROPs are all of the shapes with a template of their own
    required = {"schema", "step", "kind", *trace.FIELDS["DROP"]}
    shapes = Counter(
        tuple(sorted(set(e) - required))
        for _, scenario in corpus()
        for e in simnet.run(scenario).events
        if e["kind"] == "DROP"
    )
    assert shapes == {("frm",): 71, ("ref",): 63}


def test_every_kind_and_optional_field_has_a_writer():
    optional = {(kind, name) for kind in trace.OPTIONAL for name in trace.OPTIONAL[kind]}
    assert set(trace._WRITERS) == set(trace._FAST) == set(trace.FIELDS) | optional


class TestListEncoder:
    """``JSONEncoder.encode`` builds a C encoder on every call; ``dumps``
    encodes its lists with one built at import, or with the generic
    encoder's ``encode`` where Python has no C encoder."""

    def test_dumps_builds_an_encoder_only_per_event_left_to_the_encoder(self, monkeypatch):
        events = simnet.run(adversarial_scenario(1)).events
        expected = reference(events)
        _, fallen_back = dumps_counting(events)
        assert any(e["kind"] == "INSERT" and e["preds"] for e in events)
        built = []
        make = json.encoder.c_make_encoder

        def counting_make(*args):
            built.append(args)
            return make(*args)

        monkeypatch.setattr(json.encoder, "c_make_encoder", counting_make)
        assert trace.dumps(events) == expected
        assert len(built) == len(fallen_back)

    def test_without_the_c_encoder_the_bytes_are_the_same(self, monkeypatch):
        # a copy of the module imported where the C encoder is absent
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        spec = importlib.util.spec_from_file_location("trace_without_c_encoder", trace.__file__)
        plain = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(plain)
        assert plain._encode_list == plain._ENCODER.encode
        events = simnet.run(adversarial_scenario(1)).events
        assert plain.dumps(events) == trace.dumps(events) == reference(events)


class TestLoads:
    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_a_raw_line_separator_inside_a_string_is_not_a_line_break(self, char):
        drop = trace.event(4, "DROP", server=2, reason=f"a{char}b")
        text = json.dumps(drop, ensure_ascii=False) + "\n"
        assert char in text
        assert trace.loads(text) == [drop]
        with pytest.raises(trace.TraceFormatError, match="^line 2: not valid JSON"):
            trace.loads(text + "not json\n")

    @pytest.mark.parametrize("name, value", [("frm", "3"), ("frm", True), ("ref", 5), ("ref", None)])
    def test_a_wrongly_typed_optional_field_is_rejected(self, name, value):
        drop = trace.event(4, "DROP", server=2, reason="x", **{name: value})
        with pytest.raises(trace.TraceFormatError, match=f"^line 1: DROP field {name} has"):
            trace.loads(json.dumps(drop) + "\n")

    @pytest.mark.parametrize("extra", [{}, {"frm": 3}, {"ref": "ab"}, {"frm": 3, "ref": "ab"}])
    def test_optional_fields_of_their_type_are_accepted(self, extra):
        drop = trace.event(4, "DROP", server=2, reason="x", **extra)
        assert trace.loads(trace.dumps([drop])) == [drop]

    def test_a_carriage_return_before_the_newline_is_whitespace(self):
        drop = trace.event(4, "DROP", server=2, reason="x")
        assert trace.loads(trace.dumps([drop, drop]).replace("\n", "\r\n")) == [drop, drop]

    @pytest.mark.parametrize(
        "scenario", [adversarial_scenario(1), random_scenario(2)], ids=["adversarial 1", "random 2"]
    )
    def test_equal_lists_read_back_as_one_list(self, scenario):
        # as in a run, where servers share one list per ref; the bytes
        # written back are the same
        text = trace.dumps(simnet.run(scenario).events)
        loaded = trace.loads(text)
        for kind, name in (("INSERT", "preds"), ("INTERPRET", "labels")):
            lists = [e[name] for e in loaded if e["kind"] == kind]
            first = {}
            for value in lists:
                assert first.setdefault(json.dumps(value, sort_keys=True), value) is value
            assert len(first) < len(lists)
        assert trace.dumps(loaded) == text

    def test_a_labels_entry_with_a_field_of_its_own_keeps_its_list(self):
        entry = {"label": [0, 1], "fed": ["ab"], "emitted": [], "state": "cd", "skipped": 0}
        events = [
            trace.event(step, "INTERPRET", server=step, ref="ef", builder=1, labels=[dict(entry, **extra)])
            for step, extra in enumerate([{}, {}, {"note": 1}, {"note": 1}])
        ]
        text = trace.dumps(events)
        loaded = trace.loads(text)
        a, b, c, d = (e["labels"] for e in loaded)
        assert a is b and a is not c and c is not d and c == d
        assert trace.dumps(loaded) == text

    def test_reading_a_file_peaks_below_five_times_its_size(self, tmp_path):
        # the file's bytes are freed before parsing, and lines are parsed
        # one at a time
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(simnet.run(adversarial_scenario(1)).events, str(path))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            before = tracemalloc.get_traced_memory()[0]
            events = trace.read_jsonl(str(path))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(events) > 1000 and peak < 5 * path.stat().st_size
