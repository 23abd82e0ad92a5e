"""Trace serialization: ``dumps`` writes the generic JSON encoder's bytes.

``dumps`` writes most events with a template per kind and encodes each list
once per object; the reference is ``json.dumps`` with sorted keys and no
whitespace, one line per event. These tests compare the two over generated
events, conforming or not, and over the simulator's own traces, and pin that
only the events the templates cannot write reach the generic encoder.
"""

from __future__ import annotations

import json
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
    fields = {name: conforming(spec) for name, spec in trace.FIELDS[kind].items()}
    base = {"schema": st.just(trace.SCHEMA_VERSION) | st.integers(), "step": st.integers()}
    return st.fixed_dictionaries({**base, "kind": st.just(kind), **fields})


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
def test_simulated_traces_match_and_only_extended_drops_fall_back(name, scenario):
    events = simnet.run(scenario).events
    text, fallen_back = dumps_counting(events)
    assert text == reference(events)
    drop_fields = {"schema", "step", "kind", *trace.FIELDS["DROP"]}
    for event in fallen_back:
        assert event["kind"] == "DROP" and set(event) > drop_fields


def test_every_kind_has_a_writer():
    assert set(trace._WRITERS) == set(trace._FAST) == set(trace.FIELDS)


class TestLoads:
    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_a_raw_line_separator_inside_a_string_is_not_a_line_break(self, char):
        drop = trace.event(4, "DROP", server=2, reason=f"a{char}b")
        text = json.dumps(drop, ensure_ascii=False) + "\n"
        assert char in text
        assert trace.loads(text) == [drop]
        with pytest.raises(trace.TraceFormatError, match="^line 2: not valid JSON"):
            trace.loads(text + "not json\n")

    def test_a_carriage_return_before_the_newline_is_whitespace(self):
        drop = trace.event(4, "DROP", server=2, reason="x")
        assert trace.loads(trace.dumps([drop, drop]).replace("\n", "\r\n")) == [drop, drop]
