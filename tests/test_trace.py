"""Trace serialization: ``dumps`` writes the generic JSON encoder's bytes.

``dumps`` writes most events with a line writer per kind, and per optional
field of a kind, built from the ``FIELDS`` types, and encodes each list once
per object; the reference is ``json.dumps`` with sorted keys and no
whitespace, one line per event. These tests compare the two over generated
events, conforming or not, over a kind of every field type and over the
simulator's own traces, and pin that only the events the writers cannot
write reach the generic encoder. ``TestFiles`` holds a file written and
read a line at a time to the same bytes, events and errors as the text.
"""

from __future__ import annotations

import importlib.util
import json
import tracemalloc
from collections import Counter
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dagbft import simnet, trace

from .scenarios import adversarial_scenario, fig_broadcast_scenario, random_scenario
from .test_cli import _MALFORMED_EVENTS
from .test_trace_lock import corpus as lock_corpus


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


# a kind outside FIELDS with one field of each FIELDS type
PROBE = {"count": int, "flag": bool, "name": str, "ref": {str, None}, "label": trace.LABEL,
         "preds": [str], "labels": [dict]}
PROBE_SPECS = {"schema": int, "step": int, "kind": str, **PROBE}
PROBE_FAST = (itemgetter(*sorted(PROBE_SPECS)), trace._writer("PROBE", PROBE))
PROBES = st.fixed_dictionaries(
    {"schema": st.integers(), "step": st.integers(), "kind": st.just("PROBE"),
     **{name: conforming(spec) for name, spec in PROBE.items()}}
)


class TestWriterBuilder:
    """``trace._writer`` builds the line writer of any kind from its
    ``FIELDS`` types; here one outside ``FIELDS``, put in ``dumps``'s
    table for the test."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(PROBES)
    def test_conforming_values_are_written_as_the_encoder_writes_them(self, event):
        get, write = PROBE_FAST
        assert write(trace._encode_list, *get(event)) == reference([event])
        with mock.patch.dict(trace._FAST, PROBE=PROBE_FAST):
            assert dumps_counting([event]) == (reference([event]), [])

    def test_a_wrong_value_is_refused_and_left_to_the_encoder(self):
        get, write = PROBE_FAST
        event = {name: example(spec) for name, spec in PROBE_SPECS.items()}
        event["kind"] = "PROBE"
        with mock.patch.dict(trace._FAST, PROBE=PROBE_FAST):
            for name, spec in PROBE_SPECS.items():
                for value in WRONG:
                    if trace.conforms(value, spec):
                        continue
                    changed = {**event, name: value}
                    line = write(trace._encode_list, *get(changed))
                    if isinstance(spec, list) and type(value) is list:
                        # a list's items are not tested: the list encoder writes any list
                        assert line == reference([changed]), (name, value)
                    else:
                        assert line is False, (name, value)
                        assert dumps_counting([changed]) == (reference([changed]), [changed])
                    assert trace.dumps([changed]) == reference([changed])


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

    @pytest.mark.parametrize(
        "scenario", [fig_broadcast_scenario(), adversarial_scenario(1)], ids=["broadcast", "adversarial 1"]
    )
    def test_events_hold_the_module_key_and_kind_strings(self, scenario):
        # json.loads makes new key strings for each line it parses
        loaded = trace.loads(trace.dumps(simnet.run(scenario).events))
        entries = [entry for e in loaded if e["kind"] == "INTERPRET" for entry in e["labels"]]
        assert entries
        for obj in loaded + entries:
            assert all(trace._NAMES[key] is key for key in obj), obj
        assert all(trace._NAMES[e["kind"]] is e["kind"] for e in loaded)

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


def identities(events: list[dict]) -> list:
    """Each key, str and list of the events in walk order, as the index of
    the first of them that is the same object, and for a key also whether
    it is the module's string."""
    first: dict[int, int] = {}
    out: list = []

    def walk(value) -> None:
        if type(value) is dict:
            for key, item in value.items():
                out.append((first.setdefault(id(key), len(first)), trace._NAMES.get(key) is key))
                walk(item)
        elif type(value) in (str, list):
            out.append(first.setdefault(id(value), len(first)))
            for item in value if type(value) is list else ():
                walk(item)

    for e in events:
        walk(e)
    return out


def read_both(data: bytes, path) -> tuple:
    """What ``loads`` makes of ``data``'s text and what ``read_jsonl`` makes
    of a file holding ``data``: the events, or the text of the
    ``TraceFormatError`` raised."""
    path.write_bytes(data)
    outcomes = []
    for read in (lambda: trace.loads(data.decode("utf-8")), lambda: trace.read_jsonl(str(path))):
        try:
            outcomes.append(read())
        except trace.TraceFormatError as exc:
            outcomes.append(str(exc))
    return tuple(outcomes)


def peak_of(call) -> tuple:
    """``call()``, the peak of the memory traced during the call above that
    at its start, and what of that is still held on return."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - before, current - before


class TestFiles:
    """``write_jsonl`` and ``read_jsonl`` work a line at a time, and a file
    holds and reads back what ``dumps`` and ``loads`` give in memory: the
    same bytes, the same events with the same shared lists and key strings,
    and the same errors."""

    def assert_same_both_ways(self, events, path) -> None:
        trace.write_jsonl(events, str(path))
        data = path.read_bytes()
        assert data == trace.dumps(events).encode()
        from_text, from_file = read_both(data, path)
        assert from_file == from_text
        if type(from_text) is list:
            assert identities(from_file) == identities(from_text)

    @pytest.mark.parametrize("name, scenario", list(lock_corpus()), ids=[n for n, _ in lock_corpus()])
    def test_simulated_traces_are_the_same_both_ways(self, name, scenario, tmp_path):
        self.assert_same_both_ways(simnet.run(scenario).events, tmp_path / "trace.jsonl")

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(CONFORMING | deviant(), max_size=6))
    def test_generated_events_are_the_same_both_ways(self, tmp_path, events):
        self.assert_same_both_ways(events, tmp_path / "trace.jsonl")

    @pytest.mark.parametrize("line", _MALFORMED_EVENTS)
    def test_a_malformed_line_gives_the_same_error_both_ways(self, line, tmp_path):
        data = trace.dumps([trace.event(0, "DROP", server=0, reason="x")]).encode() + line.encode() + b"\n"
        from_text, from_file = read_both(data, tmp_path / "bad.jsonl")
        assert from_text.startswith("line 2: ") and from_file == from_text

    def test_a_byte_that_is_not_utf8_is_reported_at_its_offset_in_the_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = trace.dumps([trace.event(step, "DROP", server=0, reason="x") for step in (0, 1)]).encode()
        bad = b'{"schema":1,"step":2,"kind":"DROP","server":0,"reason":"\xe9"}\n'
        path.write_bytes(good + bad)
        offset = len(good) + bad.index(b"\xe9")
        with pytest.raises(trace.TraceFormatError, match=f"^not UTF-8 text at byte {offset}$"):
            trace.read_jsonl(str(path))
        # the lines before it are parsed first, so a malformed one is reported
        path.write_bytes(b"{\n" + good + bad)
        with pytest.raises(trace.TraceFormatError, match="^line 1: not valid JSON"):
            trace.read_jsonl(str(path))

    def test_writing_a_file_peaks_below_half_its_size(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = simnet.run(adversarial_scenario(1)).events
        _, peak, _ = peak_of(lambda: trace.write_jsonl(events, str(path)))
        assert peak < 0.5 * path.stat().st_size

    def test_reading_a_file_peaks_a_quarter_of_its_size_above_the_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(simnet.run(adversarial_scenario(1)).events, str(path))
        events, peak, held = peak_of(lambda: trace.read_jsonl(str(path)))
        assert len(events) > 1000 and peak - held < 0.25 * path.stat().st_size
