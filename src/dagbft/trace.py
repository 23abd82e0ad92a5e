"""Trace event schema and JSONL serialization.

A run produces a totally ordered list of events, one JSON object per line.
Every event carries the schema version, the step it happened at, and a kind
from the fixed alphabet below; the remaining fields depend on the kind, and
parsing rejects an event that lacks one its kind always carries or gives it,
or one its kind may carry, another type. The serialization is canonical
(sorted keys, no whitespace) so identical runs produce byte-identical files.
``dumps`` writes the JSON encoder's bytes: an event with exactly its kind's
fields, or those and one optional field, each of exactly its type, through
the writer that ``_writer`` builds for that shape from the ``FIELDS`` types,
and any other event through the encoder. It encodes a list once per object
and call, so servers sharing one pay once. ``write_jsonl`` writes, and
``read_jsonl`` reads, a file one line at a time: neither holds its whole
text.

``dumps``, ``write_jsonl``, ``loads`` and ``read_jsonl`` run with the cyclic
garbage collector paused, as a run and each checker do: see :func:`gc_paused`.
"""

from __future__ import annotations

import gc
import json
import re
from functools import wraps
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _esc
from operator import itemgetter
from typing import BinaryIO, Iterable, Iterator

SCHEMA_VERSION = 1

# The fields every event of a kind carries besides schema, step and kind,
# with their types as simnet writes them: a Python type (``int`` excludes
# ``bool``), ``None``, a set of alternatives, ``[t]`` for a list of t, or
# ``(t1, t2)`` for a two-element list such as a label.
LABEL = (int, int)
FIELDS = {
    "SEND": {"frm": int, "to": int, "envelope": str, "ref": {str, None}, "size": int},
    "DELIVER": {"frm": int, "to": int, "envelope": str, "ref": str},
    "INSERT": {"server": int, "ref": str, "builder": int, "seqno": int, "preds": [str],
               "requests": [(int, int, str)]},
    "PROMOTE": {"server": int, "ref": str},
    "FWD_REQ": {"server": int, "ref": str, "to": int},
    "FWD_RESP": {"server": int, "to": int, "ref": str},
    "INTERPRET": {"server": int, "ref": str, "builder": int, "labels": [dict]},
    "INDICATE": {"server": int, "label": LABEL, "indication": str, "on_behalf_of": int,
                 "block": str, "surfaced": bool},
    "DROP": {"server": int, "reason": str},
}
# fields an event of a kind may carry besides those, typed as in FIELDS
OPTIONAL = {"DROP": {"frm": int, "ref": str}}
# per INTERPRET label entry
LABEL_FIELDS = {"label": LABEL, "fed": [str], "emitted": [str], "state": str, "skipped": int}
KINDS = frozenset(FIELDS)
# each key and kind an event may hold -> the module's string, which ``loads`` gives events
_NAMES = {name: name for fields in (*FIELDS.values(), *OPTIONAL.values(), LABEL_FIELDS, KINDS)
          for name in ("schema", "step", "kind", *fields)}


class TraceFormatError(Exception):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def gc_paused(fn):
    """``fn`` with the cyclic garbage collector disabled for each call. On
    return or raise the collector is enabled again if it was enabled at the
    call, so a caller that disabled it finds it disabled. Wrapping a
    generator function would pause only the call that creates the generator,
    so the functions that consume one are wrapped instead."""

    # Safe because each wrapped call (a run, a trace read, a check pass) is
    # bounded work that creates no reference cycles: reference counting frees
    # all its garbage, and a collection would only walk the growing heap to
    # find none. tests/test_gc_pause.py pins that over the corpus.
    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def event(step: int, kind: str, **fields) -> dict:
    if kind not in KINDS:
        raise TraceFormatError(f"unknown event kind {kind!r}")
    return {"schema": SCHEMA_VERSION, "step": step, "kind": kind, **fields}


# events hold no reference cycles, so the encoder need not look for them
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
# the C encoder that ``_ENCODER.encode`` builds on every call, built once with its settings
_C_ENCODER = c_make_encoder and c_make_encoder(
    None, _ENCODER.default, _esc, _ENCODER.indent, _ENCODER.key_separator,
    _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan)
_encode_list = (lambda value: "".join(_C_ENCODER(value, 0))) if _C_ENCODER else _ENCODER.encode

# a scalar FIELDS type -> (a test that the value x has it, an expression of x's JSON text)
_SCALARS = {int: ("type({x}) is int", "{x}"), bool: ("type({x}) is bool", '"true" if {x} else "false"'),
            str: ("type({x}) is str", "_esc({x})"), None: ("{x} is None", '"null"')}


def _code(spec, x: str) -> tuple[str, str]:
    """Source of a test that the value ``x`` has the ``FIELDS`` type ``spec``,
    and of string literals that join to its JSON text where the test holds."""
    if isinstance(spec, list):  # through the list encoder
        return f"type({x}) is list", f"f'{{enc({x})}}'"
    if isinstance(spec, tuple):
        items = [_code(item, f"{x}[{i}]") for i, item in enumerate(spec)]
        tests = [f"type({x}) is list", f"len({x}) == {len(spec)}", *(test for test, _ in items)]
        return " and ".join(tests), "'[' " + " ',' ".join(text for _, text in items) + " ']'"
    # a set's alternatives in a fixed order, so the source is the same in every process
    alts = [[part.format(x=x) for part in _SCALARS[alt]]
            for alt in (sorted(spec, key=str) if isinstance(spec, set) else [spec])]
    expr = "".join(f"{text} if {test} else " for test, text in alts[:-1]) + alts[-1][1]
    return f"({' or '.join(test for test, _ in alts)})", f"f'{{{expr}}}'"


def _writer(kind: str, fields: dict):
    """The line writer of an event of ``kind`` with exactly ``fields`` besides
    schema, step and kind: from a list encoder and the event's values in
    sorted-key order, its line, or False if a value is not of its field's
    type. A list's items are not tested, as the list encoder writes any."""
    specs = {"schema": int, "step": int, "kind": str, **fields}
    tests, texts = [], []
    for i, name in enumerate(sorted(specs)):
        test, text = _code(specs[name], f"v{i}")
        tests.append(test)
        texts += [repr(("," if i else "{") + _esc(name) + ":"), repr(_esc(kind)) if name == "kind" else text]
    params = ", ".join(f"v{i}" for i in range(len(specs)))
    return eval(f"lambda enc, {params}: {' and '.join(tests)} and {' '.join(texts)} '}}\\n'", {"_esc": _esc})


# a kind, or (kind, name) for an event of the kind with its optional field ``name`` -> its fields
_SHAPES = {**FIELDS, **{(kind, name): {**FIELDS[kind], name: spec}
                        for kind in OPTIONAL for name, spec in OPTIONAL[kind].items()}}
# shape -> its writer, compiled once from generated source as dataclasses builds __init__
_WRITERS = {shape: _writer(shape if type(shape) is str else shape[0], fields)
            for shape, fields in _SHAPES.items()}
_FAST = {shape: (itemgetter(*sorted({"schema", "step", "kind", *fields})), _WRITERS[shape])
         for shape, fields in _SHAPES.items()}


def _lines(events: Iterable[dict]) -> Iterator[str]:
    """Each event's line, as ``dumps`` joins and ``write_jsonl`` writes them."""
    held: dict[int, tuple[list, str]] = {}  # id -> (list, its text), held so no list reuses an id

    def encode_list(value: list) -> str:
        hit = held.get(id(value)) or held.setdefault(id(value), (value, _encode_list(value)))
        return hit[1]

    for e in events:
        try:
            get, write = _FAST[e["kind"]]
            values = get(e)
        except (KeyError, TypeError):  # not a dict, an unknown kind or a field missing
            values = ()
        line = values and len(e) == len(values) and write(encode_list, *values)
        if values and len(e) == len(values) + 1:  # perhaps one optional field more
            for name in OPTIONAL.get(e["kind"], {}).keys() & e.keys():
                get, write = _FAST[e["kind"], name]
                line = write(encode_list, *get(e))
        yield line or _ENCODER.encode(e) + "\n"


@gc_paused
def dumps(events: Iterable[dict]) -> str:
    return "".join(_lines(events))


@gc_paused
def write_jsonl(events: Iterable[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_lines(events))


def parse_line(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise TraceFormatError(f"not valid JSON ({getattr(exc, 'msg', exc)})", lineno) from exc
    except RecursionError as exc:
        raise TraceFormatError("JSON nested too deeply", lineno) from exc
    if not isinstance(obj, dict):
        raise TraceFormatError("event is not an object", lineno)
    if not conforms(obj.get("schema"), int) or obj["schema"] != SCHEMA_VERSION:
        raise TraceFormatError(f"unsupported schema {obj.get('schema')!r}", lineno)
    if not isinstance(obj.get("kind"), str) or obj["kind"] not in KINDS:
        raise TraceFormatError(f"unknown event kind {obj.get('kind')!r}", lineno)
    if not conforms(obj.get("step"), int):
        raise TraceFormatError("missing integer step", lineno)
    _require(obj, FIELDS[obj["kind"]], obj["kind"], lineno)
    present = {name: spec for name, spec in OPTIONAL.get(obj["kind"], {}).items() if name in obj}
    _require(obj, present, obj["kind"], lineno)
    if obj["kind"] == "INTERPRET":
        for entry in obj["labels"]:
            _require(entry, LABEL_FIELDS, "INTERPRET label entry", lineno)
    return obj


def conforms(value, spec) -> bool:
    """Whether a parsed JSON value has the type ``spec`` (see ``FIELDS``)."""
    if isinstance(spec, set):
        return any(conforms(value, alt) for alt in spec)
    if isinstance(spec, tuple):
        return type(value) is list and len(value) == len(spec) and all(map(conforms, value, spec))
    if isinstance(spec, list):  # of one Python type, the items' types are read in C
        return type(value) is list and ({*map(type, value)} <= {spec[0]} if type(spec[0]) is type
                                        else all(conforms(item, spec[0]) for item in value))
    return value is None if spec is None else type(value) is spec


def _require(obj: dict, fields: dict, what: str, lineno: int) -> None:
    missing = [name for name in fields if name not in obj]
    if missing:
        raise TraceFormatError(f"{what} lacks {', '.join(missing)}", lineno)
    for name, spec in fields.items():
        if not conforms(obj[name], spec):
            raise TraceFormatError(f"{what} field {name} has the wrong type", lineno)


def _parse(lines: Iterable[str]) -> list[dict]:
    """The events of a JSONL trace's lines, as :func:`loads` gives them."""
    refs: dict[str, str] = {}  # a ref's first string, which equal ones are replaced by
    preds_lists: dict[tuple[str, ...], list[str]] = {}  # content -> the first list
    labels_lists: dict[tuple, list[dict]] = {}  # content -> the first list
    events = []
    name = _NAMES.get
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        obj = {name(key, key): value for key, value in parse_line(line, lineno).items()}
        kind = obj["kind"] = _NAMES[obj["kind"]]
        ref = obj.get("ref")
        if type(ref) is str:
            obj["ref"] = refs.setdefault(ref, ref)
        if kind == "INSERT":
            preds = tuple(obj["preds"])
            if preds not in preds_lists:
                preds_lists[preds] = [refs.setdefault(p, p) for p in preds]
            obj["preds"] = preds_lists[preds]
        elif kind == "INTERPRET" and all(len(e) == len(LABEL_FIELDS) for e in obj["labels"]):
            content = tuple([(*e["label"], tuple(e["fed"]), tuple(e["emitted"]), e["state"], e["skipped"])
                             for e in obj["labels"]])
            if content not in labels_lists:
                labels_lists[content] = [{name(k, k): v for k, v in e.items()} for e in obj["labels"]]
            obj["labels"] = labels_lists[content]
        elif kind == "INDICATE":
            obj["block"] = refs.setdefault(obj["block"], obj["block"])
        events.append(obj)
    return events


@gc_paused
def loads(text: str) -> list[dict]:
    """The events of a JSONL trace. As in a run, equal keys, kinds, ``ref``,
    INSERT ``preds`` and INDICATE ``block`` values are one string, and equal
    INSERT ``preds`` and INTERPRET ``labels`` lists, equal with the types
    ``parse_line`` checked, one list; a ``labels`` list with an entry that
    has a field beyond ``LABEL_FIELDS`` keeps its own."""
    # split on "\n" alone, lazily: splitlines splits inside JSON strings too
    return _parse(map(itemgetter(0), re.finditer("^.*$", text, re.MULTILINE)))


def _decoded(fh: BinaryIO) -> Iterator[str]:
    """Each line of a binary file as UTF-8 text, without its newline."""
    offset = 0
    for raw in fh:
        try:
            yield raw.rstrip(b"\n").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"not UTF-8 text at byte {offset + exc.start}") from exc
        offset += len(raw)


@gc_paused
def read_jsonl(path: str) -> list[dict]:
    with open(path, "rb") as fh:
        return _parse(_decoded(fh))
