"""Trace event schema and JSONL serialization.

A run produces a totally ordered list of events, one JSON object per line.
Every event carries the schema version, the step it happened at, and a kind
from the fixed alphabet below; the remaining fields depend on the kind, and
parsing rejects an event that lacks one its kind always carries or gives it,
or one its kind may carry, another type. The serialization is canonical
(sorted keys, no whitespace) so identical runs produce byte-identical files.
``dumps`` writes the JSON encoder's bytes: an event with exactly its kind's
fields, or those and one optional field, each of exactly its type, through
a template of that shape, and any other event through the encoder.
It encodes a list once per object and call, so servers sharing one pay once.

``loads`` runs with the cyclic garbage collector paused, as a run and each
checker do: see :func:`gc_paused`.
"""

from __future__ import annotations

import gc
import json
import re
from functools import wraps
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _esc
from operator import itemgetter
from typing import Iterable

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


class TraceFormatError(Exception):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def gc_paused(fn):
    """``fn`` with the cyclic garbage collector disabled for each call. On
    return or raise the collector is enabled again if it was enabled at the
    call, so a caller that disabled it finds it disabled."""

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

# kind -> its line, from a list encoder and its values in sorted-key order, or False
_WRITERS = {
    "SEND": lambda enc, envelope, frm, kind, ref, schema, size, step, to:
        type(kind) is type(envelope) is str and (ref is None or type(ref) is str)
        and type(frm) is type(schema) is type(size) is type(step) is type(to) is int
        and f'{{"envelope":{_esc(envelope)},"frm":{frm},"kind":"{kind}",'
        f'"ref":{"null" if ref is None else _esc(ref)},"schema":{schema},"size":{size},'
        f'"step":{step},"to":{to}}}\n',
    "DELIVER": lambda enc, envelope, frm, kind, ref, schema, step, to:
        type(kind) is type(envelope) is type(ref) is str and type(frm) is type(to) is int
        and type(schema) is type(step) is int and f'{{"envelope":{_esc(envelope)},"frm":{frm},'
        f'"kind":"{kind}","ref":{_esc(ref)},"schema":{schema},"step":{step},"to":{to}}}\n',
    "INSERT": lambda enc, builder, kind, preds, ref, requests, schema, seqno, server, step:
        type(kind) is type(ref) is str and type(preds) is type(requests) is list
        and type(builder) is type(schema) is type(seqno) is type(server) is type(step) is int
        and f'{{"builder":{builder},"kind":"{kind}","preds":{enc(preds)},"ref":{_esc(ref)},'
        f'"requests":{enc(requests)},"schema":{schema},"seqno":{seqno},"server":{server},'
        f'"step":{step}}}\n',
    "PROMOTE": lambda enc, kind, ref, schema, server, step:
        type(kind) is type(ref) is str and type(schema) is type(server) is type(step) is int
        and f'{{"kind":"{kind}","ref":{_esc(ref)},"schema":{schema},"server":{server},'
        f'"step":{step}}}\n',
    "FWD_REQ": lambda enc, kind, ref, schema, server, step, to:
        type(kind) is type(ref) is str and type(schema) is type(server) is type(step) is int
        and type(to) is int and f'{{"kind":"{kind}","ref":{_esc(ref)},"schema":{schema},'
        f'"server":{server},"step":{step},"to":{to}}}\n',
    "INTERPRET": lambda enc, builder, kind, labels, ref, schema, server, step:
        type(kind) is type(ref) is str and type(labels) is list
        and type(builder) is type(schema) is type(server) is type(step) is int
        and f'{{"builder":{builder},"kind":"{kind}","labels":{enc(labels)},"ref":{_esc(ref)},'
        f'"schema":{schema},"server":{server},"step":{step}}}\n',
    "INDICATE": lambda enc, block, indication, kind, label, behalf, schema, server, step, surfaced:
        type(kind) is type(block) is type(indication) is str and type(surfaced) is bool
        and type(label) is list and len(label) == 2 and type(label[0]) is type(label[1]) is int
        and type(behalf) is type(schema) is type(server) is type(step) is int
        and f'{{"block":{_esc(block)},"indication":{_esc(indication)},"kind":"{kind}",'
        f'"label":[{label[0]},{label[1]}],"on_behalf_of":{behalf},"schema":{schema},'
        f'"server":{server},"step":{step},"surfaced":{"true" if surfaced else "false"}}}\n',
    "DROP": lambda enc, kind, reason, schema, server, step:
        type(kind) is type(reason) is str and type(schema) is type(server) is type(step) is int
        and f'{{"kind":"{kind}","reason":{_esc(reason)},"schema":{schema},"server":{server},'
        f'"step":{step}}}\n',
    # (kind, name): an event of the kind with the one optional field ``name``
    ("DROP", "frm"): lambda enc, frm, kind, reason, schema, server, step:
        type(kind) is type(reason) is str and type(frm) is type(schema) is type(server) is int
        and type(step) is int and f'{{"frm":{frm},"kind":"{kind}","reason":{_esc(reason)},'
        f'"schema":{schema},"server":{server},"step":{step}}}\n',
    ("DROP", "ref"): lambda enc, kind, reason, ref, schema, server, step:
        type(kind) is type(reason) is type(ref) is str and type(schema) is type(server) is int
        and type(step) is int and f'{{"kind":"{kind}","reason":{_esc(reason)},"ref":{_esc(ref)},'
        f'"schema":{schema},"server":{server},"step":{step}}}\n',
}
_WRITERS["FWD_RESP"] = _WRITERS["FWD_REQ"]  # the same fields
_SHAPES = {**FIELDS, **{(k, name): [*FIELDS[k], name] for k in OPTIONAL for name in OPTIONAL[k]}}
_FAST = {shape: (itemgetter(*sorted({"schema", "step", "kind", *fields})), _WRITERS[shape])
         for shape, fields in _SHAPES.items()}


def dumps(events: Iterable[dict]) -> str:
    held: dict[int, tuple[list, str]] = {}  # id -> (list, its text), held so no list reuses an id

    def encode_list(value: list) -> str:
        hit = held.get(id(value)) or held.setdefault(id(value), (value, _encode_list(value)))
        return hit[1]

    lines = []
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
        lines.append(line or _ENCODER.encode(e) + "\n")
    return "".join(lines)


def write_jsonl(events: Iterable[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(events))


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
    if isinstance(spec, list):
        return type(value) is list and all(conforms(item, spec[0]) for item in value)
    return value is None if spec is None else type(value) is spec


def _require(obj: dict, fields: dict, what: str, lineno: int) -> None:
    missing = [name for name in fields if name not in obj]
    if missing:
        raise TraceFormatError(f"{what} lacks {', '.join(missing)}", lineno)
    for name, spec in fields.items():
        if not conforms(obj[name], spec):
            raise TraceFormatError(f"{what} field {name} has the wrong type", lineno)


@gc_paused
def loads(text: str) -> list[dict]:
    """The events of a JSONL trace. As in a run, equal ``ref``, INSERT
    ``preds`` and INDICATE ``block`` values are one string, and equal INSERT
    ``preds`` and INTERPRET ``labels`` lists, equal with the types
    ``parse_line`` checked, one list; a ``labels`` list with an entry that
    has a field beyond ``LABEL_FIELDS`` keeps its own."""
    refs: dict[str, str] = {}  # a ref's first string, which equal ones are replaced by
    preds_lists: dict[tuple[str, ...], list[str]] = {}  # content -> the first list
    labels_lists: dict[tuple, list[dict]] = {}  # content -> the first list
    events = []
    # one line at a time, split on "\n" alone: splitlines splits inside JSON strings too
    lines = enumerate(map(itemgetter(0), re.finditer("^.*$", text, re.MULTILINE)), start=1)
    for lineno, line in lines:
        if not line.strip():
            continue
        obj = parse_line(line, lineno)
        ref = obj.get("ref")
        if type(ref) is str:
            obj["ref"] = refs.setdefault(ref, ref)
        kind = obj["kind"]
        if kind == "INSERT":
            preds = tuple(obj["preds"])
            if preds not in preds_lists:
                preds_lists[preds] = [refs.setdefault(p, p) for p in preds]
            obj["preds"] = preds_lists[preds]
        elif kind == "INTERPRET" and all(len(e) == len(LABEL_FIELDS) for e in obj["labels"]):
            content = tuple([(*e["label"], tuple(e["fed"]), tuple(e["emitted"]), e["state"], e["skipped"])
                             for e in obj["labels"]])
            obj["labels"] = labels_lists.setdefault(content, obj["labels"])
        elif kind == "INDICATE":
            obj["block"] = refs.setdefault(obj["block"], obj["block"])
        events.append(obj)
    return events


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``; its bytes are freed on return."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"not UTF-8 text at byte {exc.start}") from exc


def read_jsonl(path: str) -> list[dict]:
    return loads(_read_text(path))
