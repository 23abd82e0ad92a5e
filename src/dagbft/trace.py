"""Trace event schema and JSONL serialization.

A run produces a totally ordered list of events, one JSON object per line.
Every event carries the schema version, the step it happened at, and a kind
from the fixed alphabet below; the remaining fields depend on the kind, and
parsing rejects an event that lacks one its kind always carries or gives it
another type. The serialization is canonical (sorted keys, no whitespace) so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
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
# per INTERPRET label entry
LABEL_FIELDS = {"label": LABEL, "fed": [str], "emitted": [str], "state": str, "skipped": int}
KINDS = frozenset(FIELDS)


class TraceFormatError(Exception):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def event(step: int, kind: str, **fields) -> dict:
    if kind not in KINDS:
        raise TraceFormatError(f"unknown event kind {kind!r}")
    out = {"schema": SCHEMA_VERSION, "step": step, "kind": kind}
    out.update(fields)
    return out


# events hold no reference cycles, so the encoder need not look for them
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def dumps(events: Iterable[dict]) -> str:
    encode = _ENCODER.encode
    return "".join(encode(e) + "\n" for e in events)


def write_jsonl(events: Iterable[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(events))


def parse_line(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON ({exc.msg})", lineno) from exc
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


def loads(text: str) -> list[dict]:
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        events.append(parse_line(line, lineno))
    return events


def read_jsonl(path: str) -> list[dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"not UTF-8 text at byte {exc.start}") from exc
    return loads(text)
