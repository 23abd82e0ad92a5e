"""Trace event schema and JSONL serialization.

A run produces a totally ordered list of events, one JSON object per line.
Every event carries the schema version, the step it happened at, and a kind
from the fixed alphabet below; the remaining fields depend on the kind, and
parsing rejects an event that lacks one its kind always carries. The
serialization is canonical (sorted keys, no whitespace) so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Iterable

SCHEMA_VERSION = 1

# the fields every event of a kind carries besides schema, step and kind
FIELDS = {
    "SEND": ("frm", "to", "envelope", "ref", "size"),
    "DELIVER": ("frm", "to", "envelope", "ref"),
    "INSERT": ("server", "ref", "builder", "seqno", "preds", "requests"),
    "PROMOTE": ("server", "ref"),
    "FWD_REQ": ("server", "ref", "to"),
    "FWD_RESP": ("server", "to", "ref"),
    "INTERPRET": ("server", "ref", "builder", "labels"),
    "INDICATE": ("server", "label", "indication", "on_behalf_of", "block", "surfaced"),
    "DROP": ("server", "reason"),
}
LABEL_FIELDS = ("label", "fed", "emitted", "state", "skipped")  # per INTERPRET label
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


def dumps(events: Iterable[dict]) -> str:
    return "".join(
        json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n" for e in events
    )


def write_jsonl(events: Iterable[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(events))


def parse_line(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON ({exc.msg})", lineno) from exc
    if not isinstance(obj, dict):
        raise TraceFormatError("event is not an object", lineno)
    if obj.get("schema") != SCHEMA_VERSION:
        raise TraceFormatError(f"unsupported schema {obj.get('schema')!r}", lineno)
    if not isinstance(obj.get("kind"), str) or obj["kind"] not in KINDS:
        raise TraceFormatError(f"unknown event kind {obj.get('kind')!r}", lineno)
    if not isinstance(obj.get("step"), int):
        raise TraceFormatError("missing integer step", lineno)
    _require(obj, FIELDS[obj["kind"]], obj["kind"], lineno)
    if obj["kind"] == "INTERPRET":
        if not isinstance(obj["labels"], list):
            raise TraceFormatError("INTERPRET labels is not a list", lineno)
        for entry in obj["labels"]:
            _require(entry, LABEL_FIELDS, "INTERPRET label entry", lineno)
    return obj


def _require(obj, fields: tuple[str, ...], what: str, lineno: int) -> None:
    if not isinstance(obj, dict):
        raise TraceFormatError(f"{what} is not an object", lineno)
    missing = [name for name in fields if name not in obj]
    if missing:
        raise TraceFormatError(f"{what} lacks {', '.join(missing)}", lineno)


def loads(text: str) -> list[dict]:
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        events.append(parse_line(line, lineno))
    return events


def read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
