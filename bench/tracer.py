"""Spans around the calls into each dagbft layer, recorded from outside.

``Tracer.install()`` replaces the layer-boundary functions and methods of
the ``dagbft`` modules with wrappers that record one span per call (id,
name, parent id, start and end in nanoseconds) into a flat in-memory array;
``uninstall()`` puts the originals back. Nothing in ``src/`` is edited, and
the wrappers only observe, so a traced run must produce the same trace
bytes as an untraced one (the benchmark checks this on every traced run).

``block_ref`` is imported by name into several modules, so it is wrapped
in each module that binds it, under the one span name
``blockdag.block_ref``.
"""

from __future__ import annotations

import gzip
from array import array
from itertools import count
from time import perf_counter_ns

from dagbft import blockdag, brb, checks, crypto, gossip, interpret, shim, simnet, trace
import dagbft

# span name -> the (owner, attribute) pairs it wraps: every function a
# per-layer metric reads, plus request_missing so that FWD work is not
# billed to the simulator's self time; nothing more, to keep the overhead low
LAYER_TARGETS: dict[str, list[tuple[object, str]]] = {
    "crypto.sign": [(crypto.KeyRegistry, "sign"), (crypto.Ed25519Registry, "sign")],
    "crypto.verify": [(crypto.KeyRegistry, "verify"), (crypto.Ed25519Registry, "verify")],
    "blockdag.block_ref": [
        (blockdag, "block_ref"),
        (gossip, "block_ref"),
        (interpret, "block_ref"),
        (simnet, "block_ref"),
        (dagbft, "block_ref"),
    ],
    "blockdag.is_valid": [(blockdag.BlockDag, "is_valid")],
    "blockdag.insert": [(blockdag.BlockDag, "insert")],
    "gossip.decode": [(gossip.WireEnvelope, "decode")],
    "gossip.encode": [(gossip.WireEnvelope, "encode")],
    "gossip.on_receive_block": [(gossip.GossipNode, "on_receive_block")],
    "gossip.try_promote": [(gossip.GossipNode, "try_promote")],
    "gossip.request_missing": [(gossip.GossipNode, "request_missing")],
    "gossip.disseminate": [(gossip.GossipNode, "disseminate")],
    "interpret.run_to_fixpoint": [(interpret.Interpreter, "run_to_fixpoint")],
    "interpret.state_digest": [(interpret.Interpreter, "state_digest")],
    "brb.on_receive": [(brb.BrbInstance, "on_receive")],
    "brb.clone": [(brb.BrbInstance, "clone")],
    "brb.state_bytes": [(brb.BrbInstance, "state_bytes")],
    "shim.tick": [(shim.Shim, "tick")],
    "simnet.run": [(simnet, "run")],
    "trace.dumps": [(trace, "dumps")],
    "checks.server_views": [(checks, "server_views")],
    "checks.point_to_point": [(checks, "check_point_to_point")],
    "checks.brb": [(checks, "check_brb")],
    "checks.convergence": [(checks, "check_convergence")],
    "checks.agreement": [(checks, "check_interpretation_agreement")],
}

_FIELDS = 5  # id, name, parent, start_ns, end_ns


class Tracer:
    """Records spans while installed; one tracer per traced run."""

    def __init__(self) -> None:
        self.names = list(LAYER_TARGETS)
        self.spans = array("q")
        self.fixpoint_blocks: list[int] = []  # blocks per run_to_fixpoint call
        self.pending_high_water = 0
        self._stack: list[int] = []
        self._next_id = count().__next__
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        after = {
            "gossip.on_receive_block": self._after_receive,
            "interpret.run_to_fixpoint": self._after_fixpoint,
        }
        for name_id, name in enumerate(self.names):
            for owner, attr in LAYER_TARGETS[name]:
                raw = owner.__dict__[attr]
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name_id, after.get(name)))
                else:
                    wrapped = self._wrap(raw, name_id, after.get(name))
                setattr(owner, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name_id: int, after):
        stack = self._stack
        next_id = self._next_id
        record = self.spans.extend

        def span(*args, **kwargs):
            sid = next_id()
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                record((sid, name_id, parent, start, end))
            if after is not None:
                after(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def _after_receive(self, args, _result) -> None:
        self.pending_high_water = max(self.pending_high_water, len(args[0].pending))

    def _after_fixpoint(self, _args, result) -> None:
        self.fixpoint_blocks.append(len(result))

    # -- analysis ---------------------------------------------------------------

    def rows(self):
        """(id, name, parent, start_ns, end_ns) per span, in end order."""
        s = self.spans
        for i in range(0, len(s), _FIELDS):
            yield s[i], self.names[s[i + 1]], s[i + 2], s[i + 3], s[i + 4]

    def summary(self) -> "SpanSummary":
        s = self.spans
        n = len(s) // _FIELDS
        ids, name_ids, parents = s[0::_FIELDS], s[1::_FIELDS], s[2::_FIELDS]
        durs = [e - b for b, e in zip(s[3::_FIELDS], s[4::_FIELDS])]
        name_of_id = dict(zip(ids, name_ids))
        child_ns: dict[int, int] = {}
        for parent, dur in zip(parents, durs):
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + dur
        width = len(self.names)
        calls = [0] * width
        total = [0] * width
        self_ns = [0] * width
        under: dict[tuple[int, int], int] = {}  # (name, parent name) -> calls
        fixpoint_ns: list[int] = []
        fixpoint_id = self.names.index("interpret.run_to_fixpoint")
        for i in range(n):
            nid = name_ids[i]
            calls[nid] += 1
            total[nid] += durs[i]
            self_ns[nid] += durs[i] - child_ns.get(ids[i], 0)
            parent = parents[i]
            key = (nid, name_of_id[parent] if parent >= 0 else -1)
            under[key] = under.get(key, 0) + 1
            if nid == fixpoint_id:
                fixpoint_ns.append(durs[i])
        return SpanSummary(self.names, calls, total, self_ns, under, fixpoint_ns)

    def dump(self, path: str, rep: int, mode: str = "at") -> None:
        """Append this tracer's spans as CSV rows to a gzip file."""
        with gzip.open(path, mode, encoding="ascii", compresslevel=1) as fh:
            if mode.startswith("w"):
                fh.write("rep,id,name,parent,start_ns,end_ns\n")
            fh.writelines(
                f"{rep},{sid},{name},{parent},{start},{end}\n"
                for sid, name, parent, start, end in self.rows()
            )


class SpanSummary:
    """Per-name call counts, inclusive and self times, and parentage."""

    def __init__(self, names, calls, total, self_ns, under, fixpoint_ns) -> None:
        self._index = {name: i for i, name in enumerate(names)}
        self._calls = calls
        self._total = total
        self._self = self_ns
        self._under = under
        self.fixpoint_ns = fixpoint_ns

    def calls(self, name: str) -> int:
        return self._calls[self._index[name]]

    def total_s(self, name: str) -> float:
        return self._total[self._index[name]] / 1e9

    def self_s(self, name: str) -> float:
        return self._self[self._index[name]] / 1e9

    def calls_under(self, name: str, parent: str) -> int:
        return self._under.get((self._index[name], self._index[parent]), 0)
