"""Deterministic seeded network simulator with byzantine behaviors.

Time is an integer step counter. Every envelope put on the wire gets a
delivery delay drawn uniformly from the scenario's bounds by a Mersenne
Twister seeded from the scenario; envelopes due at the same step are
delivered in (receiver, sender, send step, SHA-256 of the wire bytes) order.
The whole run is a pure function of the scenario, so equal scenarios produce
byte-identical traces.

Correct servers are ``Shim`` instances: the full stack of gossip,
interpretation and the self-filter on indications. Byzantine servers run
scripted behaviors on a ``GossipNode`` whose registry is a restricted signer
that can only sign as their own id; their outbound traffic is throttled by a
per-step envelope budget. Both kinds take requests through the node's FIFO
and send and receive ``WireEnvelope``s on one path: the wire carries each
envelope with its bytes, and its receiver is handed the envelope sent. So
the servers share one block object, hash and signature check per sealed
block, and a sealed block is verified once, at its commit, and decoded by
no receiver. The SEND size is the header's length plus the block's wire
bytes' or the FWD ref's, and no envelope is encoded to send it; the wire
bytes are hashed only for the envelopes due at one step that share their
link and send step, the one case the digest orders. Only raw bytes, which
GARBAGE junk is, are decoded, and trusted no further than the link they
came by.

The drain phase realizes "eventually" at a finite horizon: each
correct server publishes its current block once more, then deliveries,
promotions, and forced FWD recovery run until the wire is empty, with no new
disseminations. Byzantine servers are halted there: envelopes to them are
not handed to them and their outboxes are never flushed, so they send nothing.

The trace is the record of a run: a server's DAG at a step is the blocks
its INSERT events up to that step list, and the engine keeps no copies.
Each ref is hex-encoded once per run, so every event field that names one
ref (``ref``, INSERT ``preds``, INDICATE ``block``) holds one string object,
and equal INSERT ``preds`` lists are one list, as ``trace.loads`` gives them.
A run makes no reference cycles and runs with the cyclic garbage collector
paused: see ``trace.gc_paused``.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, replace
from operator import itemgetter
from random import Random
from typing import Optional

from . import trace
from .blockdag import Block, BlockDag, BlockRef, block_ref
from .brb import ReliableBroadcast, decode_broadcast, encode_broadcast
from .crypto import EncodingError, KeyRegistry, RestrictedSigner, Signature, SignatureScheme
from .gossip import (
    BLOCK_ENVELOPE,
    FWD_ENVELOPE,
    Disposition,
    GossipNode,
    WireEnvelope,
)
from .interpret import BlockInterpretation
from .protocol import Label
from .shim import Shim

BEHAVIOR_KINDS = (
    "EQUIVOCATE",
    "SILENT",
    "SELECTIVE_SEND",
    "GARBAGE",
    "CRASH_AT",
    "DUPLICATE_REFS",
)

# the one field beside ``kind`` that a behavior of each of these kinds reads:
# the only one it parses, accepts set and writes
_KIND_FIELDS = {"CRASH_AT": {"crash_step": int}, "SELECTIVE_SEND": {"targets": [int]}}

ADVERSARY_BUDGET = 4
"""Envelopes a byzantine server may put on the wire per step."""

_SCHEMA = trace.SCHEMA_VERSION  # events are dict literals: ``trace.event``'s keys, in its order


class ScenarioError(Exception):
    """The scenario violates a configuration invariant."""


def _fields(data, types: dict, what: str, required) -> dict:
    """The entries of the JSON object ``data``. Each key must be one of
    ``types`` and hold a value of its ``trace.conforms`` type, and every key
    in ``required`` must be present."""
    if type(data) is not dict:
        raise ScenarioError(f"{what} must be a JSON object")
    for key, value in data.items():
        if key not in types:
            raise ScenarioError(f"{what} has unknown key {key!r}")
        if not trace.conforms(value, types[key]):
            raise ScenarioError(f"{what} key {key!r} has the wrong type")
    for key in required:
        if key not in data:
            raise ScenarioError(f"{what} lacks key {key!r}")
    return data


@dataclass(frozen=True)
class BehaviorSpec:
    """A byzantine server's script; building an invalid one raises
    ``ScenarioError``. That its targets are servers is ``Scenario``'s check."""

    kind: str
    crash_step: int = 0
    targets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in BEHAVIOR_KINDS:
            raise ScenarioError(f"unknown behavior kind {self.kind!r}")
        for name in ("crash_step", "targets"):
            if getattr(self, name) and name not in _KIND_FIELDS.get(self.kind, {}):
                raise ScenarioError(f"{self.kind} does not read {name}")
        if self.kind == "CRASH_AT" and self.crash_step < 0:
            raise ScenarioError("crash_step must be non-negative")
        if self.kind == "SELECTIVE_SEND" and not self.targets:
            raise ScenarioError("SELECTIVE_SEND needs at least one target")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in _KIND_FIELDS.get(self.kind, {}):
            value = getattr(self, name)
            out[name] = list(value) if type(value) is tuple else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "BehaviorSpec":
        if type(data) is not dict:
            raise ScenarioError("behavior must be a JSON object")
        kind = data.get("kind")
        if kind not in BEHAVIOR_KINDS:
            raise ScenarioError(f"unknown behavior kind {kind!r}")
        types = {"kind": str, **_KIND_FIELDS.get(kind, {})}
        data = _fields(data, types, f"{kind} behavior", ("kind",))
        return cls(kind, data.get("crash_step", 0), tuple(data.get("targets", ())))


@dataclass(frozen=True)
class RequestInjection:
    """A broadcast of ``value`` requested at ``server`` on ``step``; one
    whose label or value does not fit its encoding raises ``ScenarioError``.
    That the server and step exist is ``Scenario``'s check."""

    step: int
    server: int
    label: Label
    value: int

    def __post_init__(self) -> None:
        if not (0 <= self.label.originator < 2**32 and 0 <= self.label.nonce < 2**64):
            raise ScenarioError("request label must be a (u32, u64) pair")
        if not 0 <= self.value < 2**64:
            raise ScenarioError("request value must fit in 64 bits")


@dataclass(frozen=True)
class Scenario:
    """Everything a run depends on; building an invalid one raises
    ``ScenarioError``, so every ``Scenario`` is a runnable one."""

    n: int
    f: int
    seed: int
    max_steps: int
    delay_bounds: tuple[int, int] = (1, 1)
    cadence: int = 3
    fwd_interval: int = 5
    byzantine: tuple[tuple[int, BehaviorSpec], ...] = ()
    requests: tuple[RequestInjection, ...] = ()
    snapshot_steps: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n != 3 * self.f + 1:
            raise ScenarioError(f"need n = 3f + 1 servers, got n={self.n}, f={self.f}")
        if len(self.byzantine) > self.f:
            raise ScenarioError("more byzantine servers than the fault bound")
        seen = set()
        for server, spec in self.byzantine:
            if not 0 <= server < self.n:
                raise ScenarioError(f"byzantine server {server} out of range")
            if server in seen:
                raise ScenarioError(f"server {server} listed byzantine twice")
            seen.add(server)
            if any(not 0 <= t < self.n for t in spec.targets):
                raise ScenarioError("behavior targets out of range")
        if len(self.delay_bounds) != 2:
            raise ScenarioError("delay_bounds must be a (min, max) pair")
        lo, hi = self.delay_bounds
        if not 1 <= lo <= hi:
            raise ScenarioError("delay bounds must satisfy 1 <= min <= max")
        if self.max_steps < 1:
            raise ScenarioError("max_steps must be positive")
        if self.cadence < 1 or self.fwd_interval < 1:
            raise ScenarioError("cadence and fwd_interval must be >= 1")
        for req in self.requests:
            if not 0 <= req.server < self.n:
                raise ScenarioError(f"request targets unknown server {req.server}")
            if not 0 <= req.step < self.max_steps:
                raise ScenarioError("request step must fall inside the run horizon")
        for step in self.snapshot_steps:
            if not 0 <= step < self.max_steps:
                raise ScenarioError("snapshot step must fall inside the run horizon")
        if len(set(self.snapshot_steps)) != len(self.snapshot_steps):
            raise ScenarioError("snapshot steps must be distinct")

    def correct_servers(self) -> list[int]:
        byz = {s for s, _ in self.byzantine}
        return [s for s in range(self.n) if s not in byz]

    # -- JSON -----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "f": self.f,
            "seed": self.seed,
            "max_steps": self.max_steps,
            "delay_bounds": list(self.delay_bounds),
            "cadence": self.cadence,
            "fwd_interval": self.fwd_interval,
            "byzantine": {str(s): spec.to_dict() for s, spec in self.byzantine},
            "requests": [
                {
                    "step": r.step,
                    "server": r.server,
                    "label": [r.label.originator, r.label.nonce],
                    "value": r.value,
                }
                for r in self.requests
            ],
            "snapshot_steps": list(self.snapshot_steps),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Parse a scenario's JSON object. An unknown key, a
        value of the wrong type (a bool is no int) or a field the behavior's
        kind does not read raises ``ScenarioError``."""
        data = _fields(data, _SCENARIO_FIELDS, "scenario", ("n", "f", "seed", "max_steps"))
        fields = {key: tuple(v) if type(v) is list else v for key, v in data.items()}
        byzantine = []
        for key, spec in data.get("byzantine", {}).items():
            if not (type(key) is str and key.isascii() and key.isdigit()):
                raise ScenarioError(f"byzantine key {key!r} is not a server id")
            byzantine.append((int(key), BehaviorSpec.from_dict(spec)))
        fields["byzantine"] = tuple(sorted(byzantine, key=lambda item: item[0]))
        requests = []
        for entry in data.get("requests", ()):
            r = _fields(entry, _REQUEST_FIELDS, "request", tuple(_REQUEST_FIELDS))
            label = Label(*r["label"])
            requests.append(RequestInjection(r["step"], r["server"], label, r["value"]))
        fields["requests"] = tuple(requests)
        return cls(**fields)

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)


_SCENARIO_FIELDS = {
    "n": int,
    "f": int,
    "seed": int,
    "max_steps": int,
    "delay_bounds": (int, int),
    "cadence": int,
    "fwd_interval": int,
    "byzantine": dict,
    "requests": [dict],
    "snapshot_steps": [int],
}
_REQUEST_FIELDS = {"step": int, "server": int, "label": (int, int), "value": int}


@dataclass
class RunResult:
    scenario: Scenario
    events: list[dict]
    final_dags: dict[int, BlockDag]

    def trace_text(self) -> str:
        return trace.dumps(self.events)


# ---------------------------------------------------------------------------
# Byzantine behaviors
# ---------------------------------------------------------------------------


class _Adversary:
    """One scripted byzantine server. Takes received blocks through the same
    gossip intake as a correct server, seals its own blocks on preds it
    picks, and puts its envelopes, or (receiver, junk bytes) pairs, in an
    outbox that the engine drains at the per-step budget."""

    def __init__(
        self,
        server: int,
        spec: BehaviorSpec,
        scenario: Scenario,
        restricted: RestrictedSigner,
    ) -> None:
        self.server = server
        self.spec = spec
        self.scenario = scenario
        # GARBAGE is the one behavior that draws from an RNG
        self.rng = Random((scenario.seed << 8) ^ server) if spec.kind == "GARBAGE" else None
        self.node = GossipNode(server, restricted)
        self.outbox: deque[WireEnvelope | tuple[int, bytes]] = deque()
        self._marker_nonce = 0

    # -- engine hooks ---------------------------------------------------------

    def request(self, label: Label, payload: bytes) -> None:
        """Queue a request on the node's FIFO, as ``Shim.request`` does."""
        self.node.requests.append((label, payload))

    def on_deliver(self, now: int, envelope: Optional[WireEnvelope]) -> None:
        if envelope is None or self._dead(now):
            return
        kind = self.spec.kind
        if kind in ("SILENT", "GARBAGE"):
            return
        if envelope.kind == BLOCK_ENVELOPE:
            self.node.on_receive_block(envelope.block)
        elif envelope.kind == FWD_ENVELOPE and kind == "CRASH_AT":
            reply = self.node.on_fwd_request(envelope.ref, envelope.sender)
            if reply is not None:
                self.outbox.append(reply)

    def on_step(self, now: int) -> None:
        if self._dead(now):
            self.outbox.clear()
            return
        kind = self.spec.kind
        if kind == "SILENT":
            return
        if kind == "GARBAGE":
            if now % self.scenario.cadence == 0:
                self._emit_garbage()
            return
        self.node.try_promote()
        if now % self.scenario.cadence != 0:
            return
        requests = self.node.take_requests()
        if kind == "EQUIVOCATE" and self.node.next_seqno > 0:
            self._emit_equivocation(requests)
            return
        # SELECTIVE_SEND, DUPLICATE_REFS and CRASH_AT play a single chain, and
        # so does the equivocator's first block, which has no parent to fork
        preds = tuple(self.node.draft_preds)
        if kind == "DUPLICATE_REFS":
            preds = tuple(p for p in preds for _ in range(2))
        block = self.node.seal(requests, preds)
        self.node.commit(block)
        targets = self.spec.targets if kind == "SELECTIVE_SEND" else range(self.scenario.n)
        self._post_block(block, targets)

    def drain_outbox(self, budget: int) -> list[WireEnvelope | tuple[int, bytes]]:
        outbox = self.outbox
        return [outbox.popleft() for _ in range(min(len(outbox), budget))]

    # -- internals --------------------------------------------------------------

    def _dead(self, now: int) -> bool:
        return self.spec.kind == "CRASH_AT" and now >= self.spec.crash_step

    def _post_block(self, block: Block, receivers) -> None:
        for receiver in receivers:
            self.outbox.append(WireEnvelope(BLOCK_ENVELOPE, self.server, receiver, block=block))

    def _emit_equivocation(self, rs_a: tuple[tuple[Label, bytes], ...]) -> None:
        if rs_a:
            rs_b = tuple(
                (label, encode_broadcast((decode_broadcast(p) + 1) % 2**64)) for label, p in rs_a
            )
        else:
            self._marker_nonce += 1
            marker = Label(self.server, 1_000_000 + self._marker_nonce)
            rs_b = ((marker, b"\x00"),)  # undecodable filler; just forces a distinct ref
        preds = tuple(self.node.draft_preds)
        fork_a = self.node.seal(rs_a, preds)
        fork_b = self.node.seal(rs_b, preds)
        self.node.commit(fork_a)
        self.node.dag.insert(fork_b)  # both forks are individually valid
        half = (self.scenario.n + 1) // 2
        self._post_block(fork_a, range(half))
        self._post_block(fork_b, range(half, self.scenario.n))

    def _emit_garbage(self) -> None:
        for receiver in range(self.scenario.n):
            junk = bytes(self.rng.getrandbits(8) for _ in range(24))
            self.outbox.append((receiver, junk))
        self._marker_nonce += 1
        bogus_core = Block(self.server, self._marker_nonce, (), ())
        bogus = bogus_core.with_signature(
            Signature(SignatureScheme.HMAC_SHA256, bytes(32))
        )
        self._post_block(bogus, range(self.scenario.n))


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class Simulation:
    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.registry = KeyRegistry.generate(scenario.n, seed=scenario.seed)
        self.delay_rng = Random(scenario.seed ^ 0x5E11A5ED)
        byz = dict(scenario.byzantine)
        interpreted: dict = {}  # one interpreter store for all correct servers
        self.correct: dict[int, Shim] = {}
        self.adversaries: dict[int, _Adversary] = {}
        for server in range(scenario.n):
            if server in byz:
                self.adversaries[server] = _Adversary(
                    server, byz[server], scenario, self.registry.restricted(server)
                )
            else:
                self.correct[server] = Shim(
                    server,
                    ReliableBroadcast(scenario.n, scenario.f),
                    self.registry,
                    cadence=scenario.cadence,
                    fwd_interval=scenario.fwd_interval,
                    shared=interpreted,
                )
        self.events: list[dict] = []
        # due step -> ((receiver, sender, send step), sender, receiver, envelope or raw bytes)
        self.inflight: dict[int, list[tuple[tuple, int, int, WireEnvelope | bytes]]] = {}
        # ref -> (report, INTERPRET labels): the servers sharing a report share
        # its labels list, so events are read-only
        self._interpret_labels: dict[BlockRef, tuple[BlockInterpretation, list[dict]]] = {}
        self._ref_hex: dict[BlockRef, str] = {}  # ref -> its hex, the one string events hold
        self._insert_fields: dict[BlockRef, dict] = {}  # ref -> its INSERT fields but the server
        self._preds_lists: dict[tuple[BlockRef, ...], list[str]] = {}  # preds -> one INSERT list

    def _hex(self, ref: BlockRef) -> str:
        """``ref.hex()``, the same string object on every call for one ref."""
        return self._ref_hex.get(ref) or self._ref_hex.setdefault(ref, ref.hex())

    # -- wire ------------------------------------------------------------------

    def _schedule(self, now: int, sender: int, receiver: int, sent: WireEnvelope | bytes) -> None:
        """Put ``sent`` on the link from ``sender`` to ``receiver``: an
        envelope, handed to the receiver as it is, or raw bytes, decoded there."""
        if type(sent) is bytes:
            env_kind, ref_hex, size = "RAW", None, len(sent)
        else:  # the ref first: a block's wire bytes reuse the core bytes it hashed
            ref, table = sent.named_ref, self._ref_hex
            ref_hex = table.get(ref) or table.setdefault(ref, ref.hex())
            env_kind, size = sent.kind_name, sent.wire_size()
        delay = self.delay_rng.randint(*self.scenario.delay_bounds)
        link = (receiver, sender, now)
        self.inflight.setdefault(now + delay, []).append((link, sender, receiver, sent))
        self.events.append({"schema": _SCHEMA, "step": now, "kind": "SEND", "frm": sender,
                            "to": receiver, "envelope": env_kind, "ref": ref_hex, "size": size})

    def _send_envelopes(self, now: int, envelopes: list[WireEnvelope]) -> None:
        for env in envelopes:
            if env.kind == FWD_ENVELOPE:
                self.events.append({"schema": _SCHEMA, "step": now, "kind": "FWD_REQ",
                                    "server": env.sender, "ref": self._hex(env.ref),
                                    "to": env.receiver})
            self._schedule(now, env.sender, env.receiver, env)

    def _deliver_due(self, now: int, halted=()) -> None:
        batch = self.inflight.pop(now, [])
        batch.sort(key=_link)
        links = list(map(_link, batch))
        # envelopes of one link and send step go in their wire bytes' SHA-256 order
        for link, count in Counter(links).items():
            if count > 1:
                i = bisect_left(links, link)
                batch[i:i + count] = sorted(batch[i:i + count], key=lambda item: _digest(item[3]))
        table = self._ref_hex
        for _key, sender, receiver, env in batch:
            if receiver in halted:
                continue  # a halted adversary would buffer it and never use it
            if type(env) is bytes:  # input from outside, as GARBAGE junk is
                try:
                    env = WireEnvelope.decode(env)
                except EncodingError:
                    env, reason = None, "undecodable"
                if env is not None and (env.sender, env.receiver) != (sender, receiver):
                    env, reason = None, "misaddressed"  # a reply goes to the header's sender
            if receiver in self.adversaries:
                self.adversaries[receiver].on_deliver(now, env)
                continue
            if env is None:
                self._drop(now, receiver, reason, frm=sender)
                continue
            node = self.correct[receiver]
            ref = env.named_ref
            ref_hex = table.get(ref) or table.setdefault(ref, ref.hex())
            self.events.append({"schema": _SCHEMA, "step": now, "kind": "DELIVER", "frm": sender,
                                "to": receiver, "envelope": env.kind_name, "ref": ref_hex})
            if env.kind == BLOCK_ENVELOPE:
                outcome = node.gossip.on_receive_block(env.block)
                if outcome == Disposition.BAD_SIGNATURE:
                    self._drop(now, receiver, "bad_signature", ref=ref_hex)
                elif isinstance(outcome, bytes):  # the evicted block's ref
                    self._drop(now, receiver, "pending_evicted", ref=self._hex(outcome))
            else:
                reply = node.gossip.on_fwd_request(env.ref, env.sender)
                if reply is not None:
                    self.events.append({"schema": _SCHEMA, "step": now, "kind": "FWD_RESP",
                                        "server": receiver, "to": env.sender, "ref": ref_hex})
                    self._send_envelopes(now, [reply])

    def _drop(self, now: int, server: int, reason: str, **fields) -> None:
        self.events.append(trace.event(now, "DROP", server=server, reason=reason, **fields))

    # -- per-node recording -------------------------------------------------------

    def _insert_event(self, now: int, server: int, block: Block) -> dict:
        ref = block_ref(block)
        fields = self._insert_fields.get(ref)
        if fields is None:
            fields = self._insert_fields[ref] = {
                "ref": self._hex(ref),
                "builder": block.builder,
                "seqno": block.seqno,
                "preds": self._preds_lists.setdefault(block.preds, [self._hex(p) for p in block.preds]),
                "requests": [
                    [label.originator, label.nonce, payload.hex()]
                    for label, payload in block.requests
                ],
            }
        return {"schema": _SCHEMA, "step": now, "kind": "INSERT", "server": server, **fields}

    def _promote(self, now: int, node: Shim) -> None:
        for block in node.gossip.try_promote():
            insert = self._insert_event(now, node.server, block)
            self.events.append({"schema": _SCHEMA, "step": now, "kind": "PROMOTE",
                                "server": node.server, "ref": insert["ref"]})
            self.events.append(insert)

    def _disseminate(self, now: int, envelopes: list[WireEnvelope]) -> None:
        """Record a correct server's sealed block and put it on the wire."""
        block = envelopes[0].block
        self.events.append(self._insert_event(now, block.builder, block))
        self._send_envelopes(now, envelopes)

    def _gossip_phase(self, now: int, node: Shim) -> None:
        self._promote(now, node)
        self._send_envelopes(now, node.gossip.request_missing(now))
        envelopes = node.tick(now)
        if envelopes:
            self._disseminate(now, envelopes)

    def _interpret_phase(self, now: int, node: Shim) -> list[BlockInterpretation]:
        reports = node.interpreter.run_to_fixpoint()
        for report in reports:
            self._record_interpretation(now, node.server, report)
        for report in reports:
            block = self._hex(report.ref)
            for act in report.labels:
                for payload in act.indications:
                    self.events.append({"schema": _SCHEMA, "step": now, "kind": "INDICATE",
                                        "server": node.server,
                                        "label": [act.label.originator, act.label.nonce],
                                        "indication": payload.hex(),
                                        "on_behalf_of": report.builder, "block": block,
                                        "surfaced": node.surfaces(report)})
        return reports

    def _record_interpretation(
        self, now: int, server: int, report: BlockInterpretation
    ) -> None:
        built, labels = self._interpret_labels.get(report.ref, (None, None))
        if built is not report:  # a report from a private store gets its own list
            labels = [
                {
                    "label": [act.label.originator, act.label.nonce],
                    "fed": [m.hex() for m in act.fed],
                    "emitted": [m.hex() for m in act.emitted],
                    "state": act.state_digest.hex(),
                    "skipped": act.skipped_requests,
                }
                for act in report.labels
            ]
            self._interpret_labels[report.ref] = (report, labels)
        self.events.append({"schema": _SCHEMA, "step": now, "kind": "INTERPRET", "server": server,
                            "ref": self._hex(report.ref), "builder": report.builder,
                            "labels": labels})

    # -- main loop ------------------------------------------------------------------

    @trace.gc_paused
    def run(self) -> RunResult:
        scenario = self.scenario
        for now in range(scenario.max_steps):
            for req in scenario.requests:
                if req.step == now:
                    node = self.correct.get(req.server) or self.adversaries[req.server]
                    node.request(req.label, encode_broadcast(req.value))
            self._deliver_due(now)
            for server in sorted(self.correct):
                self._gossip_phase(now, self.correct[server])
            for server in sorted(self.adversaries):
                adversary = self.adversaries[server]
                adversary.on_step(now)
                for item in adversary.drain_outbox(ADVERSARY_BUDGET):
                    if type(item) is WireEnvelope:
                        self._send_envelopes(now, [item])
                    else:  # GARBAGE junk
                        self._schedule(now, server, *item)
            for server in sorted(self.correct):
                self._interpret_phase(now, self.correct[server])
        self._drain(scenario.max_steps)
        final_dags = {s: node.dag for s, node in self.correct.items()}
        return RunResult(scenario, self.events, final_dags)

    def _drain(self, start: int) -> None:
        """Continue the dissemination cadence with byzantine servers halted
        until the interpretation quiesces: a round whose blocks feed and emit
        nothing is a global fixpoint, so eventual-delivery obligations are
        settled at the horizon."""
        now = start
        for _round in range(64):
            for server in sorted(self.correct):
                self._disseminate(now, self.correct[server].gossip.disseminate()[1])
            # deliver, promote, and recover missing predecessors until the
            # wire is empty: promotion only shrinks what is missing, so a pass
            # that delivers nothing can ask for nothing new
            for _ in range(100_000):
                if not self.inflight:
                    break
                now = min(self.inflight)
                self._deliver_due(now, halted=self.adversaries)
                for server in sorted(self.correct):
                    node = self.correct[server]
                    self._promote(now, node)
                    self._send_envelopes(now, node.gossip.request_missing(now, force=True))
            else:  # pragma: no cover - defensive bound
                raise RuntimeError("drain delivery loop did not settle")
            quiet = True
            for server in sorted(self.correct):
                for report in self._interpret_phase(now, self.correct[server]):
                    if any(act.fed or act.emitted for act in report.labels):
                        quiet = False
            if quiet:
                return
        raise RuntimeError("drain did not quiesce within the round bound")


_link = itemgetter(0)  # an in-flight item's (receiver, sender, send step)


def _digest(sent: WireEnvelope | bytes) -> bytes:
    """SHA-256 of what is on the wire: raw bytes as they are, an envelope encoded."""
    return hashlib.sha256(sent if type(sent) is bytes else sent.encode()).digest()


def run(scenario: Scenario) -> RunResult:
    """Execute the scenario; a pure function of its argument."""
    return Simulation(scenario).run()
