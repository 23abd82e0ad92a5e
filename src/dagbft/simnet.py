"""Deterministic seeded network simulator with byzantine behaviors.

Time is an integer step counter. Every envelope put on the wire gets a
delivery delay drawn uniformly from the scenario's bounds by a Mersenne
Twister seeded from the scenario; envelopes due at the same step are
delivered in (receiver, sender, send step, envelope hash) order. The whole
run is a pure function of the scenario, so equal scenarios produce
byte-identical traces.

Correct servers are ``Shim`` instances: the full stack of gossip,
interpretation and the self-filter on indications. Byzantine servers run
scripted behaviors on a ``GossipNode`` whose registry is a restricted signer
that can only sign as their own id; their outbound traffic is throttled by a
per-step envelope budget.

The drain phase realizes "eventually" at a finite horizon: each
correct server publishes its current block once more, then deliveries,
promotions, and forced FWD recovery run to fixpoint with no new
disseminations.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, replace
from random import Random
from typing import Optional

from . import trace
from .blockdag import Block, BlockDag, block_ref
from .brb import ReliableBroadcast, encode_broadcast
from .crypto import EncodingError, KeyRegistry, RestrictedSigner, Signature, SignatureScheme
from .gossip import (
    BLOCK_ENVELOPE,
    FWD_ENVELOPE,
    MAX_REQUESTS_PER_BLOCK,
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

# the one field beside ``kind`` that a behavior of each of these kinds reads
_KIND_FIELDS = {"CRASH_AT": {"crash_step": int}, "SELECTIVE_SEND": {"targets": [int]}}

ADVERSARY_BUDGET = 4
"""Envelopes a byzantine server may put on the wire per step."""


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
    kind: str
    crash_step: int = 0
    targets: tuple[int, ...] = ()

    def validate(self, n: int) -> None:
        if self.kind not in BEHAVIOR_KINDS:
            raise ScenarioError(f"unknown behavior kind {self.kind!r}")
        if self.crash_step and self.kind != "CRASH_AT":
            raise ScenarioError(f"{self.kind} does not read crash_step")
        if self.targets and self.kind != "SELECTIVE_SEND":
            raise ScenarioError(f"{self.kind} does not read targets")
        if self.kind == "CRASH_AT" and self.crash_step < 0:
            raise ScenarioError("crash_step must be non-negative")
        if self.kind == "SELECTIVE_SEND" and not self.targets:
            raise ScenarioError("SELECTIVE_SEND needs at least one target")
        if any(not 0 <= t < n for t in self.targets):
            raise ScenarioError("behavior targets out of range")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "CRASH_AT":
            out["crash_step"] = self.crash_step
        if self.targets:
            out["targets"] = list(self.targets)
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
    """A broadcast of ``value`` requested at ``server`` on ``step``. That the
    label and value fit their encodings is checked here, at construction,
    rather than in ``Scenario.validate``, which every ``Simulation`` runs."""

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

    def validate(self) -> None:
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
            spec.validate(self.n)
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

    def byzantine_map(self) -> dict[int, BehaviorSpec]:
        return dict(self.byzantine)

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
        """Parse and validate a scenario's JSON object. An unknown key, a
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
        scenario = cls(**fields)
        scenario.validate()
        return scenario

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
    snapshots: dict[int, dict[int, BlockDag]]

    def trace_text(self) -> str:
        return trace.dumps(self.events)


# ---------------------------------------------------------------------------
# Byzantine behaviors
# ---------------------------------------------------------------------------


class _Adversary:
    """One scripted byzantine server. Takes received blocks through the same
    gossip intake as a correct server, seals its own blocks on preds it
    picks, and produces wire traffic into an outbox that the engine drains
    at the per-step budget."""

    def __init__(
        self,
        server: int,
        spec: BehaviorSpec,
        scenario: Scenario,
        restricted: RestrictedSigner,
        rng: Random,
    ) -> None:
        self.server = server
        self.spec = spec
        self.scenario = scenario
        self.rng = rng
        self.node = GossipNode(server, restricted)
        self.pending_requests: list[tuple[Label, int]] = []
        self.outbox: deque[tuple[int, bytes, Optional[str], Optional[str]]] = deque()
        self._marker_nonce = 0

    # -- engine hooks ---------------------------------------------------------

    def enqueue_request(self, label: Label, value: int) -> None:
        self.pending_requests.append((label, value))

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
                self._post_block(reply.block, [envelope.sender])

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
        taken = self.pending_requests[:MAX_REQUESTS_PER_BLOCK]
        del self.pending_requests[: len(taken)]
        requests = tuple((label, encode_broadcast(v)) for label, v in taken)
        if kind == "EQUIVOCATE" and self.node.next_seqno > 0:
            self._emit_equivocation(taken, requests)
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

    def drain_outbox(self, budget: int) -> list[tuple[int, bytes, Optional[str], Optional[str]]]:
        out = []
        while self.outbox and len(out) < budget:
            out.append(self.outbox.popleft())
        return out

    # -- internals --------------------------------------------------------------

    def _dead(self, now: int) -> bool:
        return self.spec.kind == "CRASH_AT" and now >= self.spec.crash_step

    def _post_block(self, block: Block, receivers) -> None:
        ref_hex = block_ref(block).hex()
        for receiver in receivers:
            env = WireEnvelope(BLOCK_ENVELOPE, self.server, receiver, block=block)
            self.outbox.append((receiver, env.encode(), "BLOCK", ref_hex))

    def _emit_equivocation(
        self, taken: list[tuple[Label, int]], rs_a: tuple[tuple[Label, bytes], ...]
    ) -> None:
        if taken:
            rs_b = tuple((label, encode_broadcast((v + 1) % 2**64)) for label, v in taken)
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
            self.outbox.append((receiver, junk, "RAW", None))
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
        scenario.validate()
        self.scenario = scenario
        self.registry = KeyRegistry.generate(scenario.n, seed=scenario.seed)
        self.delay_rng = Random(scenario.seed ^ 0x5E11A5ED)
        byz = scenario.byzantine_map()
        self.correct: dict[int, Shim] = {}
        self.adversaries: dict[int, _Adversary] = {}
        for server in range(scenario.n):
            if server in byz:
                self.adversaries[server] = _Adversary(
                    server,
                    byz[server],
                    scenario,
                    self.registry.restricted(server),
                    Random((scenario.seed << 8) ^ server),
                )
            else:
                self.correct[server] = Shim(
                    server,
                    ReliableBroadcast(scenario.n, scenario.f),
                    self.registry,
                    cadence=scenario.cadence,
                    fwd_interval=scenario.fwd_interval,
                )
        self.events: list[dict] = []
        self.inflight: dict[int, list[tuple[tuple, int, int, int, bytes]]] = {}
        self.snapshots: dict[int, dict[int, BlockDag]] = {}

    # -- wire ------------------------------------------------------------------

    def _schedule(
        self,
        now: int,
        sender: int,
        receiver: int,
        wire: bytes,
        env_kind: Optional[str],
        ref_hex: Optional[str],
    ) -> None:
        delay = self.delay_rng.randint(*self.scenario.delay_bounds)
        due = now + delay
        key = (receiver, sender, now, hashlib.sha256(wire).digest())
        self.inflight.setdefault(due, []).append((key, sender, receiver, now, wire))
        self.events.append(
            trace.event(
                now,
                "SEND",
                frm=sender,
                to=receiver,
                envelope=env_kind,
                ref=ref_hex,
                size=len(wire),
            )
        )

    def _send_envelopes(self, now: int, envelopes: list[WireEnvelope]) -> None:
        for env in envelopes:
            ref_hex = (
                block_ref(env.block).hex() if env.kind == BLOCK_ENVELOPE else env.ref.hex()
            )
            self._schedule(now, env.sender, env.receiver, env.encode(), env.kind_name, ref_hex)

    def _send_fwd(self, now: int, env: WireEnvelope) -> None:
        self.events.append(
            trace.event(now, "FWD_REQ", server=env.sender, ref=env.ref.hex(), to=env.receiver)
        )
        self._send_envelopes(now, [env])

    def _deliver_due(self, now: int, *, drain: bool = False) -> int:
        batch = self.inflight.pop(now, [])
        batch.sort(key=lambda item: item[0])
        delivered = 0
        for _key, sender, receiver, _send_step, wire in batch:
            delivered += 1
            if receiver in self.adversaries:
                if not drain:
                    try:
                        env = WireEnvelope.decode(wire)
                    except EncodingError:
                        env = None
                    self.adversaries[receiver].on_deliver(now, env)
                continue
            node = self.correct[receiver]
            try:
                env = WireEnvelope.decode(wire)
            except EncodingError:
                self.events.append(
                    trace.event(
                        now, "DROP", server=receiver, reason="undecodable", frm=sender
                    )
                )
                continue
            ref_hex = (
                block_ref(env.block).hex() if env.kind == BLOCK_ENVELOPE else env.ref.hex()
            )
            self.events.append(
                trace.event(
                    now,
                    "DELIVER",
                    frm=sender,
                    to=receiver,
                    envelope=env.kind_name,
                    ref=ref_hex,
                )
            )
            if env.kind == BLOCK_ENVELOPE:
                disposition = node.gossip.on_receive_block(env.block)
                if disposition == Disposition.BAD_SIGNATURE:
                    self.events.append(
                        trace.event(
                            now,
                            "DROP",
                            server=receiver,
                            reason="bad_signature",
                            ref=ref_hex,
                        )
                    )
                elif disposition == Disposition.EVICTED_OLDEST:
                    self.events.append(
                        trace.event(
                            now,
                            "DROP",
                            server=receiver,
                            reason="pending_evicted",
                            ref=ref_hex,
                        )
                    )
            else:
                reply = node.gossip.on_fwd_request(env.ref, env.sender)
                if reply is not None:
                    self.events.append(
                        trace.event(
                            now,
                            "FWD_RESP",
                            server=receiver,
                            to=env.sender,
                            ref=env.ref.hex(),
                        )
                    )
                    self._send_envelopes(now, [reply])
        return delivered

    # -- per-node recording -------------------------------------------------------

    def _record_insert(self, now: int, server: int, block: Block) -> None:
        self.events.append(
            trace.event(
                now,
                "INSERT",
                server=server,
                ref=block_ref(block).hex(),
                builder=block.builder,
                seqno=block.seqno,
                preds=[p.hex() for p in block.preds],
                requests=[
                    [label.originator, label.nonce, payload.hex()]
                    for label, payload in block.requests
                ],
            )
        )

    def _promote(self, now: int, node: Shim) -> bool:
        promoted = node.gossip.try_promote()
        for block in promoted:
            ref_hex = block_ref(block).hex()
            self.events.append(trace.event(now, "PROMOTE", server=node.server, ref=ref_hex))
            self._record_insert(now, node.server, block)
        return bool(promoted)

    def _gossip_phase(self, now: int, node: Shim) -> None:
        self._promote(now, node)
        for env in node.gossip.request_missing(now):
            self._send_fwd(now, env)
        envelopes = node.tick(now)
        if envelopes:
            self._record_insert(now, node.server, envelopes[0].block)
            self._send_envelopes(now, envelopes)

    def _interpret_phase(self, now: int, node: Shim) -> list[BlockInterpretation]:
        reports = node.interpreter.run_to_fixpoint()
        for report in reports:
            self._record_interpretation(now, node.server, report)
        self._emit_indications(now, node)
        return reports

    def _emit_indications(self, now: int, node: Shim) -> None:
        for ind in node.interpreter.take_indications():
            self.events.append(
                trace.event(
                    now,
                    "INDICATE",
                    server=node.server,
                    label=[ind.label.originator, ind.label.nonce],
                    indication=ind.payload.hex(),
                    on_behalf_of=ind.on_behalf_of,
                    block=ind.block.hex(),
                    surfaced=node.filter_indication(ind),
                )
            )

    def _record_interpretation(
        self, now: int, server: int, report: BlockInterpretation
    ) -> None:
        self.events.append(
            trace.event(
                now,
                "INTERPRET",
                server=server,
                ref=report.ref.hex(),
                builder=report.builder,
                labels=[
                    {
                        "label": [act.label.originator, act.label.nonce],
                        "fed": [m.canonical_bytes().hex() for m in act.fed],
                        "emitted": [m.canonical_bytes().hex() for m in act.emitted],
                        "state": act.state_digest.hex(),
                        "skipped": act.skipped_requests,
                    }
                    for act in report.labels
                ],
            )
        )

    # -- main loop ------------------------------------------------------------------

    def run(self) -> RunResult:
        scenario = self.scenario
        for now in range(scenario.max_steps):
            for req in scenario.requests:
                if req.step != now:
                    continue
                if req.server in self.correct:
                    self.correct[req.server].request(req.label, encode_broadcast(req.value))
                else:
                    self.adversaries[req.server].enqueue_request(req.label, req.value)
            self._deliver_due(now)
            for server in sorted(self.correct):
                self._gossip_phase(now, self.correct[server])
            for server in sorted(self.adversaries):
                adversary = self.adversaries[server]
                adversary.on_step(now)
                for receiver, wire, kind, ref_hex in adversary.drain_outbox(ADVERSARY_BUDGET):
                    self._schedule(now, server, receiver, wire, kind, ref_hex)
            for server in sorted(self.correct):
                self._interpret_phase(now, self.correct[server])
            if now in scenario.snapshot_steps:
                self.snapshots[now] = {
                    s: node.dag.copy() for s, node in self.correct.items()
                }
        self._drain(scenario.max_steps)
        final_dags = {s: node.dag.copy() for s, node in self.correct.items()}
        return RunResult(scenario, self.events, final_dags, self.snapshots)

    def _drain(self, start: int) -> None:
        """Continue the dissemination cadence with byzantine servers halted
        until the interpretation quiesces: a round whose blocks feed and emit
        nothing is a global fixpoint, so eventual-delivery obligations are
        settled at the horizon."""
        now = start
        requested: set[tuple[int, str, int]] = set()
        for _round in range(64):
            for server in sorted(self.correct):
                node = self.correct[server]
                block, envelopes = node.gossip.disseminate()
                self._record_insert(now, server, block)
                self._send_envelopes(now, envelopes)
            # deliver, promote, and recover missing predecessors to fixpoint
            for _ in range(100_000):
                progressed = False
                if self.inflight:
                    now = min(self.inflight)
                    if self._deliver_due(now, drain=True):
                        progressed = True
                for server in sorted(self.correct):
                    node = self.correct[server]
                    if self._promote(now, node):
                        progressed = True
                    for env in node.gossip.request_missing(now, force=True):
                        key = (server, env.ref.hex(), env.receiver)
                        if key in requested:
                            continue
                        requested.add(key)
                        self._send_fwd(now, env)
                        progressed = True
                if not progressed and not self.inflight:
                    break
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


def run(scenario: Scenario) -> RunResult:
    """Execute the scenario; a pure function of its argument."""
    return Simulation(scenario).run()
