"""Authenticated double-echo byzantine reliable broadcast.

The reference protocol for the framework: one broadcast per instance, ECHO
and READY phases with quorums at 2f+1, READY amplification at f+1, delivery
at 2f+1 READYs. A broadcast request is accepted only when the requesting
server is the label's originator, which is what makes requests
self-authenticating inside a simulation. ``on_receive`` runs once per fed
message, reads the message's header in one ``struct`` call and each sender
set once; ``state_bytes``, which every state digest encodes, joins its
parts once. Each payload packs through one ``struct`` layout.
"""

from __future__ import annotations

from struct import Struct, pack

from .crypto import pack_fields
from .protocol import (
    MESSAGE_HEAD, ContractError, Label, Message, ProcessInstance, Protocol, ProtocolError, message,
)

ECHO = 1
READY = 2

_VALUE = Struct(">Q")  # a broadcast request and a deliver indication
_PAYLOAD = Struct(">BQ")  # a message payload: kind, value
_IDS = Struct(">III")  # server, server count, fault bound


def encode_broadcast(value: int) -> bytes:
    """Request payload: the 64-bit value to broadcast."""
    return pack_fields(_VALUE, value)


def decode_broadcast(payload: bytes) -> int:
    if len(payload) != _VALUE.size:
        raise ProtocolError("broadcast request must be exactly 8 bytes")
    return _VALUE.unpack(payload)[0]


def encode_payload(kind: int, value: int) -> bytes:
    """Message payload: 1-byte kind tag + 8-byte big-endian value."""
    if kind not in (ECHO, READY):
        raise ProtocolError(f"unknown message kind {kind}")
    return pack_fields(_PAYLOAD, kind, value)


def decode_payload(payload: bytes) -> tuple[int, int]:
    if len(payload) != _PAYLOAD.size or payload[0] not in (ECHO, READY):
        raise ProtocolError("not a broadcast protocol message")
    return _PAYLOAD.unpack(payload)


def encode_deliver(value: int) -> bytes:
    """Indication payload."""
    return pack_fields(_VALUE, value)


def decode_deliver(payload: bytes) -> int:
    if len(payload) != _VALUE.size:
        raise ProtocolError("deliver indication must be exactly 8 bytes")
    return _VALUE.unpack(payload)[0]


class BrbInstance(ProcessInstance):
    """State machine for one (label, server) pair.

    Flags only ever flip false -> true and the per-value sender sets only
    grow, so replaying the same inputs always lands in the same state.
    """

    def __init__(self, label: Label, server: int, server_count: int, fault_bound: int) -> None:
        super().__init__(label, server)
        self.server_count = server_count
        self.fault_bound = fault_bound
        # quorum thresholds
        self._echo_quorum = 2 * fault_bound + 1
        self._ready_amplify = fault_bound + 1
        self._deliver_quorum = 2 * fault_bound + 1
        self._identity = b""  # the state encoding's constant prefix, kept by clones
        self.echoed = False
        self.readied = False
        self.delivered = False
        self.echo_senders: dict[int, set[int]] = {}
        self.ready_senders: dict[int, set[int]] = {}
        self._pending_indications: list[bytes] = []

    def _to_all(self, kind: int, value: int) -> list[Message]:
        payload = encode_payload(kind, value)
        return [message(self.server, rcv, payload) for rcv in range(self.server_count)]

    def on_request(self, payload: bytes) -> list[Message]:
        value = decode_broadcast(payload)  # raises ProtocolError, state untouched
        if self.server != self.label.originator:
            return []  # request not authenticated for this server
        if self.echoed:
            return []
        self.echoed = True
        return self._to_all(ECHO, value)

    def on_receive(self, message: Message) -> list[Message]:
        _, _, sender, receiver, _ = MESSAGE_HEAD.unpack_from(message)
        if receiver != self.server:
            raise ContractError(f"message for {receiver} fed to instance of {self.server}")
        try:
            kind, value = decode_payload(message[MESSAGE_HEAD.size :])
        except ProtocolError:
            return []  # byzantine payloads must not crash correct servers
        if kind == ECHO:
            echoes = self.echo_senders.setdefault(value, set())
            echoes.add(sender)
            readies = self.ready_senders.get(value, ())
        else:
            readies = self.ready_senders.setdefault(value, set())
            readies.add(sender)
            echoes = self.echo_senders.get(value, ())

        out: list[Message] = []
        if kind == ECHO and not self.echoed:
            self.echoed = True
            out = self._to_all(ECHO, value)
        if not self.readied and (
            len(echoes) >= self._echo_quorum or len(readies) >= self._ready_amplify
        ):
            self.readied = True
            out += self._to_all(READY, value)
        if not self.delivered and len(readies) >= self._deliver_quorum:
            self.delivered = True
            self._pending_indications.append(encode_deliver(value))
        return out

    def take_indications(self) -> list[bytes]:
        out = self._pending_indications
        self._pending_indications = []
        return out

    def clone(self) -> "BrbInstance":
        # built without ``__init__``, whose fresh tables would be thrown away;
        # each attribute is named, so one added later is not shared by accident
        dup = object.__new__(BrbInstance)
        dup.label = self.label
        dup.server = self.server
        dup.server_count = self.server_count
        dup.fault_bound = self.fault_bound
        dup._echo_quorum = self._echo_quorum
        dup._ready_amplify = self._ready_amplify
        dup._deliver_quorum = self._deliver_quorum
        dup._identity = self._identity
        dup.echoed = self.echoed
        dup.readied = self.readied
        dup.delivered = self.delivered
        dup.echo_senders = {v: set(s) for v, s in self.echo_senders.items()}
        dup.ready_senders = {v: set(s) for v, s in self.ready_senders.items()}
        dup._pending_indications = list(self._pending_indications)
        return dup

    def state_bytes(self) -> bytes:
        if not self._identity:
            ids = pack_fields(_IDS, self.server, self.server_count, self.fault_bound)
            self._identity = self.label.canonical_bytes() + ids
        # a u8 per flag; per table the count of non-empty sender sets, each a
        # u64 value and count-prefixed u32 senders (in range: decoded values
        # and message senders); the count-prefixed pending indications
        parts = [self._identity, bytes((self.echoed, self.readied, self.delivered))]
        for table in (self.echo_senders, self.ready_senders):
            sets = [pack(f">QI{len(senders)}I", value, len(senders), *sorted(senders))
                    for value, senders in sorted(table.items()) if senders]
            parts.append(pack(">I", len(sets)))
            parts += sets
        parts.append(pack(">I", len(self._pending_indications)))
        for indication in self._pending_indications:
            parts += (pack(">I", len(indication)), indication)
        return b"".join(parts)


class ReliableBroadcast(Protocol):
    """Protocol factory; one instance per (label, server)."""

    def spawn(self, label: Label, server: int) -> BrbInstance:
        return BrbInstance(label, server, self.server_count, self.fault_bound)
