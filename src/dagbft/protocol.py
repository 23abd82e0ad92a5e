"""The black-box deterministic protocol contract driven by the interpreter.

A protocol is a factory of per-(label, server) state machines. Each machine
consumes requests and messages and synchronously returns the messages it
emits; indications are buffered and drained by the caller. Determinism and
clonability are load-bearing: the interpreter replays the same machine on
every server and relies on equal inputs producing equal states.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

from .crypto import ENCODING_VERSION, EncodingError, enc_bytes, enc_u8, enc_u32, enc_u64, reader

_TAG_LABEL = 0x10
_TAG_MESSAGE = 0x11
_LABEL_LAYOUT = struct.Struct(">BBIQ")  # version, tag, originator, nonce


class ProtocolError(Exception):
    """A request or payload does not decode under the protocol."""


class ContractError(Exception):
    """A caller violated the process-instance contract (e.g. wrong receiver)."""


class Label(NamedTuple):
    """Identity of one protocol instance running over the shared DAG.

    ``originator`` names the server entitled to issue the instance's
    authenticated requests; ``nonce`` distinguishes instances of the same
    originator. A tuple, so it hashes, compares and sorts in C as the
    ``(originator, nonce)`` pair.
    """

    originator: int
    nonce: int

    def canonical_bytes(self) -> bytes:
        return (
            enc_u8(ENCODING_VERSION)
            + enc_u8(_TAG_LABEL)
            + enc_u32(self.originator)
            + enc_u64(self.nonce)
        )


_MESSAGE_PREFIX = enc_u8(ENCODING_VERSION) + enc_u8(_TAG_MESSAGE)


@dataclass(frozen=True)
class Message:
    """A protocol message. Its canonical encoding is computed once, at
    construction, or kept from the bytes it was decoded from (see
    :func:`message_from_canonical`), in a plain attribute that is not a
    field, so equality, hash and repr see only the three fields. An
    out-of-range sender or receiver raises ``EncodingError`` here."""

    sender: int
    receiver: int
    payload: bytes

    def __post_init__(self) -> None:
        # sorting, state digests and the trace all read these bytes
        object.__setattr__(
            self,
            "_canonical",
            _MESSAGE_PREFIX
            + enc_u32(self.sender)
            + enc_u32(self.receiver)
            + enc_bytes(self.payload),
        )

    def canonical_bytes(self) -> bytes:
        return self._canonical


def read_label(r) -> Label:
    """Read one :meth:`Label.canonical_bytes` encoding from the reader ``r``;
    the block codec uses it for each request's label."""
    version, tag, originator, nonce = r.fields(_LABEL_LAYOUT)
    if version != ENCODING_VERSION or tag != _TAG_LABEL:
        raise EncodingError("bad label encoding")
    return Label(originator, nonce)


def message_from_canonical(data: bytes) -> Message:
    """Inverse of :meth:`Message.canonical_bytes`; used by trace checkers.

    The message keeps ``data`` as its canonical bytes rather than encoding
    its fields again. That is exact because the codec is canonical: bytes
    that decode at all are the one encoding of their message."""
    r = reader(data)
    if r.u8() != ENCODING_VERSION or r.u8() != _TAG_MESSAGE:
        raise EncodingError("not a message encoding")
    sender = r.u32()
    receiver = r.u32()
    payload = r.raw_bytes()
    if not r.done():
        raise EncodingError("trailing bytes after message encoding")
    message = Message.__new__(Message)  # skips __post_init__'s encoding
    message.__dict__.update(sender=sender, receiver=receiver, payload=payload, _canonical=data)
    return message


def message_sort_key(message: Message) -> bytes:
    """Key of the strict total order on messages: the canonical encoding.

    Any fixed order works; bytes are stable across machines, which is what
    keeps independent interpreters feeding messages in the same sequence.
    """
    return message._canonical


class ProcessInstance(ABC):
    """One simulated state machine for a (label, server) pair.

    Implementations must be deterministic (same state + same inputs => same
    outputs and successor state), clonable, and expose a canonical state
    encoding for cross-interpreter equality checks.

    An instance in an interpreted block's slot may be shared by the slots of
    later blocks on the same chain. So only the interpreter's own calls may
    mutate an instance, and only on the private clone it makes for the block
    being interpreted, and ``clone`` must deep-copy: a clone that shares
    mutable state with its original would let a child rewrite its parent.
    """

    def __init__(self, label: Label, server: int) -> None:
        self.label = label
        self.server = server

    @abstractmethod
    def on_request(self, payload: bytes) -> list[Message]:
        """Feed a user request; returns the synchronously emitted messages.

        Raises ProtocolError on an undecodable payload, leaving state
        unchanged.
        """

    @abstractmethod
    def on_receive(self, message: Message) -> list[Message]:
        """Feed a message addressed to this instance's server."""

    @abstractmethod
    def take_indications(self) -> list[bytes]:
        """Drain indications raised since the last call (at-most-once each)."""

    @abstractmethod
    def clone(self) -> "ProcessInstance":
        """Deep copy, observationally identical to the original and sharing
        no mutable state with it."""

    @abstractmethod
    def state_bytes(self) -> bytes:
        """Canonical encoding of the full state, identity fields included."""


class Protocol(ABC):
    """Factory for process instances; carries the deployment constants.

    ``server_count`` and ``fault_bound`` are exposed so instances can compute
    their quorum thresholds.
    """

    def __init__(self, server_count: int, fault_bound: int) -> None:
        self.server_count = server_count
        self.fault_bound = fault_bound

    @abstractmethod
    def spawn(self, label: Label, server: int) -> ProcessInstance:
        """Fresh instance in its protocol-defined initial state."""
