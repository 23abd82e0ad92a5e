"""The black-box deterministic protocol contract driven by the interpreter.

A protocol is a factory of per-(label, server) state machines. Each machine
consumes requests and messages and synchronously returns the messages it
emits; indications are buffered and drained by the caller. Determinism and
clonability are load-bearing: the interpreter replays the same machine on
every server and relies on equal inputs producing equal states.

A message is its canonical encoding, a ``bytes`` value: every server
compares, hashes and orders the messages it materializes by those bytes
alone, and the interpreter feeds them in byte order.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from typing import NamedTuple

from .crypto import ENCODING_VERSION, EncodingError, pack_fields

_TAG_LABEL = 0x10
_TAG_MESSAGE = 0x11
_LABEL_LAYOUT = struct.Struct(">BBIQ")  # version, tag, originator, nonce
MESSAGE_HEAD = struct.Struct(">BBIII")  # version, tag, sender, receiver, payload length
RECEIVER = slice(6, 10)  # the receiver field of a message's bytes


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
        return pack_fields(_LABEL_LAYOUT, ENCODING_VERSION, _TAG_LABEL, self.originator, self.nonce)


Message = bytes  # a message is its canonical encoding, built by message()


def message(sender: int, receiver: int, payload: bytes) -> Message:
    """The message from ``sender`` to ``receiver`` carrying ``payload``:
    its canonical encoding, the ``MESSAGE_HEAD`` fields (read back through
    it and ``RECEIVER``), then the payload. Equality, hash and order are
    those of the bytes, which is exact because the codec is canonical: two
    messages are equal exactly when their fields are, and the byte order is
    a strict total order, the same on every machine, that the interpreter
    feeds messages in. An out-of-range sender or receiver raises
    ``EncodingError``."""
    try:
        head = MESSAGE_HEAD.pack(ENCODING_VERSION, _TAG_MESSAGE, sender, receiver, len(payload))
    except struct.error:
        raise EncodingError(f"message field out of range: {sender}, {receiver}") from None
    return head + payload


def read_label(r) -> Label:
    """Read one :meth:`Label.canonical_bytes` encoding from the reader ``r``;
    the block codec uses it for each request's label."""
    version, tag, originator, nonce = r.fields(_LABEL_LAYOUT)
    if version != ENCODING_VERSION or tag != _TAG_LABEL:
        raise EncodingError("bad label encoding")
    return Label(originator, nonce)


def message_from_canonical(data: bytes) -> Message:
    """``data`` itself, which must be exactly one message encoding; used by
    trace checkers."""
    head = MESSAGE_HEAD.size
    if len(data) < head:
        raise EncodingError("truncated encoding")
    version, tag, _, _, size = MESSAGE_HEAD.unpack_from(data)
    if version != ENCODING_VERSION or tag != _TAG_MESSAGE:
        raise EncodingError("not a message encoding")
    if len(data) < head + size:
        raise EncodingError("truncated encoding")
    if len(data) > head + size:
        raise EncodingError("trailing bytes after message encoding")
    return data


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
