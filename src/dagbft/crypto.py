"""Content hashing, canonical-encoding primitives, and pluggable signatures.

Everything that must be byte-identical across independent machines funnels
through this module: the fixed-width big-endian integer encoders, the
length-prefixed byte/sequence encoders, and the 32-byte content digest.

Two signature backends share one base, ``SignatureRegistry``:

* ``KeyRegistry`` -- HMAC-SHA256 over per-server secrets. This is the
  simulator backend; it is fast and deterministic from a seed.
* ``Ed25519Registry`` -- a real asymmetric scheme (requires the optional
  ``cryptography`` dependency).

Both sign by server id, ``sign(server, digest)``. The adversary model is
enforced in one place: byzantine parties get only a ``RestrictedSigner``,
a view with the same surface whose ``sign`` works only for its own server.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

DIGEST_SIZE = 32
ENCODING_VERSION = 1


class CryptoError(Exception):
    """Base error for this module."""


class UnknownServerError(CryptoError):
    """A server id outside the registry was used where registration is required."""


class EncodingError(CryptoError):
    """A value cannot be canonically encoded (out of range, too long)."""


# ---------------------------------------------------------------------------
# Canonical encoding primitives
# ---------------------------------------------------------------------------

_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def enc_u8(value: int) -> bytes:
    if not 0 <= value <= 0xFF:
        raise EncodingError(f"u8 out of range: {value}")
    return _U8.pack(value)


def enc_u32(value: int) -> bytes:
    if not 0 <= value <= 0xFFFFFFFF:
        raise EncodingError(f"u32 out of range: {value}")
    return _U32.pack(value)


def enc_u64(value: int) -> bytes:
    if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
        raise EncodingError(f"u64 out of range: {value}")
    return _U64.pack(value)


def enc_bytes(data: bytes) -> bytes:
    """Length-prefixed byte string; the prefix keeps concatenation injective."""
    return enc_u32(len(data)) + data


def enc_seq(items: Iterable[bytes]) -> bytes:
    """Count-prefixed sequence of already-encoded items."""
    chunks = list(items)
    return enc_u32(len(chunks)) + b"".join(chunks)


def enc_u32s(values: Sequence[int]) -> bytes:
    """``enc_seq(enc_u32(v) for v in values)`` packed in one ``struct`` call."""
    try:
        return struct.pack(f">{len(values) + 1}I", len(values), *values)
    except struct.error:
        raise EncodingError(f"u32 out of range in {list(values)}") from None


class _Reader:
    """Cursor over canonical bytes; decoding counterpart of the encoders."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise EncodingError("truncated encoding")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def fields(self, layout: struct.Struct) -> tuple:
        """Read the fixed-width fields ``layout`` packs, checked like ``take``."""
        end = self.pos + layout.size
        if end > len(self.data):
            raise EncodingError("truncated encoding")
        out = layout.unpack_from(self.data, self.pos)
        self.pos = end
        return out

    def u8(self) -> int:
        return self.fields(_U8)[0]

    def u32(self) -> int:
        return self.fields(_U32)[0]

    def u64(self) -> int:
        return self.fields(_U64)[0]

    def raw_bytes(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> bool:
        return self.pos == len(self.data)


def reader(data: bytes) -> _Reader:
    return _Reader(data)


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------


def content_digest(data: bytes) -> bytes:
    """32-byte SHA-256 digest; the single content-address function."""
    return hashlib.sha256(data).digest()


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


class SignatureScheme(IntEnum):
    HMAC_SHA256 = 1
    ED25519 = 2


@dataclass(frozen=True)
class Signature:
    scheme: SignatureScheme
    data: bytes


def _check_registered(server: int, count: int) -> None:
    if not 0 <= server < count:
        raise UnknownServerError(f"server {server} is not registered")


class SignatureRegistry(ABC):
    """The surface ``BlockDag`` and ``GossipNode`` sign and verify through:
    one key per registered server id, ``0 <= server < server_count``. Each
    backend signs as any registered id; byzantine code gets a
    :meth:`restricted` view instead."""

    @property
    @abstractmethod
    def server_count(self) -> int: ...

    @abstractmethod
    def sign(self, server: int, digest: bytes) -> Signature: ...

    @abstractmethod
    def verify(self, server: int, digest: bytes, sig: Signature) -> bool: ...

    def restricted(self, server: int) -> "RestrictedSigner":
        return RestrictedSigner(self, server)


class KeyRegistry(SignatureRegistry):
    """HMAC-SHA256 signatures over deterministic per-server secrets.

    Security here is a modelling device, not computational hardness: whoever
    holds a server's secret can sign as it, and the simulator hands byzantine
    code only a :class:`RestrictedSigner` for its own id.
    """

    def __init__(self, secrets: list[bytes]) -> None:
        self._secrets = tuple(secrets)

    @classmethod
    def generate(cls, count: int, seed: int) -> "KeyRegistry":
        base = b"dagbft-key-v1" + enc_u64(seed & 0xFFFFFFFFFFFFFFFF)
        return cls([content_digest(base + enc_u32(i)) for i in range(count)])

    @property
    def server_count(self) -> int:
        return len(self._secrets)

    def _secret(self, server: int) -> bytes:
        _check_registered(server, len(self._secrets))
        return self._secrets[server]

    def sign(self, server: int, digest: bytes) -> Signature:
        mac = hmac.new(self._secret(server), digest, hashlib.sha256).digest()
        return Signature(SignatureScheme.HMAC_SHA256, mac)

    def verify(self, server: int, digest: bytes, sig: Signature) -> bool:
        secret = self._secret(server)
        if sig.scheme != SignatureScheme.HMAC_SHA256:
            return False
        expected = hmac.new(secret, digest, hashlib.sha256).digest()
        return hmac.compare_digest(expected, sig.data)


class RestrictedSigner:
    """Registry view that verifies anyone but signs only as ``server``.

    It has the registry surface that ``BlockDag`` and ``GossipNode`` use
    (``server_count``, ``sign``, ``verify``), so byzantine code runs the same
    stack as a correct server on it. It is the one guard on who signs:
    ``sign`` refuses every id but its own, and an unregistered ``server`` is
    refused at construction.
    """

    __slots__ = ("_registry", "server")

    def __init__(self, registry: SignatureRegistry, server: int) -> None:
        _check_registered(server, registry.server_count)
        self._registry = registry
        self.server = server

    @property
    def server_count(self) -> int:
        return self._registry.server_count

    def sign(self, server: int, digest: bytes) -> Signature:
        if server != self.server:
            raise UnknownServerError(f"this view signs only as server {self.server}")
        return self._registry.sign(server, digest)

    def verify(self, server: int, digest: bytes, sig: Signature) -> bool:
        return self._registry.verify(server, digest, sig)


try:  # optional real-scheme backend
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    _HAVE_ED25519 = True
except Exception:  # pragma: no cover - environment without cryptography
    _HAVE_ED25519 = False


class Ed25519Registry(SignatureRegistry):
    """Asymmetric backend. Keys are derived deterministically from the seed
    so that fixtures using this backend stay reproducible."""

    def __init__(self, private_keys: list) -> None:
        if not _HAVE_ED25519:
            raise CryptoError("cryptography is not installed; Ed25519 backend unavailable")
        self._private = tuple(private_keys)
        self._public = tuple(k.public_key() for k in self._private)

    @classmethod
    def generate(cls, count: int, seed: int) -> "Ed25519Registry":
        if not _HAVE_ED25519:
            raise CryptoError("cryptography is not installed; Ed25519 backend unavailable")
        base = b"dagbft-ed25519-v1" + enc_u64(seed & 0xFFFFFFFFFFFFFFFF)
        keys = [
            Ed25519PrivateKey.from_private_bytes(content_digest(base + enc_u32(i)))
            for i in range(count)
        ]
        return cls(keys)

    @property
    def server_count(self) -> int:
        return len(self._private)

    def sign(self, server: int, digest: bytes) -> Signature:
        _check_registered(server, len(self._private))
        return Signature(SignatureScheme.ED25519, self._private[server].sign(digest))

    def verify(self, server: int, digest: bytes, sig: Signature) -> bool:
        _check_registered(server, len(self._public))
        if sig.scheme != SignatureScheme.ED25519:
            return False
        try:
            self._public[server].verify(sig.data, digest)
            return True
        except Exception:
            return False


def ed25519_available() -> bool:
    return _HAVE_ED25519
