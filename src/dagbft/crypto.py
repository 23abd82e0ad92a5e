"""Content hashing, the canonical codec's helpers, and pluggable signatures.

Every canonical encoding packs its fixed-width big-endian fields with one
``struct`` layout, kept beside the type it encodes, and joins its
variable-length parts (refs, payloads, signature data) after their length
prefixes; it never uses a ``struct`` ``s`` format, which pads or truncates.
This module holds what the codecs share: ``pack_fields``, which turns a
field out of its layout's range into ``EncodingError``, the ``_Reader``
cursor the block and envelope decoders read through, and the 32-byte
content digest.

Two signature backends share one base, ``SignatureRegistry``:

* ``KeyRegistry`` -- HMAC-SHA256 over per-server secrets. This is the
  simulator backend; it is fast and deterministic from a seed.
* ``Ed25519Registry`` -- a real asymmetric scheme (requires the optional
  ``cryptography`` dependency). The backend imports ``cryptography`` on
  first use, when a registry is built or ``ed25519_available()`` asks, so a
  process that only signs with HMAC never loads it.

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

DIGEST_SIZE = 32
ENCODING_VERSION = 1
_KEY_SEED = struct.Struct(">QI")  # the registry seed, a server id


class CryptoError(Exception):
    """Base error for this module."""


class UnknownServerError(CryptoError):
    """A server id outside the registry was used where registration is required."""


class EncodingError(CryptoError):
    """A value cannot be canonically encoded (out of range, too long)."""


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------


def pack_fields(layout: struct.Struct, *fields) -> bytes:
    """``layout.pack(*fields)``, a field out of its format's range raising
    ``EncodingError`` rather than ``struct.error``."""
    try:
        return layout.pack(*fields)
    except struct.error:
        raise EncodingError(f"field out of range in {fields}") from None


class _Reader:
    """Cursor over canonical bytes: fixed-width fields by ``struct`` layout,
    variable-length parts by their decoded length."""

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

    def done(self) -> bool:
        return self.pos == len(self.data)


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

    @property
    def key_set(self) -> "SignatureRegistry":
        """The registry whose keys ``verify`` checks against: this one."""
        return self

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
        seed &= 0xFFFFFFFFFFFFFFFF
        return cls([content_digest(b"dagbft-key-v1" + _KEY_SEED.pack(seed, i)) for i in range(count)])

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
    (``server_count``, ``key_set``, ``sign``, ``verify``), so byzantine code
    runs the same stack as a correct server on it; its ``key_set`` is the
    wrapped registry, so a check it passes is that registry's. It is the one
    guard on who signs: ``sign`` refuses every id but its own, and an
    unregistered ``server`` is refused at construction.
    """

    __slots__ = ("key_set", "server")

    def __init__(self, registry: SignatureRegistry, server: int) -> None:
        _check_registered(server, registry.server_count)
        self.key_set = registry
        self.server = server

    @property
    def server_count(self) -> int:
        return self.key_set.server_count

    def sign(self, server: int, digest: bytes) -> Signature:
        if server != self.server:
            raise UnknownServerError(f"this view signs only as server {self.server}")
        return self.key_set.sign(server, digest)

    def verify(self, server: int, digest: bytes, sig: Signature) -> bool:
        return self.key_set.verify(server, digest, sig)


_NO_ED25519 = "cryptography is not installed; Ed25519 backend unavailable"


def _ed25519_key_class() -> type | None:
    """The optional backend's private-key class, imported on first use (a
    later call finds the module loaded), or None when it cannot be imported."""
    try:
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
    except Exception:  # an environment without (a working) cryptography
        return None
    return Ed25519PrivateKey


class Ed25519Registry(SignatureRegistry):
    """Asymmetric backend. Keys are derived deterministically from the seed
    so that fixtures using this backend stay reproducible."""

    def __init__(self, private_keys: list) -> None:
        if _ed25519_key_class() is None:
            raise CryptoError(_NO_ED25519)
        self._private = tuple(private_keys)
        self._public = tuple(k.public_key() for k in self._private)

    @classmethod
    def generate(cls, count: int, seed: int) -> "Ed25519Registry":
        key_class = _ed25519_key_class()
        if key_class is None:
            raise CryptoError(_NO_ED25519)
        seed &= 0xFFFFFFFFFFFFFFFF
        digests = (content_digest(b"dagbft-ed25519-v1" + _KEY_SEED.pack(seed, i)) for i in range(count))
        return cls([key_class.from_private_bytes(digest) for digest in digests])

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
    return _ed25519_key_class() is not None
