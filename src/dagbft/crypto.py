"""Content hashing, canonical-encoding primitives, and pluggable signatures.

Everything that must be byte-identical across independent machines funnels
through this module: the fixed-width big-endian integer encoders, the
length-prefixed byte/sequence encoders, and the 32-byte content digest.

Two signature backends share one surface:

* ``KeyRegistry`` -- HMAC-SHA256 over per-server secrets. This is the
  simulator backend; it is fast, deterministic from a seed, and the
  adversary model is enforced by handing byzantine parties a
  ``RestrictedSigner``: a view with the same surface whose ``handle`` and
  ``sign`` work only for its own server.
* ``Ed25519Registry`` -- a real asymmetric scheme (requires the optional
  ``cryptography`` dependency) with the same methods.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

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

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

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


class SigningHandle:
    """Capability to sign as one server; obtainable only from its registry."""

    __slots__ = ("server", "_secret")

    def __init__(self, server: int, secret: bytes) -> None:
        self.server = server
        self._secret = secret

    def __repr__(self) -> str:  # never leak the secret
        return f"SigningHandle(server={self.server})"


class KeyRegistry:
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
        if not 0 <= server < len(self._secrets):
            raise UnknownServerError(f"server {server} is not registered")
        return self._secrets[server]

    def handle(self, server: int) -> SigningHandle:
        return SigningHandle(server, self._secret(server))

    def sign(self, handle: SigningHandle, digest: bytes) -> Signature:
        mac = hmac.new(handle._secret, digest, hashlib.sha256).digest()
        return Signature(SignatureScheme.HMAC_SHA256, mac)

    def verify(self, server: int, digest: bytes, sig: Signature) -> bool:
        secret = self._secret(server)
        if sig.scheme != SignatureScheme.HMAC_SHA256:
            return False
        expected = hmac.new(secret, digest, hashlib.sha256).digest()
        return hmac.compare_digest(expected, sig.data)

    def restricted(self, server: int) -> "RestrictedSigner":
        return RestrictedSigner(self, server)


class RestrictedSigner:
    """Registry view that verifies anyone but signs only as ``server``.

    It has the registry surface that ``BlockDag`` and ``GossipNode`` use
    (``server_count``, ``handle``, ``sign``, ``verify``), so byzantine code
    runs the same stack as a correct server on it; ``handle`` refuses every
    id but its own.
    """

    __slots__ = ("_registry", "server", "_handle")

    def __init__(self, registry: KeyRegistry, server: int) -> None:
        self._registry = registry
        self.server = server
        self._handle = registry.handle(server)

    @property
    def server_count(self) -> int:
        return self._registry.server_count

    def handle(self, server: int) -> SigningHandle:
        if server != self.server:
            raise UnknownServerError(f"this view holds only the key of server {self.server}")
        return self._handle

    def sign(self, handle: SigningHandle, digest: bytes) -> Signature:
        if handle is not self._handle:
            raise UnknownServerError(f"this view signs only as server {self.server}")
        return self._registry.sign(handle, digest)

    def verify(self, server: int, digest: bytes, sig: Signature) -> bool:
        return self._registry.verify(server, digest, sig)


try:  # optional real-scheme backend
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    _HAVE_ED25519 = True
except Exception:  # pragma: no cover - environment without cryptography
    _HAVE_ED25519 = False


class Ed25519Registry:
    """Asymmetric backend with the :class:`KeyRegistry` surface.

    Keys are derived deterministically from the seed so that fixtures using
    this backend stay reproducible. The key stays inside the registry, so a
    handle carries no secret; the registry issues one handle per server and
    signs only for a handle it issued.
    """

    def __init__(self, private_keys: list) -> None:
        if not _HAVE_ED25519:
            raise CryptoError("cryptography is not installed; Ed25519 backend unavailable")
        self._private = tuple(private_keys)
        self._public = tuple(k.public_key() for k in self._private)
        self._handles = tuple(SigningHandle(i, b"") for i in range(len(self._private)))

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

    def handle(self, server: int) -> SigningHandle:
        if not 0 <= server < len(self._handles):
            raise UnknownServerError(f"server {server} is not registered")
        return self._handles[server]

    def sign(self, handle: SigningHandle, digest: bytes) -> Signature:
        server = handle.server
        if not (0 <= server < len(self._handles) and self._handles[server] is handle):
            raise UnknownServerError("this registry did not issue the handle")
        return Signature(SignatureScheme.ED25519, self._private[server].sign(digest))

    def verify(self, server: int, digest: bytes, sig: Signature) -> bool:
        if not 0 <= server < len(self._public):
            raise UnknownServerError(f"server {server} is not registered")
        if sig.scheme != SignatureScheme.ED25519:
            return False
        try:
            self._public[server].verify(sig.data, digest)
            return True
        except Exception:
            return False

    def restricted(self, server: int) -> RestrictedSigner:
        return RestrictedSigner(self, server)  # type: ignore[arg-type]


def ed25519_available() -> bool:
    return _HAVE_ED25519
