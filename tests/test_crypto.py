"""Canonical encoding, content digests, and the signature backends."""

from __future__ import annotations

from random import Random

import pytest

from dagbft.blockdag import Block, block_ref
from dagbft.crypto import (
    DIGEST_SIZE,
    Ed25519Registry,
    EncodingError,
    KeyRegistry,
    Signature,
    SignatureScheme,
    SigningHandle,
    UnknownServerError,
    content_digest,
    ed25519_available,
    enc_bytes,
    enc_u8,
    enc_u32,
    enc_u64,
    reader,
)
from dagbft.protocol import Label

from .util import make_registry, signed_block


class TestEncoders:
    def test_fixed_widths(self):
        assert enc_u8(0xAB) == b"\xab"
        assert enc_u32(1) == b"\x00\x00\x00\x01"
        assert enc_u64(1) == b"\x00\x00\x00\x00\x00\x00\x00\x01"

    @pytest.mark.parametrize("fn,bad", [(enc_u8, 256), (enc_u32, -1), (enc_u64, 1 << 64)])
    def test_range_checks(self, fn, bad):
        with pytest.raises(EncodingError):
            fn(bad)

    def test_length_prefix_keeps_concatenation_injective(self):
        assert enc_bytes(b"ab") + enc_bytes(b"c") != enc_bytes(b"a") + enc_bytes(b"bc")

    def test_reader_round_trip(self):
        blob = enc_u8(3) + enc_u32(7) + enc_u64(9) + enc_bytes(b"xy")
        r = reader(blob)
        assert (r.u8(), r.u32(), r.u64(), r.raw_bytes()) == (3, 7, 9, b"xy")
        assert r.done()

    def test_reader_truncation(self):
        with pytest.raises(EncodingError):
            reader(b"\x00\x00").u32()


class TestBlockEncoding:
    def test_deterministic(self):
        core = Block(0, 0, (), ((Label(0, 1), b"\x01\x02"),))
        assert core.core_bytes() == core.core_bytes()

    def test_requests_change_the_bytes(self):
        a = Block(0, 0, (), ((Label(0, 1), b"\x01"),))
        b = Block(0, 0, (), ((Label(0, 1), b"\x02"),))
        assert a.core_bytes() != b.core_bytes()

    def test_signature_excluded_from_core(self):
        registry = make_registry()
        core = Block(0, 0, (), ())
        sig1 = registry.sign(registry.handle(0), block_ref(core))
        sig2 = Signature(SignatureScheme.HMAC_SHA256, b"\x11" * 32)
        assert core.with_signature(sig1).core_bytes() == core.with_signature(sig2).core_bytes()

    def test_ref_stable_across_signing(self):
        registry = make_registry()
        core = Block(2, 5, (), ())
        signed = core.with_signature(registry.sign(registry.handle(2), block_ref(core)))
        assert block_ref(core) == block_ref(signed)

    def test_refs_differ_between_builders(self):
        b1 = Block(0, 0, (), ())
        b2 = Block(1, 0, (), ())
        assert block_ref(b1) != block_ref(b2)

    def test_digest_length(self):
        assert len(block_ref(Block(0, 0, (), ()))) == DIGEST_SIZE

    def test_ref_corpus_distinct(self):
        # collision sweep over 10^4 distinct cores
        rng = Random(11)
        refs = set()
        count = 10_000
        for i in range(count):
            block = Block(
                rng.randrange(7),
                rng.randrange(1 << 20),
                (),
                ((Label(rng.randrange(7), i), enc_u64(rng.randrange(1 << 60))),),
            )
            refs.add(block_ref(block))
        assert len(refs) == count

    def test_ref_pure_function_of_core_fields(self):
        label = Label(3, 44)
        a = Block(1, 2, (), ((label, b"zz"),))
        b = Block(1, 2, (), ((label, b"zz"),))
        assert block_ref(a) == block_ref(b)


class TestHmacRegistry:
    def test_sign_verify_round_trip(self):
        registry = make_registry()
        digest = content_digest(b"payload")
        sig = registry.sign(registry.handle(1), digest)
        assert registry.verify(1, digest, sig)

    def test_wrong_server_rejected(self):
        registry = make_registry()
        digest = content_digest(b"payload")
        sig = registry.sign(registry.handle(1), digest)
        assert not registry.verify(2, digest, sig)

    def test_wrong_digest_rejected(self):
        registry = make_registry()
        sig = registry.sign(registry.handle(1), content_digest(b"a"))
        assert not registry.verify(1, content_digest(b"b"), sig)

    def test_unknown_server_is_an_error_not_false(self):
        registry = make_registry()
        sig = registry.sign(registry.handle(0), content_digest(b"x"))
        with pytest.raises(UnknownServerError):
            registry.verify(99, content_digest(b"x"), sig)
        with pytest.raises(UnknownServerError):
            registry.handle(99)

    def test_generation_is_deterministic(self):
        d = content_digest(b"m")
        s1 = KeyRegistry.generate(4, 9).sign(KeyRegistry.generate(4, 9).handle(2), d)
        s2 = KeyRegistry.generate(4, 9).sign(KeyRegistry.generate(4, 9).handle(2), d)
        assert s1 == s2

    def test_restricted_view_signs_only_itself(self):
        registry = make_registry()
        view = registry.restricted(2)
        digest = content_digest(b"z")
        assert registry.verify(2, digest, view.sign(view.handle(2), digest))
        assert view.verify(0, digest, registry.sign(registry.handle(0), digest))

    def test_all_servers_self_verify(self):
        registry = make_registry(7, seed=4)
        for s in range(7):
            d = content_digest(bytes([s]))
            assert registry.verify(s, d, registry.sign(registry.handle(s), d))


@pytest.mark.skipif(not ed25519_available(), reason="cryptography not installed")
class TestEd25519Registry:
    def test_same_contract_as_hmac_backend(self):
        from dagbft.crypto import Ed25519Registry

        registry = Ed25519Registry.generate(4, seed=3)
        digest = content_digest(b"real scheme")
        sig = registry.sign(registry.handle(1), digest)
        assert sig.scheme == SignatureScheme.ED25519
        assert registry.verify(1, digest, sig)
        assert not registry.verify(2, digest, sig)
        assert not registry.verify(1, content_digest(b"other"), sig)
        with pytest.raises(UnknownServerError):
            registry.verify(9, digest, sig)

    def test_blocks_validate_under_ed25519(self):
        from dagbft.blockdag import BlockDag
        from dagbft.crypto import Ed25519Registry

        registry = Ed25519Registry.generate(4, seed=3)
        dag = BlockDag(registry)
        block = signed_block(registry, 0, 0)
        dag.insert(block)
        assert dag.is_valid(block)


@pytest.fixture(
    params=[
        pytest.param(KeyRegistry, id="hmac"),
        pytest.param(
            Ed25519Registry,
            id="ed25519",
            marks=pytest.mark.skipif(
                not ed25519_available(), reason="cryptography not installed"
            ),
        ),
    ]
)
def any_registry(request):
    return request.param.generate(4, seed=11)


class TestRestrictedSignerSurface:
    """A restricted view is a registry for ``BlockDag`` and ``GossipNode``:
    it hands out and signs with its own handle only."""

    def test_own_handle_signs_as_own(self, any_registry):
        view = any_registry.restricted(2)
        handle = view.handle(2)
        for i in range(4):
            digest = content_digest(bytes([i]))
            sig = view.sign(handle, digest)
            assert any_registry.verify(2, digest, sig)
            assert view.verify(2, digest, sig)

    def test_other_handle_is_unknown(self, any_registry):
        view = any_registry.restricted(2)
        for other in (0, 1, 3, 4, -1):
            with pytest.raises(UnknownServerError):
                view.handle(other)

    def test_foreign_handle_does_not_sign(self, any_registry):
        view = any_registry.restricted(2)
        with pytest.raises(UnknownServerError):
            view.sign(any_registry.handle(0), content_digest(b"x"))

    def test_server_count_is_the_registry_count(self, any_registry):
        assert any_registry.restricted(1).server_count == any_registry.server_count == 4

    def test_hand_built_handle_never_signs(self, any_registry):
        digest = content_digest(b"forged")
        for server in range(4):
            for secret in (b"", bytes(32)):
                try:
                    sig = any_registry.sign(SigningHandle(server, secret), digest)
                except UnknownServerError:
                    continue
                assert not any(any_registry.verify(s, digest, sig) for s in range(4))

    def test_signature_never_verifies_as_another(self, any_registry):
        view = any_registry.restricted(2)
        for i in range(4):
            digest = content_digest(bytes([i]))
            sig = view.sign(view.handle(2), digest)
            for other in (0, 1, 3):
                assert not any_registry.verify(other, digest, sig)
                assert not view.verify(other, digest, sig)
