"""Canonical encoding, content digests, and the signature backends."""

from __future__ import annotations

import struct
from collections import deque
from random import Random

import pytest

from dagbft.blockdag import Block, block_ref
from dagbft.crypto import (
    DIGEST_SIZE,
    Ed25519Registry,
    EncodingError,
    KeyRegistry,
    RestrictedSigner,
    Signature,
    SignatureRegistry,
    SignatureScheme,
    UnknownServerError,
    content_digest,
    ed25519_available,
    enc_bytes,
    enc_seq,
    enc_u8,
    enc_u32,
    enc_u32s,
    enc_u64,
    reader,
)
from dagbft.gossip import GossipNode
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

    @pytest.mark.parametrize("values", [[], [0], [3, 1, 2], [0xFFFFFFFF, 7]])
    def test_packed_u32s_are_the_sequence_encoding(self, values):
        assert enc_u32s(values) == enc_seq(enc_u32(v) for v in values)

    @pytest.mark.parametrize("values", [[-1], [1, 1 << 32]])
    def test_packed_u32s_range_checked(self, values):
        with pytest.raises(EncodingError):
            enc_u32s(values)

    def test_reader_fields(self):
        r = reader(enc_u8(3) + enc_u32(7) + enc_u64(9) + b"x")
        assert r.fields(struct.Struct(">BIQ")) == (3, 7, 9)
        assert r.pos == 13
        with pytest.raises(EncodingError, match="truncated"):
            r.fields(struct.Struct(">H"))
        assert r.take(1) == b"x" and r.done()


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
        sig1 = registry.sign(0, block_ref(core))
        sig2 = Signature(SignatureScheme.HMAC_SHA256, b"\x11" * 32)
        assert core.with_signature(sig1).core_bytes() == core.with_signature(sig2).core_bytes()

    def test_ref_stable_across_signing(self):
        registry = make_registry()
        core = Block(2, 5, (), ())
        signed = core.with_signature(registry.sign(2, block_ref(core)))
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
        sig = registry.sign(1, digest)
        assert registry.verify(1, digest, sig)

    def test_wrong_server_rejected(self):
        registry = make_registry()
        digest = content_digest(b"payload")
        sig = registry.sign(1, digest)
        assert not registry.verify(2, digest, sig)

    def test_wrong_digest_rejected(self):
        registry = make_registry()
        sig = registry.sign(1, content_digest(b"a"))
        assert not registry.verify(1, content_digest(b"b"), sig)

    def test_unknown_server_is_an_error_not_false(self):
        registry = make_registry()
        sig = registry.sign(0, content_digest(b"x"))
        with pytest.raises(UnknownServerError):
            registry.verify(99, content_digest(b"x"), sig)
        with pytest.raises(UnknownServerError):
            registry.sign(99, content_digest(b"x"))

    def test_generation_is_deterministic(self):
        d = content_digest(b"m")
        s1 = KeyRegistry.generate(4, 9).sign(2, d)
        s2 = KeyRegistry.generate(4, 9).sign(2, d)
        assert s1 == s2

    def test_all_servers_self_verify(self):
        registry = make_registry(7, seed=4)
        for s in range(7):
            d = content_digest(bytes([s]))
            assert registry.verify(s, d, registry.sign(s, d))


@pytest.mark.skipif(not ed25519_available(), reason="cryptography not installed")
class TestEd25519Registry:
    def test_same_contract_as_hmac_backend(self):
        from dagbft.crypto import Ed25519Registry

        registry = Ed25519Registry.generate(4, seed=3)
        digest = content_digest(b"real scheme")
        sig = registry.sign(1, digest)
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
    it verifies as any server and signs as its own id only."""

    def test_both_backends_share_one_base(self, any_registry):
        assert isinstance(any_registry, SignatureRegistry)
        assert type(any_registry).restricted is SignatureRegistry.restricted
        assert type(any_registry.restricted(2)) is RestrictedSigner

    def test_restricted_view_signs_only_itself(self, any_registry):
        view = any_registry.restricted(2)
        digest = content_digest(b"z")
        assert any_registry.verify(2, digest, view.sign(2, digest))
        assert view.verify(0, digest, any_registry.sign(0, digest))

    def test_own_id_signs_as_own(self, any_registry):
        view = any_registry.restricted(2)
        for i in range(4):
            digest = content_digest(bytes([i]))
            sig = view.sign(2, digest)
            assert any_registry.verify(2, digest, sig)
            assert view.verify(2, digest, sig)

    def test_other_ids_do_not_sign(self, any_registry):
        view = any_registry.restricted(2)
        for other in (0, 1, 3, 4, -1):
            with pytest.raises(UnknownServerError):
                view.sign(other, content_digest(b"x"))

    def test_unregistered_id_is_refused(self, any_registry):
        with pytest.raises(UnknownServerError):
            any_registry.restricted(99)
        with pytest.raises(UnknownServerError):
            any_registry.sign(4, content_digest(b"x"))

    def test_server_count_is_the_registry_count(self, any_registry):
        assert any_registry.restricted(1).server_count == any_registry.server_count == 4

    def test_signature_never_verifies_as_another(self, any_registry):
        view = any_registry.restricted(2)
        for i in range(4):
            digest = content_digest(bytes([i]))
            sig = view.sign(2, digest)
            for other in (0, 1, 3):
                assert not any_registry.verify(other, digest, sig)
                assert not view.verify(other, digest, sig)


def _reachable(root, skip):
    """Every object reachable from ``root`` through containers and the
    fields of dagbft objects, without entering ``skip``."""
    seen, stack = {id(skip)}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("dagbft."):
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                slots = getattr(cls, "__slots__", ())
                stack.extend(getattr(obj, name) for name in slots if hasattr(obj, name))


def test_a_correct_node_holds_no_secret_outside_its_registry():
    registry = make_registry()
    node = GossipNode(1, registry)
    node.requests.append((Label(1, 1), b"\x01"))
    for _ in range(2):
        node.disseminate()
    node.on_receive_block(signed_block(registry, 0, 0))
    secrets = set(registry._secrets)
    assert not [obj for obj in _reachable(node, registry) if type(obj) is bytes and obj in secrets]
