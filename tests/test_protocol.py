"""Message ordering, canonical round trips, and the instance contract."""

from __future__ import annotations

import gc
from random import Random

import pytest

import dagbft
from dagbft.brb import ReliableBroadcast, encode_broadcast, encode_payload
from dagbft.crypto import EncodingError
from dagbft.protocol import (
    MESSAGE_HEAD,
    RECEIVER,
    ContractError,
    Label,
    Message,
    message,
    message_from_canonical,
)

from .oracles import message_fields, message_less


def random_message(rng: Random) -> Message:
    return message(
        rng.randrange(8),
        rng.randrange(8),
        bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 6))),
    )


class TestMessageOrder:
    def test_irreflexive(self):
        m = message(0, 1, b"\x01")
        assert not message_less(m, m)

    def test_sender_orders_first(self):
        payload = encode_payload(1, 42)
        a = message(0, 3, payload)
        b = message(1, 3, payload)
        assert message_less(a, b)

    def test_trichotomy_on_random_pairs(self):
        rng = Random(21)
        for _ in range(1000):
            m1, m2 = random_message(rng), random_message(rng)
            if m1 == m2:
                assert not message_less(m1, m2) and not message_less(m2, m1)
            else:
                assert message_less(m1, m2) != message_less(m2, m1)

    def test_transitive_on_random_triples(self):
        rng = Random(22)
        for _ in range(1000):
            ms = sorted(random_message(rng) for _ in range(3))
            if ms[0] != ms[1] and ms[1] != ms[2]:
                assert message_less(ms[0], ms[1])
                assert message_less(ms[1], ms[2])
                assert message_less(ms[0], ms[2])

    def test_canonical_round_trip(self):
        rng = Random(23)
        for _ in range(200):
            m = random_message(rng)
            assert message_from_canonical(m) == m


class TestMessageValue:
    """A message is a plain ``bytes`` value, its canonical encoding: its
    fields are read from those bytes, and equality, hash and order are
    theirs."""

    def test_fields_are_read_from_the_bytes(self):
        m = message(1, 2, b"\xab")
        assert type(m) is bytes
        assert message_fields(m) == (1, 2, b"\xab")
        assert MESSAGE_HEAD.unpack_from(m)[2:4] == (1, 2)
        assert m[RECEIVER] == (2).to_bytes(4, "big")
        assert m[MESSAGE_HEAD.size :] == b"\xab"

    @pytest.mark.parametrize("how", ["built", "decoded"])
    def test_a_message_holds_no_dict(self, how):
        # a plain bytes value: no instance dict, and nothing the cyclic
        # collector tracks
        m = message(3, 5, encode_payload(1, 42))
        if how == "decoded":
            data = bytes(bytearray(m))
            m = message_from_canonical(data)
            assert m is data  # no copy
        assert type(m) is bytes and not hasattr(m, "__dict__") and not gc.is_tracked(m)

    def test_message_is_exported_as_the_bytes_type(self):
        # the annotation alias, kept in the package's exports; no class
        assert dagbft.Message is Message is bytes and "Message" in dagbft.__all__

    def test_equality_and_hash_are_those_of_the_fields_and_the_bytes(self):
        # equal fields give equal messages, whose hash is their bytes', for
        # built and for decoded messages alike; small ranges make ties common
        rng = Random(29)
        fields = [(rng.randrange(2), rng.randrange(2), bytes(rng.randrange(2))) for _ in range(40)]
        built = [message(*f) for f in fields]
        decoded = [message_from_canonical(bytes(m)) for m in built]
        for f, m, d in zip(fields, built, decoded):
            assert d == m and hash(m) == hash(d) == hash(bytes(m))
            for g, other in zip(fields, decoded):
                assert (m == other) == (f == g)

    def test_equality_and_hash(self):
        m = message(1, 2, b"\xab")
        assert m == message(1, 2, b"\xab")
        assert m != message(1, 3, b"\xab") and m != message(1, 2, b"\xac")
        assert hash(m) == hash(bytes.fromhex("0111" "00000001" "00000002" "00000001" "ab"))

    def test_the_bytes_are_the_field_encoding(self):
        m = message(1, 2, b"\xab")
        assert m == bytes.fromhex("0111" "00000001" "00000002" "00000001" "ab")
        assert message_from_canonical(m) == m

    @pytest.mark.parametrize("payload", [b"", b"\xab", encode_payload(1, 42)])
    def test_decoded_message_keeps_the_bytes_it_came_from(self, payload):
        # a decoded message is its input, which is exact only if no other
        # bytes decode to it: every byte mutant that decodes must re-encode
        # to itself, also when rebuilt field by field
        original = message(3, 5, payload)
        decoded = 0
        for i in range(len(original)):
            for value in range(256):
                mutant = original[:i] + bytes([value]) + original[i + 1 :]
                try:
                    m = message_from_canonical(mutant)
                except EncodingError:
                    continue
                decoded += 1
                rebuilt = message(*message_fields(m))
                assert m == mutant and type(m) is bytes
                assert rebuilt == mutant and rebuilt == m
        assert decoded >= 8 * 256  # every value of every sender and receiver byte

    @pytest.mark.parametrize("fields", [(2**32, 0, b""), (0, 2**32, b""), (-1, 0, b"")])
    def test_out_of_range_endpoint_raises_at_construction(self, fields):
        with pytest.raises(EncodingError):
            message(*fields)


class TestLabel:
    def test_ordering_is_originator_then_nonce(self):
        assert Label(0, 9) < Label(1, 0)
        assert Label(1, 0) < Label(1, 1)

    def test_canonical_bytes_distinct(self):
        assert Label(0, 1).canonical_bytes() != Label(1, 0).canonical_bytes()

    def test_hashes_compares_and_sorts_as_the_pair(self):
        rng = Random(5)
        pairs = [(rng.randrange(4), rng.randrange(1 << 64)) for _ in range(60)]
        pairs += [(0, 0), (0, 0), (3, 2**64 - 1)]
        labels = [Label(*pair) for pair in pairs]
        assert [hash(label) for label in labels] == [hash(pair) for pair in pairs]
        assert labels == pairs and sorted(labels) == sorted(pairs)
        assert list(set(labels)) == list(set(pairs))  # set order is the pair's
        for a, b in zip(labels, labels[1:]):
            assert (a < b, a == b) == (tuple(a) < tuple(b), tuple(a) == tuple(b))


class TestInstanceContract:
    """Replay determinism and sender stamping, exercised on the reference
    protocol."""

    def _random_inputs(self, rng: Random, n: int) -> list:
        inputs = []
        for _ in range(rng.randrange(1, 10)):
            if rng.random() < 0.2:
                inputs.append(("request", encode_broadcast(rng.randrange(3))))
            else:
                inputs.append(
                    (
                        "message",
                        message(
                            rng.randrange(n),
                            0,
                            encode_payload(rng.choice((1, 2)), rng.randrange(3)),
                        ),
                    )
                )
        return inputs

    def _drive(self, instance, inputs):
        log = []
        for kind, item in inputs:
            if kind == "request":
                log.append(tuple(instance.on_request(item)))
            else:
                log.append(tuple(instance.on_receive(item)))
            log.append(tuple(instance.take_indications()))
        return log

    def test_clone_replays_identically(self):
        rng = Random(31)
        protocol = ReliableBroadcast(4, 1)
        for trial in range(50):
            inputs = self._random_inputs(rng, 4)
            cut = rng.randrange(len(inputs) + 1)
            original = protocol.spawn(Label(0, trial), 0)
            self._drive(original, inputs[:cut])
            twin = original.clone()
            assert twin.state_bytes() == original.state_bytes()
            tail_a = self._drive(original, inputs[cut:])
            tail_b = self._drive(twin, inputs[cut:])
            assert tail_a == tail_b
            assert original.state_bytes() == twin.state_bytes()

    def test_clone_is_independent(self):
        protocol = ReliableBroadcast(4, 1)
        original = protocol.spawn(Label(0, 1), 0)
        twin = original.clone()
        original.on_request(encode_broadcast(5))
        assert twin.state_bytes() != original.state_bytes()

    def test_fresh_instances_are_identical(self):
        protocol = ReliableBroadcast(4, 1)
        a = protocol.spawn(Label(2, 7), 1)
        b = protocol.spawn(Label(2, 7), 1)
        assert a.state_bytes() == b.state_bytes()

    def test_identity_fields_differ_between_servers(self):
        protocol = ReliableBroadcast(4, 1)
        a = protocol.spawn(Label(2, 7), 1)
        b = protocol.spawn(Label(2, 7), 2)
        assert a.state_bytes() != b.state_bytes()
        # and they differ in nothing but the identity: strip the label and
        # server prefix and the remainder is identical
        label_len = len(Label(2, 7).canonical_bytes())
        assert a.state_bytes()[: label_len] == b.state_bytes()[: label_len]
        assert a.state_bytes()[label_len + 4 :] == b.state_bytes()[label_len + 4 :]

    def test_outputs_stamped_with_own_server(self):
        rng = Random(33)
        protocol = ReliableBroadcast(4, 1)
        instance = protocol.spawn(Label(0, 1), 0)
        outputs = instance.on_request(encode_broadcast(1))
        for trial in range(200):
            m = message(rng.randrange(4), 0, encode_payload(rng.choice((1, 2)), rng.randrange(2)))
            outputs += instance.on_receive(m)
        assert outputs and all(message_fields(m).sender == 0 for m in outputs)

    def test_receiver_mismatch_is_contract_violation(self):
        protocol = ReliableBroadcast(4, 1)
        instance = protocol.spawn(Label(0, 1), 0)
        with pytest.raises(ContractError):
            instance.on_receive(message(1, 2, encode_payload(1, 5)))
