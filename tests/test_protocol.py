"""Message ordering, canonical round trips, and the instance contract."""

from __future__ import annotations

from random import Random

import pytest

from dagbft.brb import ReliableBroadcast, encode_broadcast, encode_payload
from dagbft.crypto import EncodingError
from dagbft.protocol import (
    ContractError,
    Label,
    Message,
    message_from_canonical,
    message_sort_key,
)

from .oracles import message_less


def random_message(rng: Random) -> Message:
    return Message(
        rng.randrange(8),
        rng.randrange(8),
        bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 6))),
    )


class TestMessageOrder:
    def test_irreflexive(self):
        m = Message(0, 1, b"\x01")
        assert not message_less(m, m)

    def test_sender_orders_first(self):
        payload = encode_payload(1, 42)
        a = Message(0, 3, payload)
        b = Message(1, 3, payload)
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
            ms = sorted((random_message(rng) for _ in range(3)), key=message_sort_key)
            if ms[0] != ms[1] and ms[1] != ms[2]:
                assert message_less(ms[0], ms[1])
                assert message_less(ms[1], ms[2])
                assert message_less(ms[0], ms[2])

    def test_canonical_round_trip(self):
        rng = Random(23)
        for _ in range(200):
            m = random_message(rng)
            assert message_from_canonical(m.canonical_bytes()) == m


class TestMessageValue:
    """A message is its three fields: the canonical bytes it keeps are not
    one of them."""

    def test_three_fields(self):
        assert list(Message._fields) == ["sender", "receiver", "payload"]

    def test_hash_is_the_field_tuple_hash(self):
        # sets and dicts of messages keep the order the field tuple gives them,
        # for built and for decoded messages alike
        rng = Random(29)
        for _ in range(200):
            m = random_message(rng)
            decoded = message_from_canonical(m.canonical_bytes())
            assert hash(m) == hash(decoded) == hash((m.sender, m.receiver, m.payload))

    def test_equality_hash_and_repr_see_only_the_fields(self):
        m = Message(1, 2, b"\xab")
        assert m == Message(1, 2, b"\xab")
        assert m != Message(1, 3, b"\xab") and m != Message(1, 2, b"\xac")
        assert hash(m) == hash((1, 2, b"\xab"))
        assert repr(m) == "Message(sender=1, receiver=2, payload=b'\\xab')"

    def test_canonical_bytes_are_the_field_encoding(self):
        m = Message(1, 2, b"\xab")
        assert m.canonical_bytes() == bytes.fromhex("0111" "00000001" "00000002" "00000001" "ab")
        assert message_from_canonical(m.canonical_bytes()) == m

    @pytest.mark.parametrize("payload", [b"", b"\xab", encode_payload(1, 42)])
    def test_decoded_message_keeps_the_bytes_it_came_from(self, payload):
        # a decoded message keeps its input as its canonical bytes, which is
        # exact only if no other bytes decode to it: every byte mutant that
        # decodes must re-encode to itself, also when rebuilt field by field
        original = Message(3, 5, payload).canonical_bytes()
        decoded = 0
        for i in range(len(original)):
            for value in range(256):
                mutant = original[:i] + bytes([value]) + original[i + 1 :]
                try:
                    m = message_from_canonical(mutant)
                except EncodingError:
                    continue
                decoded += 1
                rebuilt = Message(m.sender, m.receiver, m.payload)
                assert m.canonical_bytes() == mutant
                assert rebuilt.canonical_bytes() == mutant and rebuilt == m
        assert decoded >= 8 * 256  # every value of every sender and receiver byte

    @pytest.mark.parametrize("fields", [(2**32, 0, b""), (0, 2**32, b""), (-1, 0, b"")])
    def test_out_of_range_endpoint_raises_at_construction(self, fields):
        with pytest.raises(EncodingError):
            Message(*fields)


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
                        Message(
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
            m = Message(rng.randrange(4), 0, encode_payload(rng.choice((1, 2)), rng.randrange(2)))
            outputs += instance.on_receive(m)
        assert outputs and all(m.sender == 0 for m in outputs)

    def test_receiver_mismatch_is_contract_violation(self):
        protocol = ReliableBroadcast(4, 1)
        instance = protocol.spawn(Label(0, 1), 0)
        with pytest.raises(ContractError):
            instance.on_receive(Message(1, 2, encode_payload(1, 5)))
