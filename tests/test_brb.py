"""Double-echo broadcast: handler semantics against the independent oracle."""

from __future__ import annotations

from itertools import permutations
from random import Random

import pytest

from dagbft.brb import (
    ECHO,
    READY,
    BrbInstance,
    ReliableBroadcast,
    decode_broadcast,
    decode_deliver,
    encode_broadcast,
    encode_payload,
)
from dagbft.protocol import Label, Message, ProtocolError, message

from .oracles import (
    echo_quorums_possible,
    feed_instance,
    message_fields,
    perfect_network_deliveries,
    reference_outputs,
)

N, F = 4, 1


def fresh(server: int = 0, originator: int = 0) -> BrbInstance:
    return ReliableBroadcast(N, F).spawn(Label(originator, 1), server)


def echo(value: int, sender: int, receiver: int = 0) -> Message:
    return message(sender, receiver, encode_payload(ECHO, value))


def ready(value: int, sender: int, receiver: int = 0) -> Message:
    return message(sender, receiver, encode_payload(READY, value))


class TestCodec:
    def test_broadcast_round_trip(self):
        assert decode_broadcast(encode_broadcast(42)) == 42

    def test_payload_layout(self):
        payload = encode_payload(ECHO, 42)
        assert len(payload) == 9
        assert payload[0] == ECHO
        assert payload[1:] == (42).to_bytes(8, "big")

    @pytest.mark.parametrize("bad", [b"", b"\x01", b"\x09" + bytes(8), bytes(12)])
    def test_bad_payloads_rejected(self, bad):
        with pytest.raises(ProtocolError):
            if len(bad) == 8:
                decode_broadcast(bad + b"!")
            else:
                from dagbft.brb import decode_payload

                decode_payload(bad)


class TestInitialState:
    def test_fresh_instance_flags_are_down(self):
        instance = fresh()
        assert (instance.echoed, instance.readied, instance.delivered) == (
            False,
            False,
            False,
        )
        assert instance.echo_senders == {} and instance.ready_senders == {}


class TestRequest:
    def test_originator_broadcast_echoes_to_all(self):
        out = fresh().on_request(encode_broadcast(42))
        assert [(f.receiver, f.payload) for f in map(message_fields, out)] == [
            (r, encode_payload(ECHO, 42)) for r in range(N)
        ]

    def test_non_originator_request_is_refused(self):
        instance = fresh(server=1, originator=0)
        assert instance.on_request(encode_broadcast(42)) == []
        assert not instance.echoed

    def test_second_broadcast_suppressed(self):
        instance = fresh()
        instance.on_request(encode_broadcast(42))
        assert instance.on_request(encode_broadcast(43)) == []

    def test_malformed_request_raises_and_leaves_state(self):
        instance = fresh()
        before = instance.state_bytes()
        with pytest.raises(ProtocolError):
            instance.on_request(b"\x01")
        assert instance.state_bytes() == before


class TestReceive:
    def test_first_echo_relays(self):
        out = fresh().on_receive(echo(42, 1))
        assert [(f.receiver, f.payload) for f in map(message_fields, out)] == [
            (r, encode_payload(ECHO, 42)) for r in range(N)
        ]

    def test_third_distinct_echo_triggers_ready(self):
        instance = fresh()
        instance.on_request(encode_broadcast(42))
        instance.on_receive(echo(42, 0))  # own echo looping back
        assert instance.on_receive(echo(42, 1)) == []
        out = instance.on_receive(echo(42, 2))
        assert [(f.receiver, f.payload) for f in map(message_fields, out)] == [
            (r, encode_payload(READY, 42)) for r in range(N)
        ]

    def test_duplicate_echo_from_same_sender_is_idle(self):
        instance = fresh()
        instance.on_receive(echo(42, 1))
        before = instance.state_bytes()
        assert instance.on_receive(echo(42, 1)) == []
        assert instance.state_bytes() == before

    def test_ready_amplification_at_f_plus_one(self):
        instance = fresh(server=3, originator=0)
        instance.on_receive(ready(42, 0, receiver=3))
        out = instance.on_receive(ready(42, 1, receiver=3))
        assert [message_fields(m).payload for m in out] == [encode_payload(READY, 42)] * N

    def test_delivery_at_two_f_plus_one_readies(self):
        instance = fresh()
        instance.on_receive(ready(42, 1))
        instance.on_receive(ready(42, 2))
        instance.on_receive(ready(42, 3))
        assert [decode_deliver(p) for p in instance.take_indications()] == [42]

    def test_delivery_happens_once(self):
        instance = fresh()
        for sender in (0, 1, 2, 3):
            instance.on_receive(ready(42, sender))
        assert len(instance.take_indications()) == 1
        assert instance.take_indications() == []

    def test_unknown_kind_ignored(self):
        instance = fresh()
        before = instance.state_bytes()
        assert instance.on_receive(message(1, 0, b"\x07garbagegarbage")) == []
        assert instance.state_bytes() == before

    def test_take_indications_empty_on_fresh(self):
        assert fresh().take_indications() == []


class TestAgainstReferenceOracle:
    """Exhaustive comparison with the recounting oracle."""

    UNIVERSE = [(kind, 42, sender) for kind in ("ECHO", "READY") for sender in range(N)]

    def _compare(self, inputs, is_originator=True):
        instance = fresh(originator=0 if is_originator else 1)
        expected = reference_outputs(inputs, N, F, is_originator=is_originator)
        actual = feed_instance(instance, inputs)
        assert actual == expected, f"divergence on {inputs}"

    def test_exhaustive_short_sequences(self):
        # all duplicate-free sequences up to length 4 (full length 6 in the
        # acceptance suite)
        for size in range(0, 5):
            for combo in permutations(self.UNIVERSE, size):
                self._compare(list(combo))

    def test_request_prefix_sequences(self):
        for size in range(0, 4):
            for combo in permutations(self.UNIVERSE, size):
                self._compare([("broadcast", 42), *combo])

    def test_random_sequences_with_duplicates_and_two_values(self):
        rng = Random(77)
        pool = [(k, v, s) for k in ("ECHO", "READY") for v in (42, 43) for s in range(N)]
        for _ in range(400):
            inputs = [rng.choice(pool) for _ in range(rng.randrange(1, 8))]
            if rng.random() < 0.3:
                inputs.insert(0, ("broadcast", rng.choice((42, 43))))
            self._compare(inputs, is_originator=rng.random() < 0.7)


class TestQuorumIntersection:
    def test_two_values_cannot_both_reach_echo_quorum(self):
        # brute force over every vote assignment with at most f equivocators
        quorum = 2 * F + 1
        for a, b in echo_quorums_possible(N, F):
            assert not (a >= quorum and b >= quorum)

    def test_sanity_quorum_reachable_for_single_value(self):
        assert any(a >= 2 * F + 1 for a, _ in echo_quorums_possible(N, F))


class TestPerfectNetwork:
    def test_all_servers_deliver_over_ideal_network(self):
        delivered = perfect_network_deliveries(N, F, originator=0, value=42)
        assert delivered == {s: 42 for s in range(N)}

    def test_larger_deployment(self):
        delivered = perfect_network_deliveries(7, 2, originator=3, value=1234)
        assert delivered == {s: 1234 for s in range(7)}
