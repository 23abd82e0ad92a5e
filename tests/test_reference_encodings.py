"""The packed encodings against their spelled-out references in ``oracles``.

Each encoding packs its fixed-width fields with one ``struct`` layout:
``Label``, ``message``, a block's core and wire bytes and the broadcast
protocol's payloads, while ``BrbInstance.state_bytes`` joins one list of
parts and ``Interpreter.state_digest`` builds its material in one join.
These tests compare each with the field-by-field formula on every block,
request, message and slot of simulated runs, where the digest of a label
the block never touched is checked too, and on the edge cases of the
fields.
"""

from __future__ import annotations

from functools import partial

import pytest

from dagbft import simnet
from dagbft.blockdag import Block, block_to_wire
from dagbft.brb import (
    ECHO,
    BrbInstance,
    decode_broadcast,
    decode_deliver,
    decode_payload,
    encode_broadcast,
    encode_deliver,
    encode_payload,
)
from dagbft.crypto import EncodingError, Signature
from dagbft.protocol import Label, ProtocolError, message, message_from_canonical

from .oracles import (
    message_fields,
    reference_block_core_bytes,
    reference_block_wire,
    reference_brb_state_bytes,
    reference_encoding,
    reference_label_bytes,
    reference_message_bytes,
    reference_payload_bytes,
    reference_state_digest,
    reference_value_bytes,
)
from .scenarios import adversarial_scenario, random_scenario

UNTOUCHED = Label(0, 1 << 40)  # no scenario injects it


def corpus():
    for i in range(40):
        yield f"random_{i}", random_scenario(i)
        yield f"adversarial_{i}", adversarial_scenario(i)


def check_value(payload: bytes, decode, encode) -> int:
    """0 if ``payload`` does not decode; else 1, once the value it decodes to
    encodes to it both packed and spelled out."""
    try:
        value = decode(payload)
    except ProtocolError:
        return 0
    assert encode(value) == reference_value_bytes(value) == payload
    return 1


@pytest.mark.parametrize("name, scenario", list(corpus()), ids=[n for n, _ in corpus()])
def test_every_slot_encodes_as_the_reference(name, scenario):
    sim = simnet.Simulation(scenario)
    sim.run()
    slots = {}  # ref -> an interpreter holding it and its slot, shared by the correct servers
    for node in sim.correct.values():
        for ref, slot in node.interpreter._slots.items():
            slots.setdefault(ref, (node.interpreter, slot))
    digests = states = messages = 0
    for ref, (interpreter, slot) in slots.items():
        for label in {*slot.instances, *slot.out, UNTOUCHED}:
            assert interpreter.state_digest(ref, label) == reference_state_digest(
                interpreter, ref, label
            ), (ref.hex(), label)
            digests += 1
        for inst in slot.instances.values():
            assert inst.state_bytes() == reference_brb_state_bytes(inst), (ref.hex(), inst.label)
            states += 1
        for out in slot.out.values():
            for m in out:
                assert m == reference_encoding(m)
                payload = message_fields(m).payload
                kind, value = decode_payload(payload)  # correct servers emit these alone
                assert encode_payload(kind, value) == reference_payload_bytes(kind, value) == payload
                messages += 1
    assert digests > len(slots) and states and messages

    dags = [node.dag for node in sim.correct.values()]
    dags += [adversary.node.dag for adversary in sim.adversaries.values()]
    blocks = {ref: block for dag in dags for ref, block in dag._vertices.items()}
    requests = values = 0
    for block in blocks.values():
        assert block.core_bytes() == reference_block_core_bytes(block)
        assert block_to_wire(block) == reference_block_wire(block)
        for label, payload in block.requests:
            assert label.canonical_bytes() == reference_label_bytes(label)
            values += check_value(payload, decode_broadcast, encode_broadcast)
            requests += 1
    indications = [bytes.fromhex(ev["indication"]) for ev in sim.events if ev["kind"] == "INDICATE"]
    delivered = sum(check_value(payload, decode_deliver, encode_deliver) for payload in indications)
    assert blocks and requests and values and delivered == len(indications)


class TestMessageEdgeCases:
    @pytest.mark.parametrize("payload", [b"", bytes(range(9))], ids=["empty", "nine"])
    @pytest.mark.parametrize("receiver", [0, 0xFFFFFFFF])
    @pytest.mark.parametrize("sender", [0, 0xFFFFFFFF])
    def test_extreme_fields_encode_as_the_reference(self, sender, receiver, payload):
        m = message(sender, receiver, payload)
        assert m == reference_message_bytes(sender, receiver, payload)
        assert message_from_canonical(bytes(m)) == m

    @pytest.mark.parametrize("bad", [-1, 1 << 32])
    def test_an_out_of_range_field_raises_encoding_error(self, bad):
        for fields in ((bad, 0, b""), (0, bad, b"")):
            with pytest.raises(EncodingError):
                message(*fields)
            with pytest.raises(EncodingError):
                reference_message_bytes(*fields)


class TestBrbStateEdgeCases:
    def test_a_fresh_instance_encodes_as_the_reference(self):
        inst = BrbInstance(Label(0xFFFFFFFF, (1 << 64) - 1), 0xFFFFFFFF, 7, 2)
        assert inst.state_bytes() == reference_brb_state_bytes(inst)

    def test_empty_sets_several_values_and_pending_indications(self):
        inst = BrbInstance(Label(3, 9), 2, 7, 2)
        inst.echoed = inst.delivered = True
        inst.echo_senders = {5: set(), (1 << 64) - 1: {6, 0, 3}, 0: {0xFFFFFFFF}}
        inst.ready_senders = {7: {4}, 2: set()}
        inst._pending_indications = [b"", bytes(8)]
        assert inst.state_bytes() == reference_brb_state_bytes(inst)
        assert inst.clone().state_bytes() == inst.state_bytes()


OUT_OF_RANGE = {
    "label-originator": (Label(2**32, 0), Label.canonical_bytes, reference_label_bytes),
    "label-nonce": (Label(0, 2**64), Label.canonical_bytes, reference_label_bytes),
    "label-negative": (Label(-1, 0), Label.canonical_bytes, reference_label_bytes),
    "block-builder": (Block(2**32, 0, (), ()), Block.core_bytes, reference_block_core_bytes),
    "block-seqno": (Block(0, 2**64, (), ()), Block.core_bytes, reference_block_core_bytes),
    "block-request-label": (
        Block(0, 0, (), ((Label(0, 2**64), b""),)), Block.core_bytes, reference_block_core_bytes
    ),
    "wire-scheme": (Block(0, 0, (), (), Signature(256, b"")), block_to_wire, reference_block_wire),
    "broadcast": (2**64, encode_broadcast, reference_value_bytes),
    "broadcast-negative": (-1, encode_broadcast, reference_value_bytes),
    "deliver": (2**64, encode_deliver, reference_value_bytes),
    "payload-value": (2**64, partial(encode_payload, ECHO), partial(reference_payload_bytes, ECHO)),
    "brb-server": (
        BrbInstance(Label(0, 1), 2**32, 4, 1), BrbInstance.state_bytes, reference_brb_state_bytes
    ),
}


@pytest.mark.parametrize("name", list(OUT_OF_RANGE))
def test_a_packed_encoder_raises_encoding_error(name):
    """Each encoder that packs through a ``struct`` layout raises
    ``EncodingError``, not ``struct.error``, on a field out of its range, as
    the reference does."""
    value, encode, reference = OUT_OF_RANGE[name]
    with pytest.raises(EncodingError):
        encode(value)
    with pytest.raises(EncodingError):
        reference(value)
