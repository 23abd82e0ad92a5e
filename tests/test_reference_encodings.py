"""The packed encodings against their spelled-out references in ``oracles``.

``Message`` packs its head in one call, ``BrbInstance.state_bytes`` joins one
list of parts and ``Interpreter.state_digest`` builds its material in one
join. These tests compare each with the field-by-field formula on every
slot of simulated runs, where the digest of a label the block never touched
is checked too, and on the edge cases of the fields.
"""

from __future__ import annotations

import pytest

from dagbft import simnet
from dagbft.brb import BrbInstance
from dagbft.crypto import EncodingError
from dagbft.protocol import Label, Message, message_from_canonical

from .oracles import reference_brb_state_bytes, reference_message_bytes, reference_state_digest
from .scenarios import adversarial_scenario, random_scenario

UNTOUCHED = Label(0, 1 << 40)  # no scenario injects it


def corpus():
    for i in range(40):
        yield f"random_{i}", random_scenario(i)
        yield f"adversarial_{i}", adversarial_scenario(i)


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
                assert m.canonical_bytes() == reference_message_bytes(*m)
                messages += 1
    assert digests > len(slots) and states and messages


class TestMessageEdgeCases:
    @pytest.mark.parametrize("payload", [b"", bytes(range(9))], ids=["empty", "nine"])
    @pytest.mark.parametrize("receiver", [0, 0xFFFFFFFF])
    @pytest.mark.parametrize("sender", [0, 0xFFFFFFFF])
    def test_extreme_fields_encode_as_the_reference(self, sender, receiver, payload):
        m = Message(sender, receiver, payload)
        assert m.canonical_bytes() == reference_message_bytes(sender, receiver, payload)
        assert message_from_canonical(m.canonical_bytes()) == m

    @pytest.mark.parametrize("bad", [-1, 1 << 32])
    def test_an_out_of_range_field_raises_encoding_error(self, bad):
        for fields in ((bad, 0, b""), (0, bad, b"")):
            with pytest.raises(EncodingError):
                Message(*fields)
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
