"""Behaviour lock: the exact trace bytes of a fixed scenario corpus.

The determinism contract says equal scenarios give byte-identical traces;
this suite also pins *which* bytes, so that a refactor or optimisation of
the block intake, promotion or interpretation paths cannot change behaviour
unnoticed. The corpus covers every byzantine behaviour kind at both n=4 and
n=7. The generators in ``scenarios`` only give n=4 the EQUIVOCATE,
SELECTIVE_SEND and CRASH_AT kinds, so the other three are swapped into
n=4 adversarial scenarios.

A digest may change only with a deliberate change of behaviour; the new
value then comes from running the corpus on the new code.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from dagbft import simnet
from dagbft.simnet import BehaviorSpec

from .scenarios import adversarial_scenario, fig_broadcast_scenario, random_scenario

RANDOM_INDICES = (0, 1, 2, 3, 4, 5, 9, 33)
ADVERSARIAL_INDICES = (0, 1, 2, 3, 4, 5)
# n=4 base scenario index -> behaviour swapped in for its single adversary
SWAPPED_N4 = (("SILENT", 0), ("GARBAGE", 2), ("DUPLICATE_REFS", 4))


def corpus():
    yield "fig_broadcast", fig_broadcast_scenario()
    for i in RANDOM_INDICES:
        yield f"random_{i}", random_scenario(i)
    for i in ADVERSARIAL_INDICES:
        yield f"adversarial_{i}", adversarial_scenario(i)
    for kind, i in SWAPPED_N4:
        base = adversarial_scenario(i)
        ((server, _),) = base.byzantine
        yield f"adversarial_{i}_{kind}", replace(
            base, byzantine=((server, BehaviorSpec(kind)),)
        )


DIGESTS = {
    "fig_broadcast": "70fef83670c7f53b156dcbc3bc47afb9ef589937b0ac6dd866b64d167c859163",
    "random_0": "b8a02896efe10ebedbfd044830a896b4c0dde69081fc854477f81e69c94d8a89",
    "random_1": "46fae0e2ef18634c73db8ea7bfbe7e9e12b3d96fe1b2fa1e91d1e53106b83e9e",
    "random_2": "5edb180212054b071ac59bf27307317f3e590ca28eb3b8522533e2b765017568",
    "random_3": "a0ec6c5283b8a65d27e0b601e057565342230a21efa80e70737c8fb92edd22e4",
    "random_4": "bedb261d322d67fdab06d40d36bdb8a2ed3eafbd4010cd32a025d70ea7fd7dc6",
    "random_5": "56533fa90a3d932bb1a33e1d6c72b189c2d68857b5eaeb48c89b125652ec7631",
    "random_9": "c4abf42f107bbabd10ba920d538fbe0103aad20d5aac9e44a7ace4cb49a89e72",
    "random_33": "e2824934d6aca31b92232c95cd7b97f78b4afdae6c77f0633e53a14015c41c0e",
    "adversarial_0": "c25ddc8224c39910997b2df0eee7b96db303730cf3b62fc3654eb44ae4caa7ed",
    "adversarial_1": "feede4714a3599e3daafbd3ecfecebf197e7db960345b165eaf9034f9ab548af",
    "adversarial_2": "68b85a7d593ff28907a1dfae867f86bed0ae5447f4b57ffc8ee4e47b0027dce7",
    "adversarial_3": "b6d43090cdd7df3a2bad26605b776f0154bfb5c4660fe2dd8ac5355b90650148",
    "adversarial_4": "59f0ed1bc6a4b9075e4ba836f577010729eefe062743a7d7fe265047c45845c2",
    "adversarial_5": "2036c7716b7dc8657135aa5f3ae68ff0470aec90b0a1116782517c67dafce9b1",
    "adversarial_0_SILENT": "8b0f6f5d925cd1d14f2db46bad67c37651b086e1d66884aec95b411bee94c0e4",
    "adversarial_2_GARBAGE": "81c94e7471091d1ac205b2337b7982de9277d9c95a53b04751c7037cad6ff9d5",
    "adversarial_4_DUPLICATE_REFS": "1bec9209c0359a0adf3a358fa00a19df294371d89bbc7fd42d424db231a217d1",
}


def test_corpus_covers_every_behaviour_at_both_sizes():
    covered = {
        (scenario.n, spec.kind) for _, scenario in corpus() for _, spec in scenario.byzantine
    }
    expected = {(n, kind) for n in (4, 7) for kind in simnet.BEHAVIOR_KINDS}
    assert covered == expected
    assert set(DIGESTS) == {name for name, _ in corpus()}


@pytest.mark.parametrize("name", list(DIGESTS))
def test_trace_bytes_are_pinned(name):
    text = simnet.run(dict(corpus())[name]).trace_text()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
