"""Shim facade: request plumbing, cadence, indication self-filter."""

from __future__ import annotations

import pytest

from dagbft.blockdag import block_ref
from dagbft.brb import ReliableBroadcast, encode_broadcast
from dagbft.interpret import Indication
from dagbft.protocol import Label
from dagbft.shim import Shim

from .util import make_registry

L1 = Label(0, 1)


@pytest.fixture
def registry():
    return make_registry()


def make_shim(registry, server=0, **kwargs) -> Shim:
    return Shim(server, ReliableBroadcast(4, 1), registry, **kwargs)


class TestRequestPlumbing:
    def test_request_rides_the_next_block(self, registry):
        shim = make_shim(registry)
        shim.request(L1, encode_broadcast(42))
        envelopes = shim.tick(0)
        block = envelopes[0].block
        assert block.requests == ((L1, encode_broadcast(42)),)

    def test_ten_requests_split_eight_two(self, registry):
        shim = make_shim(registry)
        for i in range(10):
            shim.request(Label(0, i), encode_broadcast(i))
        first = shim.tick(0)[0].block
        second = shim.tick(3)[0].block
        assert len(first.requests) == 8
        assert len(second.requests) == 2

    def test_no_requests_gives_empty_block(self, registry):
        shim = make_shim(registry)
        block = shim.tick(0)[0].block
        assert block.requests == ()

    def test_each_request_in_exactly_one_block_fifo(self, registry):
        shim = make_shim(registry)
        for i in range(20):
            shim.request(Label(0, i), encode_broadcast(i))
        seen: list[int] = []
        for step in range(0, 12, 3):
            block = shim.tick(step)[0].block
            seen.extend(label.nonce for label, _ in block.requests)
        assert seen == list(range(20))


class TestCadence:
    def test_default_cadence_fires_every_third_step(self, registry):
        shim = make_shim(registry, cadence=3)
        fired = [now for now in range(10) if shim.tick(now)]
        assert fired == [0, 3, 6, 9]

    def test_cadence_one_fires_every_step(self, registry):
        shim = make_shim(registry, cadence=1)
        fired = [now for now in range(4) if shim.tick(now)]
        assert fired == [0, 1, 2, 3]

    def test_blocks_count_matches_dissemination_count(self, registry):
        shim = make_shim(registry, cadence=2)
        for now in range(8):
            shim.tick(now)
        assert len(shim.dag) == 4

    def test_cadence_must_be_positive(self, registry):
        with pytest.raises(ValueError):
            make_shim(registry, cadence=0)


class TestIndicationFilter:
    def test_own_indication_surfaces(self, registry):
        shim = make_shim(registry, server=0)
        ref = block_ref(shim.tick(0)[0].block)
        ind = Indication(ref, L1, 0, encode_broadcast(42))
        assert shim.filter_indication(ind)

    def test_foreign_indication_dropped(self, registry):
        shim = make_shim(registry, server=0)
        ref = block_ref(shim.tick(0)[0].block)
        ind = Indication(ref, L1, 2, encode_broadcast(42))
        assert not shim.filter_indication(ind)

    def test_poll_surfaces_only_own(self, registry):
        # single-node end to end: the shim's own broadcast comes back only on
        # its own behalf
        shim = make_shim(registry, server=0)
        shim.request(L1, encode_broadcast(7))
        for now in range(0, 13):
            shim.tick(now)
            shim.gossip.try_promote()
            shim.interpreter.run_to_fixpoint()
        # n=4 quorums cannot be met by one server alone: nothing delivers,
        # so there is nothing to surface and nothing foreign to drop
        assert shim.interpreter.take_indications() == []

    def test_pass_through_has_no_dedup(self, registry):
        shim = make_shim(registry, server=0)
        ref = block_ref(shim.tick(0)[0].block)
        ind = Indication(ref, L1, 0, encode_broadcast(42))
        assert shim.filter_indication(ind)
        assert shim.filter_indication(ind)  # shim does not deduplicate
