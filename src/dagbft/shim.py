"""User-facing facade: request buffering, dissemination cadence, and the
self-filter on indications.

The shim owns the FIFO that feeds the gossip layer, triggers dissemination
on a fixed step cadence, and forwards an indication to the user only when
the interpretation raised it on behalf of this very server.
"""

from __future__ import annotations

from collections import deque

from .blockdag import BlockDag
from .gossip import GossipNode, WireEnvelope
from .interpret import Indication, Interpreter
from .protocol import Label, Protocol


class Shim:
    """Wires the request buffer, gossip, and interpretation for one server."""

    def __init__(
        self,
        server: int,
        protocol: Protocol,
        registry,
        *,
        cadence: int = 3,
        fwd_interval: int = 5,
        max_requests_per_block: int = 8,
        debug_checks: bool = False,
    ) -> None:
        if cadence < 1:
            raise ValueError("cadence must be at least 1")
        self.server = server
        self.cadence = cadence
        self.requests: deque[tuple[Label, bytes]] = deque()
        self.dag = BlockDag(server, registry)
        self.gossip = GossipNode(
            server,
            self.dag,
            self.requests,
            registry,
            fwd_interval=fwd_interval,
            max_requests_per_block=max_requests_per_block,
            debug_checks=debug_checks,
        )
        self.interpreter = Interpreter(self.dag, protocol, debug_checks=debug_checks)
        self.dropped_indications = 0

    def request(self, label: Label, payload: bytes) -> None:
        """Queue a user request; it will ride in a later block of this server
        and eventually reach the local simulation."""
        self.requests.append((label, payload))

    def tick(self, now: int) -> list[WireEnvelope]:
        """Disseminate on the cadence (steps 0, c, 2c, ...); otherwise a
        no-op. Returns the envelopes to put on the wire."""
        if now % self.cadence != 0:
            return []
        _, envelopes = self.gossip.disseminate()
        return envelopes

    def filter_indication(self, indication: Indication) -> bool:
        """Whether ``indication`` surfaces to this server's user: only those
        raised on its own behalf do; foreign ones are dropped and counted.
        The caller drains ``interpreter.take_indications()`` through it."""
        if indication.on_behalf_of == self.server:
            return True
        self.dropped_indications += 1
        return False
