"""User-facing facade: request buffering, dissemination cadence, and the
self-filter on indications.

The shim queues requests on the gossip layer's FIFO, triggers dissemination
on a fixed step cadence, and forwards an indication to the user only when
the interpretation raised it on behalf of this very server.
"""

from __future__ import annotations

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
    ) -> None:
        if cadence < 1:
            raise ValueError("cadence must be at least 1")
        self.server = server
        self.cadence = cadence
        self.gossip = GossipNode(server, registry, fwd_interval=fwd_interval)
        self.dag = self.gossip.dag
        self.interpreter = Interpreter(self.dag, protocol)

    def request(self, label: Label, payload: bytes) -> None:
        """Queue a user request; it will ride in a later block of this server
        and eventually reach the local simulation."""
        self.gossip.requests.append((label, payload))

    def tick(self, now: int) -> list[WireEnvelope]:
        """Disseminate on the cadence (steps 0, c, 2c, ...); otherwise a
        no-op. Returns the envelopes to put on the wire."""
        if now % self.cadence != 0:
            return []
        _, envelopes = self.gossip.disseminate()
        return envelopes

    def filter_indication(self, indication: Indication) -> bool:
        """Whether ``indication`` surfaces to this server's user: only those
        raised on its own behalf do; foreign ones are dropped. The caller
        drains ``interpreter.take_indications()`` through it."""
        return indication.on_behalf_of == self.server
