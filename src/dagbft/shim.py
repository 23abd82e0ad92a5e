"""User-facing facade: request buffering, dissemination cadence, and the
self-filter on indications.

The shim queues requests on the gossip layer's FIFO, triggers dissemination
on a fixed step cadence, and surfaces a block's indications to the user
only when the block is this very server's own: the interpretation raised
them on its behalf.
"""

from __future__ import annotations

from .gossip import GossipNode, WireEnvelope
from .interpret import BlockInterpretation, Interpreter
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
        shared: dict | None = None,
    ) -> None:
        if cadence < 1:
            raise ValueError("cadence must be at least 1")
        self.server = server
        self.cadence = cadence
        self.gossip = GossipNode(server, registry, fwd_interval=fwd_interval)
        self.dag = self.gossip.dag
        self.interpreter = Interpreter(self.dag, protocol, shared)

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

    def surfaces(self, report: BlockInterpretation) -> bool:
        """Whether the indications in ``report`` surface to this server's
        user: only those of its own blocks, raised on its own behalf, do;
        foreign ones are dropped."""
        return report.builder == self.server
