"""Hand-forged traces for the negative checker fixtures.

The base trace is consistent: server 0's genesis block emits one echo and
server 1's chain consumes it. Each forgery perturbs exactly one thing so the
corresponding checker must flag exactly one violation. The convergence
forgeries at the end pin the pair semantics and the report order.
"""

from __future__ import annotations

from dagbft import trace
from dagbft.brb import encode_payload
from dagbft.protocol import Label, Message
from dagbft.simnet import BehaviorSpec, RequestInjection, Scenario

X, Y, Z, W, V = "aa" * 32, "bb" * 32, "cc" * 32, "dd" * 32, "ee" * 32


def msg_hex(sender: int, receiver: int, value: int = 42, kind: int = 1) -> str:
    return Message(sender, receiver, encode_payload(kind, value)).canonical_bytes().hex()


def forged_base() -> tuple[Scenario, list[dict]]:
    scenario = Scenario(
        n=4,
        f=1,
        seed=0,
        max_steps=3,
        requests=(RequestInjection(0, 0, Label(0, 1), 42),),
    )
    events = [
        trace.event(0, "INSERT", server=1, ref=X, builder=0, seqno=0, preds=[], requests=[[0, 1, "2a" * 8]]),
        trace.event(0, "INSERT", server=1, ref=Y, builder=1, seqno=0, preds=[], requests=[]),
        trace.event(
            0,
            "INTERPRET",
            server=1,
            ref=X,
            builder=0,
            labels=[
                {
                    "label": [0, 1],
                    "fed": [],
                    "emitted": [msg_hex(0, r) for r in range(4)],
                    "state": "11" * 32,
                    "skipped": 0,
                }
            ],
        ),
        trace.event(0, "INTERPRET", server=1, ref=Y, builder=1, labels=[]),
        trace.event(1, "INSERT", server=1, ref=Z, builder=1, seqno=1, preds=[Y, X], requests=[]),
        trace.event(
            1,
            "INTERPRET",
            server=1,
            ref=Z,
            builder=1,
            labels=[
                {
                    "label": [0, 1],
                    "fed": [msg_hex(0, 1)],
                    "emitted": [msg_hex(1, r) for r in range(4)],
                    "state": "22" * 32,
                    "skipped": 0,
                }
            ],
        ),
    ]
    return scenario, events


def forged_duplicate() -> tuple[Scenario, list[dict]]:
    """Server 1 references block X twice along its chain: the echo from X is
    fed a second time (one no-duplication violation)."""
    scenario, events = forged_base()
    events.append(
        trace.event(2, "INSERT", server=1, ref=W, builder=1, seqno=2, preds=[Z, X], requests=[])
    )
    events.append(
        trace.event(
            2,
            "INTERPRET",
            server=1,
            ref=W,
            builder=1,
            labels=[
                {
                    "label": [0, 1],
                    "fed": [msg_hex(0, 1), msg_hex(1, 1)],
                    "emitted": [],
                    "state": "33" * 32,
                    "skipped": 0,
                }
            ],
        )
    )
    return scenario, events


def forged_unsigned_origin() -> tuple[Scenario, list[dict]]:
    """An in-buffer claims a message from sender 2 although no referenced
    block of builder 2 emitted it (one authenticity violation)."""
    scenario, events = forged_base()
    events.append(
        trace.event(2, "INSERT", server=1, ref=W, builder=1, seqno=2, preds=[Z], requests=[])
    )
    events.append(
        trace.event(
            2,
            "INTERPRET",
            server=1,
            ref=W,
            builder=1,
            labels=[
                {
                    "label": [0, 1],
                    "fed": [msg_hex(1, 1), msg_hex(2, 1)],
                    "emitted": [],
                    "state": "33" * 32,
                    "skipped": 0,
                }
            ],
        )
    )
    return scenario, events


def forged_byzantine_refeed() -> tuple[Scenario, list[dict]]:
    """Byzantine server 3's echo reaches server 1 through block V twice: both
    Z and W reference V, and both feed the echo (one no-duplication
    violation that names V as the repeated origin block)."""
    scenario = Scenario(
        n=4,
        f=1,
        seed=0,
        max_steps=3,
        byzantine=((3, BehaviorSpec("SILENT")),),
        requests=(RequestInjection(0, 0, Label(0, 1), 42),),
    )
    echo = {"label": [0, 1], "fed": [msg_hex(3, 1)], "emitted": [], "state": "44" * 32, "skipped": 0}
    events = [
        trace.event(0, "INSERT", server=1, ref=V, builder=3, seqno=0, preds=[], requests=[]),
        trace.event(
            0,
            "INTERPRET",
            server=1,
            ref=V,
            builder=3,
            labels=[
                {
                    "label": [0, 1],
                    "fed": [],
                    "emitted": [msg_hex(3, r) for r in range(4)],
                    "state": "33" * 32,
                    "skipped": 0,
                }
            ],
        ),
        trace.event(1, "INSERT", server=1, ref=Z, builder=1, seqno=0, preds=[V], requests=[]),
        trace.event(1, "INTERPRET", server=1, ref=Z, builder=1, labels=[echo]),
        trace.event(2, "INSERT", server=1, ref=W, builder=1, seqno=1, preds=[Z, V], requests=[]),
        trace.event(2, "INTERPRET", server=1, ref=W, builder=1, labels=[echo]),
    ]
    return scenario, events


def _insert(step: int, server: int, ref: str, builder: int, preds: list[str]) -> dict:
    return trace.event(
        step, "INSERT", server=server, ref=ref, builder=builder, seqno=0, preds=preds, requests=[]
    )


def forged_cross_edge() -> tuple[Scenario, list[dict]]:
    """Server 0's snapshot holds X, server 2's holds Y, and neither fails on
    its own; but server 1's final DAG has the edge X -> Y, which the union of
    the two snapshots lacks (two convergence violations, one per ordered
    pair)."""
    scenario = Scenario(n=4, f=1, seed=0, max_steps=3, snapshot_steps=(1,))
    events = [
        _insert(0, 0, X, 0, []),
        _insert(0, 2, Y, 2, []),
        _insert(2, 0, Y, 2, []),
        _insert(2, 2, X, 0, []),
        _insert(2, 1, X, 0, []),
        _insert(2, 1, Y, 2, [X]),
    ]
    return scenario, events


def forged_partitioned() -> tuple[Scenario, list[dict]]:
    """Server 0 never receives server 1's block Y, and server 1 records Y's
    edge from X before it holds X: unions that hold Y fail at server 0, and
    unions that hold X and Y without that edge fail at server 1 (several
    convergence violations, reported in pair order s1, s2, t1, t2, target)."""
    scenario = Scenario(n=4, f=1, seed=0, max_steps=4, snapshot_steps=(1, 2))
    events = [
        _insert(0, 0, X, 0, []),
        _insert(0, 1, Y, 1, [X]),
        _insert(2, 1, X, 0, []),
    ]
    return scenario, events
