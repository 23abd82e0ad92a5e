"""Shared fixture builders for the test suite."""

from __future__ import annotations

from dagbft.blockdag import Block, BlockDag, BlockRef, block_ref
from dagbft.crypto import KeyRegistry
from dagbft.interpret import BlockInterpretation
from dagbft.protocol import Label, Message


def make_registry(n: int = 4, seed: int = 1) -> KeyRegistry:
    return KeyRegistry.generate(n, seed)


def signed_block(
    registry: KeyRegistry,
    builder: int,
    seqno: int,
    preds: tuple[BlockRef, ...] = (),
    requests: tuple[tuple[Label, bytes], ...] = (),
) -> Block:
    core = Block(builder, seqno, preds, requests)
    return core.with_signature(registry.sign(builder, block_ref(core)))


def buffers(
    reports: list[BlockInterpretation], ref: BlockRef, label: Label
) -> tuple[tuple[Message, ...], tuple[Message, ...]]:
    """The messages ``label`` was fed and emitted at block ``ref``, read from
    the one report on ``ref``; both empty when the block did not touch it."""
    (report,) = [r for r in reports if r.ref == ref]
    for act in report.labels:
        if act.label == label:
            return act.fed, act.emitted
    return (), ()


def indications(reports: list[BlockInterpretation]) -> list[tuple[int, bytes]]:
    """(builder, payload) per indication the reports carry, in report and
    label order: each is raised on behalf of its block's builder."""
    return [
        (report.builder, payload)
        for report in reports
        for act in report.labels
        for payload in act.indications
    ]


def fig_pair_dag(registry: KeyRegistry):
    """The canonical 3-block picture: two genesis blocks and a third block by
    the first builder referencing both."""
    b1 = signed_block(registry, 0, 0)
    b2 = signed_block(registry, 1, 0)
    b3 = signed_block(registry, 0, 1, (block_ref(b1), block_ref(b2)))
    dag = BlockDag(registry)
    dag.insert(b1)
    dag.insert(b2)
    dag.insert(b3)
    return dag, (b1, b2, b3)


def lockstep_dag(
    registry: KeyRegistry,
    n: int,
    rounds: int,
    requests_at: dict[tuple[int, int], tuple[tuple[Label, bytes], ...]] | None = None,
) -> tuple[BlockDag, dict[tuple[int, int], Block]]:
    """Fully synchronous rounds: in round k every server builds a block
    referencing its own round-(k-1) block first (the parent) and then every
    other server's round-(k-1) block. Round 0 blocks are genesis."""
    requests_at = requests_at or {}
    dag = BlockDag(registry)
    blocks: dict[tuple[int, int], Block] = {}
    for k in range(rounds):
        for s in range(n):
            if k == 0:
                preds: tuple[BlockRef, ...] = ()
            else:
                own = block_ref(blocks[(s, k - 1)])
                others = tuple(
                    block_ref(blocks[(o, k - 1)]) for o in range(n) if o != s
                )
                preds = (own,) + others
            block = signed_block(registry, s, k, preds, requests_at.get((s, k), ()))
            dag.insert(block)
            blocks[(s, k)] = block
    return dag, blocks
