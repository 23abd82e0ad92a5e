"""Deterministic BFT protocols embedded in a gossiped block DAG.

The block DAG acts as a reliable point-to-point link: servers exchange only
signed blocks, and every server locally replays the embedded protocol's
instances over the DAG, materializing the protocol messages without ever
sending them.
"""

from .blockdag import Block, BlockDag, BlockRef, block_ref
from .brb import ReliableBroadcast
from .crypto import KeyRegistry
from .interpret import Interpreter
from .protocol import Label, Message
from .shim import Shim
from .simnet import BehaviorSpec, RequestInjection, Scenario, run

__all__ = [
    "BehaviorSpec",
    "Block",
    "BlockDag",
    "BlockRef",
    "Interpreter",
    "KeyRegistry",
    "Label",
    "Message",
    "ReliableBroadcast",
    "RequestInjection",
    "Scenario",
    "Shim",
    "block_ref",
    "run",
]
