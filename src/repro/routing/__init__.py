"""Routing substrate: discrete-event OpenR-like link-state simulation."""

from .events import EventLoop
from .linkstate import KvStore, LinkState, link_key
from .openr import FibBatch, OpenRNode, OpenRSimulation, PrefixOwner

__all__ = [
    "EventLoop",
    "KvStore",
    "LinkState",
    "link_key",
    "FibBatch",
    "OpenRNode",
    "OpenRSimulation",
    "PrefixOwner",
]
