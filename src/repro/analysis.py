"""Operator-facing queries over a verified data plane.

The inverse model is "an efficient data structure for use cases such that
given the forwarding behavior, find the header spaces" (§3.1).  This module
packages the queries operators actually ask on top of a
:class:`~repro.core.model_manager.ModelWriter`:

* :func:`trace_header` — the hop-by-hop path of one concrete packet;
* :func:`find_blackholes` — header spaces a device drops while the
  requirement expects delivery;
* :func:`ec_summary` — the human-readable inverse model listing.

Which headers a source delivers to a destination is a serve query
(:class:`~repro.serve.queries.ReachabilityQuery`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from .bdd.predicate import Predicate
from .core.model_manager import ModelWriter
from .dataplane.rule import DROP, next_hops_of
from .network.topology import Topology


def _assignment(layout, values: Dict[str, int]) -> Dict[int, bool]:
    assignment: Dict[int, bool] = {}
    for name in layout.field_names():
        assignment.update(dict(layout.bits_of(name, values.get(name, 0))))
    return assignment


@dataclass
class HopTrace:
    """The forwarding trace of one concrete header."""

    path: List[int]
    outcome: str  # 'delivered', 'dropped', 'loop', 'budget'
    delivered_to: Optional[int] = None

    @property
    def looped(self) -> bool:
        return self.outcome == "loop"


def trace_header(
    manager: ModelWriter,
    topology: Topology,
    start: int,
    values: Dict[str, int],
    max_hops: int = 128,
) -> HopTrace:
    """Walk one header through the model from ``start``."""
    vec = manager.model.vector_for(_assignment(manager.layout, values))
    current = start
    path = [current]
    seen: Set[int] = set()
    for _ in range(max_hops):
        if topology.device(current).is_external:
            return HopTrace(path, "delivered", delivered_to=current)
        if current in seen:
            return HopTrace(path, "loop")
        seen.add(current)
        action = manager.model.action_of(vec, current)
        hops = next_hops_of(action)
        if not hops:
            return HopTrace(path, "dropped")
        current = hops[0]
        path.append(current)
    return HopTrace(path, "budget")


@dataclass
class Blackhole:
    """A device dropping traffic it should deliver."""

    device: int
    header_space: Predicate

    def headers(self) -> int:
        return self.header_space.sat_count()


def find_blackholes(
    manager: ModelWriter,
    topology: Topology,
    expected_delivered: Optional[Predicate] = None,
) -> List[Blackhole]:
    """Devices with a non-empty DROP space inside ``expected_delivered``."""
    engine = manager.engine
    scope = engine.true if expected_delivered is None else expected_delivered
    drops: Dict[int, Predicate] = {}
    for pred, vec in manager.model.entries():
        for device in topology.switches():
            action = manager.model.action_of(vec, device)
            if action == DROP or action is None:
                current = drops.get(device, engine.false)
                drops[device] = current | pred
    out = []
    for device, pred in sorted(drops.items()):
        inside = pred & scope
        if not inside.is_false:
            out.append(Blackhole(device, inside))
    return out


def ec_summary(
    manager: ModelWriter, topology: Topology, limit: int = 32
) -> List[str]:
    """Human-readable inverse model listing (biggest ECs first)."""
    rows = []
    entries = sorted(
        manager.model.entries(), key=lambda e: -e[0].sat_count()
    )
    for pred, vec in entries[:limit]:
        actions = {
            topology.name_of(d): manager.model.action_of(vec, d)
            for d in topology.switches()
        }
        rows.append(f"|EC|={pred.sat_count():>8}  {actions}")
    if len(entries) > limit:
        rows.append(f"... and {len(entries) - limit} more ECs")
    return rows

