"""Per-vector forwarding classifiers: what one EC's forwarding graph does.

An EC's action vector gives every switch one next-hop set, so a question
about the EC is a question about one small graph: does it hold a cycle,
does a walk from a source deliver, can a walk deliver without crossing a
waypoint.  ``repro.serve`` answers its loop, reachability and waypoint
queries by classifying each EC's vector with these functions.

Edge semantics (the CE2D verification graph's): ECMP actions fan out; a
hop exists only where the topology has the link; delivery is stepping
onto an external (virtual) node.  The brute-force oracle
(:mod:`repro.difftest.oracle`) keeps its own implementations of the same
semantics, written as plainly as possible, so the tests that compare the
two check these searches against code that shares nothing with them but
the definition.

Each search looks hops up in the topology's
:meth:`~repro.network.topology.Topology.forwarding_links` table, built
once per topology, instead of asking the topology per hop; the loop
search resolves each switch's successors once per vector.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Set

from ..dataplane.rule import Action, next_hops_of
from ..network.topology import Topology

ActionOf = Callable[[int], Action]


def forwarding_cycle(topology: Topology, action_of: ActionOf) -> bool:
    """Whether the forwarding graph over switches contains a cycle.

    Each switch's action is read once and cut down to the hops that stay
    inside the network; a switch left with none cannot lie on a cycle.
    Then Kahn's peel over the rest: repeatedly remove a switch no
    remaining switch forwards to, and a cycle is exactly what is never
    removed.
    """
    successors: Dict[int, Sequence[int]] = {}
    for node, (inward, _) in topology.forwarding_links().items():
        action = action_of(node)
        if action.__class__ is tuple:  # ECMP
            hops = [hop for hop in action if hop in inward]
            if hops:
                successors[node] = hops
        elif action in inward:  # one next hop; DROP is never a neighbour
            successors[node] = (action,)
    waiting = dict.fromkeys(successors, 0)
    for hops in successors.values():
        for hop in hops:
            if hop in waiting:
                waiting[hop] += 1
    ready = [node for node, count in waiting.items() if not count]
    left = len(waiting)
    while ready:
        left -= 1
        for hop in successors[ready.pop()]:
            if hop in waiting:
                waiting[hop] -= 1
                if not waiting[hop]:
                    ready.append(hop)
    return left > 0


def reaches_external(
    topology: Topology, action_of: ActionOf, source: int
) -> bool:
    """Whether *some* forwarding walk from ``source`` delivers externally."""
    return _delivers(topology, action_of, source, None)


def reaches_external_avoiding(
    topology: Topology, action_of: ActionOf, source: int, waypoint: int
) -> bool:
    """Whether some walk from ``source`` delivers *without* touching
    ``waypoint`` — the bypass witness of a waypoint requirement.

    Walks may never enter the waypoint, and a walk starting *at* the
    waypoint trivially traverses it.
    """
    if source == waypoint:
        return False
    return _delivers(topology, action_of, source, waypoint)


def _delivers(
    topology: Topology, action_of: ActionOf, source: int, avoid: Optional[int]
) -> bool:
    if topology.device(source).is_external:
        return True
    links = topology.forwarding_links()
    seen: Set[int] = {source}
    stack = [source]
    while stack:
        node = stack.pop()
        inward, outward = links[node]
        for hop in next_hops_of(action_of(node)):
            if hop == avoid:
                continue
            if hop in outward:
                return True
            if hop in inward and hop not in seen:
                seen.add(hop)
                stack.append(hop)
    return False


__all__ = ["forwarding_cycle", "reaches_external", "reaches_external_avoiding"]
