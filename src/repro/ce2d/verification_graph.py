"""Verification graphs (§4.2): network × requirement product automata.

A verification graph ``G_P`` is the cross product of the network graph and
the requirement automaton for one (packet space, sources) pair.  Its nodes
are (device, automaton-state); it contains every path that starts at a
source and can still be extended to an accepting state.

During CE2D the graph is *decremental*: when a device synchronises, its
outgoing edges are pruned to the single behaviour of the EC being verified
(edges are removed, never added), so:

* the requirement is consistently **unsatisfied** once no accepting node is
  reachable at all;
* it is consistently **satisfied** once an accepting node is reachable
  through synchronised devices only.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..dataplane.rule import Action, next_hops_of
from ..network.topology import Topology
from ..spec.ast import SelectorContext
from ..spec.dfa import PathAutomaton

Node = Tuple[int, Hashable]  # (device id, automaton state)


class VerificationGraph:
    """One product graph with decremental edge pruning."""

    def __init__(
        self,
        topology: Topology,
        automaton: PathAutomaton,
        sources: Iterable[int],
        context: SelectorContext,
        max_nodes: int = 200_000,
    ) -> None:
        self.topology = topology
        self.automaton = automaton
        self.context = context
        self.sources: List[Node] = []
        self.out_edges: Dict[Node, Set[Node]] = {}
        self.in_edges: Dict[Node, Set[Node]] = {}
        self.accepting: Set[Node] = set()
        self._build(sources, max_nodes)
        # device → its product nodes, in ``out_edges`` order.  Pruning only
        # removes edges, so the node set never changes and clones share it.
        nodes_of: Dict[int, List[Node]] = {}
        for node in self.out_edges:
            nodes_of.setdefault(node[0], []).append(node)
        self.nodes_of: Dict[int, Tuple[Node, ...]] = {
            device: tuple(nodes) for device, nodes in nodes_of.items()
        }

    # -- construction -----------------------------------------------------
    def _build(self, sources: Iterable[int], max_nodes: int) -> None:
        start = self.automaton.start()
        frontier: List[Node] = []
        seen: Set[Node] = set()
        for src in sources:
            device = self.topology.device(src)
            state = self.automaton.step(start, device, self.context)
            if self.automaton.is_dead(state):
                continue
            node = (src, state)
            self.sources.append(node)
            if node not in seen:
                seen.add(node)
                frontier.append(node)
        while frontier:
            node = frontier.pop()
            device_id, state = node
            self.out_edges.setdefault(node, set())
            self.in_edges.setdefault(node, set())
            if self.automaton.accepting(state):
                self.accepting.add(node)
            for neighbor in self.topology.neighbors(device_id):
                nb_device = self.topology.device(neighbor)
                nb_state = self.automaton.step(state, nb_device, self.context)
                if self.automaton.is_dead(nb_state):
                    continue
                nb_node = (neighbor, nb_state)
                self.out_edges.setdefault(node, set()).add(nb_node)
                self.in_edges.setdefault(nb_node, set()).add(node)
                if nb_node not in seen:
                    if len(seen) >= max_nodes:
                        raise MemoryError(
                            "verification graph exceeds max_nodes; "
                            "tighten the requirement or partition the space"
                        )
                    seen.add(nb_node)
                    frontier.append(nb_node)
        for node in seen:
            self.out_edges.setdefault(node, set())
            self.in_edges.setdefault(node, set())

    # -- cloning ---------------------------------------------------------------
    def clone(self) -> "VerificationGraph":
        copy = VerificationGraph.__new__(VerificationGraph)
        copy.topology = self.topology
        copy.automaton = self.automaton
        copy.context = self.context
        copy.sources = list(self.sources)
        copy.out_edges = {n: set(e) for n, e in self.out_edges.items()}
        copy.in_edges = {n: set(e) for n, e in self.in_edges.items()}
        copy.accepting = set(self.accepting)
        copy.nodes_of = self.nodes_of
        return copy

    # -- decremental pruning ------------------------------------------------------
    def prune_device(self, device: int, action: Action) -> List[Tuple[Node, Node]]:
        """Restrict ``device``'s out-edges to the EC's actual next hops.

        Returns the removed edges (for the DGQ maintainer).
        """
        allowed = set(next_hops_of(action))
        removed: List[Tuple[Node, Node]] = []
        for node in self.nodes_of.get(device, ()):
            succs = self.out_edges[node]
            doomed = [s for s in succs if s[0] not in allowed]
            for succ in doomed:
                succs.discard(succ)
                self.in_edges[succ].discard(node)
                removed.append((node, succ))
        return removed

    # -- queries ---------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.out_edges)

    @property
    def num_edges(self) -> int:
        return sum(len(e) for e in self.out_edges.values())

    def accept_devices(self) -> Set[int]:
        return {d for d, _ in self.accepting}

    def reachable_from_sources(self) -> Set[Node]:
        """Plain BFS over the current (pruned) graph."""
        seen: Set[Node] = set(self.sources)
        stack = list(self.sources)
        while stack:
            node = stack.pop()
            for succ in self.out_edges.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def accept_reachable(self) -> bool:
        """Whether any accepting node is reachable (full traversal — the MT
        baseline of §5.4; use DgqReachability for the fast path)."""
        reached = self.reachable_from_sources()
        return any(node in reached for node in self.accepting)

    def synced_accept_search(
        self, synced: Set[int], virtual_ok: bool = True
    ) -> Optional[List[Node]]:
        """A source→accept path through synchronised devices only, or None.

        Virtual external nodes have no FIB and are always considered
        synchronised (they terminate paths).
        """

        def usable(node: Node) -> bool:
            device = node[0]
            if device in synced:
                return True
            return virtual_ok and self.topology.device(device).is_external

        parents: Dict[Node, Optional[Node]] = {}
        stack: List[Node] = []
        for src in self.sources:
            if usable(src) and src not in parents:
                parents[src] = None
                stack.append(src)
        while stack:
            node = stack.pop()
            if node in self.accepting:
                path = [node]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                return list(reversed(path))
            for succ in self.out_edges.get(node, ()):
                if succ not in parents and usable(succ):
                    parents[succ] = node
                    stack.append(succ)
        return None
