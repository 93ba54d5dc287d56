"""Decremental graph query (DGQ) — incremental reachability under deletions.

§4.2 observes that once a verification graph is built, synchronisation only
*removes* edges, so accept-reachability can be maintained decrementally
instead of re-traversed after every batch.  This module implements that
maintainer; ``benchmarks/bench_fig12_dgq.py`` times it against the full
traversal (the MT baseline) for Figures 12/18:

* a spanning forest of the reachable region, rooted at the sources;
* on deletion of a non-forest edge: O(1);
* on deletion of a forest edge: detach the subtree and re-attach greedily
  from surviving in-edges, marking what remains unreachable.

The asymptotics match the decremental-reachability literature the paper
cites in spirit: total work over all deletions is near-linear in practice
because every node is detached at most a few times.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .verification_graph import Node, VerificationGraph


class DgqReachability:
    """Maintains source-reachability of a VerificationGraph under pruning."""

    def __init__(self, graph: VerificationGraph) -> None:
        self.graph = graph
        self.parent: Dict[Node, Optional[Node]] = {}
        self.children: Dict[Node, Set[Node]] = {}
        self._build()

    def _build(self) -> None:
        """Breadth-first from the sources: a shallow forest, so a deletion
        detaches small subtrees."""
        parent, children = self.parent, self.children
        out_edges = self.graph.out_edges
        frontier: List[Node] = []
        for src in self.graph.sources:
            if src not in parent:
                parent[src] = None
                frontier.append(src)
        for node in frontier:  # grows while it is walked: a FIFO queue
            for succ in out_edges.get(node, ()):
                if succ not in parent:
                    parent[succ] = node
                    children.setdefault(node, set()).add(succ)
                    frontier.append(succ)

    def copy(self, graph: VerificationGraph) -> "DgqReachability":
        """This forest over ``graph``, a clone of this one's graph in the
        same pruning state: no traversal."""
        twin = DgqReachability.__new__(DgqReachability)
        twin.graph = graph
        twin.parent = dict(self.parent)
        twin.children = {n: set(c) for n, c in self.children.items()}
        return twin

    # -- queries -------------------------------------------------------------
    def accept_reachable(self) -> bool:
        return any(node in self.parent for node in self.graph.accepting)

    def reachable_accepting(self) -> Set[Node]:
        return {n for n in self.graph.accepting if n in self.parent}

    @property
    def num_reachable(self) -> int:
        return len(self.parent)

    # -- updates ------------------------------------------------------------
    def delete_edges(self, removed: Iterable[Tuple[Node, Node]]) -> None:
        """Process edges already removed from the underlying graph."""
        parent, children = self.parent, self.children
        dirty: List[Node] = []
        for u, v in removed:
            if parent.get(v, _MISSING) == u:
                children[u].discard(v)
                dirty.append(v)
        if dirty:
            self._repair(dirty)

    def _repair(self, roots: List[Node]) -> None:
        # Detach the orphaned subtrees in one pass.  A source is nobody's
        # child, so none is ever detached, and each node is reached once:
        # a root's parent edge is already gone from ``children``.
        parent, children = self.parent, self.children
        detached = roots
        for node in detached:  # grows while it is walked
            del parent[node]
            kids = children.pop(node, None)
            if kids:
                detached.extend(kids)
        # Re-attach: a detached node with a surviving reachable in-neighbor
        # hangs under it, then pulls in every unattached node it reaches.
        # Deletions only shrink reachability, so a node outside ``parent``
        # that a re-attached node reaches was detached here.
        in_edges, out_edges = self.graph.in_edges, self.graph.out_edges
        attach: List[Tuple[Node, Node]] = []
        for node in detached:
            for pred in in_edges[node]:
                if pred in parent:
                    attach.append((pred, node))
                    break
        while attach:
            pred, node = attach.pop()
            if node in parent:
                continue
            parent[node] = pred
            children.setdefault(pred, set()).add(node)
            for succ in out_edges[node]:
                if succ not in parent:
                    attach.append((node, succ))


_MISSING = object()
