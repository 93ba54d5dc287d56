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
        self._rebuild()

    def _rebuild(self) -> None:
        self.parent.clear()
        self.children.clear()
        stack: List[Node] = []
        for src in self.graph.sources:
            if src not in self.parent:
                self.parent[src] = None
                stack.append(src)
        while stack:
            node = stack.pop()
            for succ in self.graph.out_edges.get(node, ()):
                if succ not in self.parent:
                    self.parent[succ] = node
                    self.children.setdefault(node, set()).add(succ)
                    stack.append(succ)

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
        dirty: List[Node] = []
        for u, v in removed:
            if self.parent.get(v, _MISSING) == u:
                self.children.get(u, set()).discard(v)
                dirty.append(v)
        if dirty:
            self._repair(dirty)

    def _repair(self, roots: List[Node]) -> None:
        # Collect the detached region (subtrees of all orphaned roots).
        detached: Set[Node] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in detached:
                continue
            detached.add(node)
            stack.extend(self.children.get(node, ()))
        # Sources are roots by definition; never detached.
        detached -= {s for s in self.graph.sources}
        # Greedy re-attachment: a detached node with a surviving reachable
        # in-neighbor outside the region re-attaches, then pulls in every
        # detached node it can reach.
        for node in detached:
            p = self.parent.pop(node, _MISSING)
            if p is not _MISSING and p is not None:
                self.children.get(p, set()).discard(node)
            self.children.pop(node, None)
        # Children sets may still reference detached nodes from pruned
        # subtrees whose parents were also detached; those entries were
        # dropped with their owners above.
        attach_stack: List[Tuple[Node, Node]] = []
        for node in detached:
            for pred in self.graph.in_edges.get(node, ()):
                if pred in self.parent:
                    attach_stack.append((pred, node))
                    break
        while attach_stack:
            pred, node = attach_stack.pop()
            if node in self.parent:
                continue
            self.parent[node] = pred
            self.children.setdefault(pred, set()).add(node)
            for succ in self.graph.out_edges.get(node, ()):
                if succ in detached and succ not in self.parent:
                    attach_stack.append((node, succ))


_MISSING = object()
