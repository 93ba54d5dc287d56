"""Algorithm 3: consistent partial (early) loop detection (§4.3, App. D.3).

Key ideas reproduced:

* **Incremental detection** — a new deterministic loop must pass through a
  newly synchronised device, so an update starts DFS only there.  The
  search is demand-driven: an update that synchronises nobody reads
  neither its lineage nor the model, and otherwise the search runs over
  every EC of ``model.entries()``, a device's next hops resolved per
  ``(device, EC)`` the first time a search stands on it with that EC
  still live (``docs/perf.md``, "CE2D checker cost").
* **Determinism** — a cycle whose segment contains only synchronised nodes
  exists in the converged state no matter what the rest of the network does
  (the consistency proof of Appendix D.4).
* **Hyper-node compression** — every connected component of unsynchronised
  switches collapses into one hyper node that may forward anywhere, so
  unsynchronised behaviour is over-approximated without enumerating paths
  inside the component (Figure 5); a cycle through a hyper node is merely
  *potential*.

Two searches implement this.  While no synchronised device's column has
changed since it synchronised, a deterministic loop that avoids every
fresh device was already reported when its last member synchronised, so
a search from a fresh device walks synchronised switches only, visits each
``(device, EC)`` once, and reports a loop exactly when the device reaches
itself.  That holds under :class:`~repro.ce2d.dispatcher.CE2DDispatcher`,
which retires an epoch before any of its synchronised devices can report
another tag, so a lineage-only call (``new_synced == ()``) never changes a
synchronised column.  A same-tag re-report does change one; from the
first, the detector searches with the hyper-node DFS for the rest of its
life.

Explicit DROP actions terminate paths (footnote 9's "virtual switch").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.inverse_model import InverseModel, Lineage
from ..dataplane.rule import next_hops_of
from ..network.topology import Topology
from ..results import LoopReport, Verdict
from ..telemetry import Telemetry


class _HyperNode:
    """A compressed connected component of unsynchronised switches.

    ``exits`` are the neighbors of the component outside it — synchronised
    switches or externals, since the component is maximal — i.e. everywhere
    the hyper node may forward.
    """

    __slots__ = ("exits",)

    def __init__(self, exits: Tuple[int, ...]) -> None:
        self.exits = exits


class _DeterministicLoop(Exception):
    """Ends the search; ``args[0]`` is the cycle, first device repeated."""


class LoopDetector:
    """All-pair consistent early loop detection for one verifier."""

    def __init__(
        self, topology: Topology, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.topology = topology
        self.telemetry = telemetry
        self.synced: Set[int] = set()
        self._switches: FrozenSet[int] = frozenset(topology.switches())
        self._unsynced: Set[int] = set(self._switches)
        self.verdict: Verdict = Verdict.UNKNOWN
        self.loop_path: Optional[List[int]] = None
        # Set by the first same-tag re-report: a synchronised column may
        # have changed since it synchronised, so the fresh-device search
        # is no longer exact.
        self._rereported = False

    # ------------------------------------------------------------------
    def on_model_update(
        self,
        lineage: Lineage,
        new_synced: Iterable[int],
        model: InverseModel,
    ) -> LoopReport:
        if self.verdict is Verdict.VIOLATED:
            return self.report()
        named = set(new_synced)
        fresh = sorted(named - self.synced)
        if len(fresh) < len(named):
            self._rereported = True
        self.synced.update(fresh)
        self._unsynced.difference_update(fresh)
        # A new deterministic loop passes through a newly synchronised
        # device: with none, there is nothing to search and nothing to
        # look up.
        if fresh:
            vectors = [vec for _, vec in model.entries()]
            if self._rereported:
                search: _Search = _HyperSearch(self, vectors, model)
            else:
                search = _SyncedSearch(self, vectors, model)
            searches = 0
            try:
                for start in fresh:
                    searches += 1
                    search.run(start)
            except _DeterministicLoop as loop:
                self.verdict = Verdict.VIOLATED
                self.loop_path = loop.args[0]
                return self.report()
            finally:
                if self.telemetry is not None:
                    self.telemetry.count("ce2d.loop.searches", searches)
                    self.telemetry.count("ce2d.loop.lookups", search.lookups)
        if not self._unsynced:
            self.verdict = Verdict.SATISFIED
        return self.report()

    def report(self) -> LoopReport:
        return LoopReport(verdict=self.verdict, loop_path=self.loop_path)


class _Search:
    """One update's searches, next hops resolved on demand.

    Live ECs travel as ascending index lists; a device's successors are
    taken in order of first appearance over its live ECs.  A
    ``(device, EC)`` pair is resolved once per update, whichever start
    first needs it.
    """

    def __init__(
        self, detector: LoopDetector, vectors: List[int], model: InverseModel
    ) -> None:
        self.detector = detector
        self.vectors = vectors
        self.model = model
        # device → EC index → successors, filled the first time a search
        # needs that pair.
        self.resolved: Dict[int, Dict[int, Tuple[object, ...]]] = {}
        self.lookups = 0

    def run(self, start: int) -> None:
        """Raises :class:`_DeterministicLoop`."""
        raise NotImplementedError

    def _node(self, hop: int) -> Optional[object]:
        """What the search sees of a linked next hop; None drops it."""
        raise NotImplementedError

    def _successors(self, device: int, ecs: Iterable[int]) -> Dict[object, List[int]]:
        known = self.resolved.get(device)
        if known is None:
            known = self.resolved[device] = {}
        successors: Dict[object, List[int]] = {}
        for ec_index in ecs:
            hops = known.get(ec_index)
            if hops is None:
                hops = known[ec_index] = self._resolve(device, ec_index)
            for succ in hops:
                successors.setdefault(succ, []).append(ec_index)
        return successors

    def _resolve(self, device: int, ec_index: int) -> Tuple[object, ...]:
        self.lookups += 1
        has_link = self.detector.topology.has_link
        out = []
        action = self.model.action_of(self.vectors[ec_index], device)
        for hop in next_hops_of(action):
            if not has_link(device, hop):
                continue  # stale/foreign next hop: not a real edge
            node = self._node(hop)
            if node is not None:
                out.append(node)
        return tuple(out)


class _SyncedSearch(_Search):
    """Does a fresh device reach itself over synchronised switches?

    Per EC this is plain reachability in that EC's forwarding graph, so
    each ``(device, EC)`` pair is walked once per start.
    """

    def __init__(
        self, detector: LoopDetector, vectors: List[int], model: InverseModel
    ) -> None:
        super().__init__(detector, vectors, model)
        self.walkable = detector._switches.difference(detector._unsynced)

    def _node(self, hop: int) -> Optional[object]:
        return hop if hop in self.walkable else None

    def run(self, start: int) -> None:
        if start not in self.walkable:
            return  # an external: it forwards nowhere
        seen: Dict[int, Set[int]] = {}  # device → EC indices walked there
        path = [start]

        def walk(device: int, ecs: Iterable[int]) -> None:
            for succ, live in self._successors(device, ecs).items():
                if succ == start:
                    raise _DeterministicLoop([*path, start])
                done = seen.get(succ)
                if done is None:
                    done = seen[succ] = set()
                new = [e for e in live if e not in done]
                if new:
                    done.update(new)
                    path.append(succ)
                    walk(succ, new)
                    path.pop()

        walk(start, range(len(self.vectors)))


class _HyperSearch(_Search):
    """DetectLoop of Algorithm 3 over hyper nodes, every simple path."""

    def __init__(
        self, detector: LoopDetector, vectors: List[int], model: InverseModel
    ) -> None:
        super().__init__(detector, vectors, model)
        self.hyper_of = self._compress()
        self.path: List[object] = []
        self.on_path: Dict[object, int] = {}  # node → its index in path

    def _compress(self) -> Dict[int, _HyperNode]:
        """Map unsynchronised switches to their hyper node."""
        topology = self.detector.topology
        hyper_of: Dict[int, _HyperNode] = {}
        for component in topology.connected_components(self.detector._unsynced):
            members = frozenset(component)
            exits: Dict[int, None] = {}  # insertion-ordered set
            for u in members:
                for v in topology.neighbors(u):
                    if v not in members:
                        exits[v] = None
            node = _HyperNode(tuple(exits))
            for member in members:
                hyper_of[member] = node
        return hyper_of

    def _node(self, hop: int) -> Optional[object]:
        return self.hyper_of.get(hop, hop)

    def run(self, start: int) -> None:
        self._detect(start, range(len(self.vectors)))

    def _detect(self, node: object, ecs: Sequence[int]) -> None:
        index = self.on_path.get(node)
        if isinstance(node, _HyperNode):
            if index is not None:
                return  # a potential loop only
            # A hyper node may forward to any neighbor of its component.
            successors: Dict[object, Sequence[int]] = dict.fromkeys(
                node.exits, ecs
            )
        elif node not in self.detector._switches:
            return  # external: delivered, no loop on this branch
        elif index is not None:
            segment = self.path[index:]
            if any(isinstance(p, _HyperNode) for p in segment):
                return  # a potential loop only
            raise _DeterministicLoop([*segment, node])
        else:
            successors = self._successors(node, ecs)
        self.on_path[node] = len(self.path)
        self.path.append(node)
        for succ, live in successors.items():
            self._detect(succ, live)
        del self.on_path[self.path.pop()]
