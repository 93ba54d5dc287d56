"""Algorithm 3: consistent partial (early) loop detection (§4.3, App. D.3).

Key ideas reproduced:

* **Incremental detection** — a new deterministic loop must pass through a
  newly synchronised device, so an update starts DFS only there.  The
  search is demand-driven: an update that synchronises nobody reads
  neither its lineage nor the model, and otherwise the search runs over
  every EC of ``model.entries()``, a device's next hops looked up per
  ``(device, action vector)`` the first time any search of the epoch
  stands on it with that vector live, and kept while the vector is
  (``docs/perf.md``, "CE2D checker cost").
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

from ..core.inverse_model import InverseModel, Lineage, VecId
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
        # device → action vector → its linked next hops, kept across
        # updates: a vector id names one vector for good, so an entry never
        # goes stale, only dead.  Pruned to the live vectors before a search
        # whenever the EC table changed since the last one.
        self._hops: Dict[int, Dict[VecId, Tuple[int, ...]]] = {}
        self._table_changed = False

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
        if lineage:
            self._table_changed = True
        # A new deterministic loop passes through a newly synchronised
        # device: with none, there is nothing to search and nothing to
        # look up.
        if fresh:
            vectors = [vec for _, vec in model.entries()]
            if self._table_changed:
                self._table_changed = False
                live = set(vectors)
                pruned = {}
                for device, known in self._hops.items():
                    known = {v: hops for v, hops in known.items() if v in live}
                    if known:
                        pruned[device] = known
                self._hops = pruned
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
                self._hops.clear()  # no search runs again
                return self.report()
            finally:
                if self.telemetry is not None:
                    self.telemetry.count("ce2d.loop.searches", searches)
                    self.telemetry.count("ce2d.loop.lookups", search.lookups)
        if not self._unsynced:
            self.verdict = Verdict.SATISFIED
            self._hops.clear()  # nobody is left to synchronise
        return self.report()

    def report(self) -> LoopReport:
        return LoopReport(verdict=self.verdict, loop_path=self.loop_path)


class _Search:
    """One update's searches, next hops resolved on demand.

    Live ECs travel as ascending index lists; a device's successors are
    taken in order of first appearance over its live ECs.  A
    ``(device, vector)`` pair is looked up in the model once per epoch,
    whichever search first needs it, and kept in the detector's table;
    what a search sees of each hop is decided at walk time.
    """

    def __init__(
        self, detector: LoopDetector, vectors: List[VecId], model: InverseModel
    ) -> None:
        self.detector = detector
        self.vectors = vectors
        self.model = model
        self.lookups = 0  # misses of the detector's next-hop table
        # What the search sees of each device as a next hop; a device
        # missing here drops the hop.
        self.seen_as: Dict[int, object] = {}

    def run(self, start: int) -> None:
        """Raises :class:`_DeterministicLoop`."""
        raise NotImplementedError

    def _successors(self, device: int, ecs: Iterable[int]) -> Dict[object, List[int]]:
        known = self.detector._hops.get(device)
        if known is None:
            known = self.detector._hops[device] = {}
        vectors, seen_as = self.vectors, self.seen_as.get
        successors: Dict[object, List[int]] = {}
        for ec_index in ecs:
            vector = vectors[ec_index]
            hops = known.get(vector)
            if hops is None:
                hops = known[vector] = self._resolve(device, vector)
            for hop in hops:
                succ = seen_as(hop)
                if succ is not None:
                    successors.setdefault(succ, []).append(ec_index)
        return successors

    def _resolve(self, device: int, vector: VecId) -> Tuple[int, ...]:
        self.lookups += 1
        has_link = self.detector.topology.has_link
        out = []
        for hop in next_hops_of(self.model.action_of(vector, device)):
            if has_link(device, hop):  # else stale/foreign: not a real edge
                out.append(hop)
        return tuple(out)


class _SyncedSearch(_Search):
    """Does a fresh device reach itself over synchronised switches?

    Per EC this is plain reachability in that EC's forwarding graph, so
    each ``(device, EC)`` pair is walked once per start.
    """

    def __init__(
        self, detector: LoopDetector, vectors: List[VecId], model: InverseModel
    ) -> None:
        super().__init__(detector, vectors, model)
        walkable = detector._switches.difference(detector._unsynced)
        self.seen_as = {device: device for device in walkable}

    def run(self, start: int) -> None:
        if start not in self.seen_as:
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
        self, detector: LoopDetector, vectors: List[VecId], model: InverseModel
    ) -> None:
        super().__init__(detector, vectors, model)
        hyper_of = self._compress()
        self.seen_as = {
            device: hyper_of.get(device, device)
            for device in detector.topology.device_ids()
        }
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
