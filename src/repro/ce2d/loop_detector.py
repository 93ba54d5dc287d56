"""Algorithm 3: consistent partial (early) loop detection (§4.3, App. D.3).

Key ideas reproduced:

* **Hyper-node compression** — every connected component of unsynchronised
  switches collapses into one hyper node that may forward anywhere, so
  unsynchronised behaviour is over-approximated without enumerating paths
  inside the component (Figure 5).
* **Incremental detection** — a new deterministic loop must pass through a
  newly synchronised node, so each flush only starts DFS there.  The search
  is demand-driven: an update that synchronises nobody looks nothing up,
  and otherwise a device's next hops are resolved per ``(device, EC)`` the
  first time the DFS stands on it with that EC still live (``docs/perf.md``,
  "CE2D checker cost").
* **Determinism** — a cycle whose segment contains only synchronised nodes
  exists in the converged state no matter what the rest of the network does
  (the consistency proof of Appendix D.4); a cycle through a hyper node is
  merely *potential*.

Explicit DROP actions terminate paths (footnote 9's "virtual switch").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.inverse_model import EcDelta, InverseModel
from ..dataplane.rule import next_hops_of
from ..network.topology import Topology
from ..results import LoopReport, Verdict
from ..telemetry import Telemetry


@dataclass(frozen=True, eq=False)
class _HyperNode:
    """A compressed connected component of unsynchronised switches.

    ``exits`` are the neighbors of the component outside it — synchronised
    switches or externals, since the component is maximal — i.e. everywhere
    the hyper node may forward.
    """

    members: FrozenSet[int]
    has_internal_cycle: bool
    exits: Tuple[int, ...]


class _DeterministicLoop(Exception):
    """Ends the search; ``args[0]`` is the cycle, first device repeated."""


class LoopDetector:
    """All-pair consistent early loop detection for one verifier."""

    def __init__(
        self,
        topology: Topology,
        use_hyper: bool = True,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.topology = topology
        # Ablation switch: without hyper-node compression, unsynchronised
        # devices are simply deleted from the graph (the "naive approach"
        # of §4.3 that misses early-detection opportunities).
        self.use_hyper = use_hyper
        self.telemetry = telemetry
        self.synced: Set[int] = set()
        self._switches: FrozenSet[int] = frozenset(topology.switches())
        self._unsynced: Set[int] = set(self._switches)
        self.verdict: Verdict = Verdict.UNKNOWN
        self.loop_path: Optional[List[int]] = None
        self.potential_loops: int = 0

    # ------------------------------------------------------------------
    def on_model_update(
        self,
        deltas: Sequence[EcDelta],
        new_synced: Iterable[int],
        model: InverseModel,
    ) -> LoopReport:
        if self.verdict is Verdict.VIOLATED:
            return self.report()
        fresh = sorted(set(new_synced) - self.synced)
        self.synced.update(fresh)
        self._unsynced.difference_update(fresh)
        self.potential_loops = 0
        # A new deterministic loop passes through a newly synchronised
        # device: with none, there is nothing to search and nothing to
        # look up.
        if fresh:
            search = _Search(self, [d.vector for d in deltas], model)
            searches = 0
            try:
                for start in fresh:
                    searches += 1
                    search.detect(start, range(len(deltas)))
            except _DeterministicLoop as loop:
                self.verdict = Verdict.VIOLATED
                self.loop_path = loop.args[0]
                return self.report()
            finally:
                self.potential_loops = search.potential_loops
                if self.telemetry is not None:
                    self.telemetry.count("ce2d.loop.searches", searches)
                    self.telemetry.count("ce2d.loop.lookups", search.lookups)
        if not self._unsynced:
            self.verdict = Verdict.SATISFIED
        return self.report()

    def report(self) -> LoopReport:
        return LoopReport(verdict=self.verdict, loop_path=self.loop_path)

    # ------------------------------------------------------------------
    def _compress(self) -> Dict[int, _HyperNode]:
        """Map unsynchronised switches to their hyper node."""
        neighbors = self.topology.neighbors
        hyper_of: Dict[int, _HyperNode] = {}
        for component in self.topology.connected_components(self._unsynced):
            members = frozenset(component)
            internal_links = 0
            exits: Dict[int, None] = {}  # insertion-ordered set
            for u in members:
                for v in neighbors(u):
                    if v in members:
                        internal_links += u < v
                    else:
                        exits[v] = None
            node = _HyperNode(
                members, internal_links >= len(members), tuple(exits)
            )
            for member in members:
                hyper_of[member] = node
        return hyper_of


class _Search:
    """One update's DFS: DetectLoop of Algorithm 3, next hops on demand.

    Live ECs travel as ascending index lists; a device's successors are
    taken in order of first appearance over its live ECs.
    """

    def __init__(
        self, detector: LoopDetector, vectors: List[int], model: InverseModel
    ) -> None:
        self.detector = detector
        self.vectors = vectors
        self.model = model
        self.hyper_of = detector._compress()
        # device → EC index → successors (devices, hyper nodes, externals),
        # filled the first time the DFS needs that pair.
        self.resolved: Dict[int, Dict[int, Tuple[object, ...]]] = {}
        self.lookups = 0
        self.potential_loops = 0
        self.path: List[object] = []
        self.on_path: Dict[object, int] = {}  # node → its index in path

    def _resolve(self, device: int, ec_index: int) -> Tuple[object, ...]:
        self.lookups += 1
        out = []
        action = self.model.action_of(self.vectors[ec_index], device)
        for hop in next_hops_of(action):
            if not self.detector.topology.has_link(device, hop):
                continue  # stale/foreign next hop: not a real edge
            hyper = self.hyper_of.get(hop)
            if hyper is None:
                out.append(hop)
            elif self.detector.use_hyper:
                out.append(hyper)
            # naive mode: drop unsynchronised nodes
        return tuple(out)

    def detect(self, node: object, ecs: Sequence[int]) -> None:
        """Raises :class:`_DeterministicLoop`; counts potential ones."""
        index = self.on_path.get(node)
        if isinstance(node, _HyperNode):
            if node.has_internal_cycle:
                self.potential_loops += 1
            if index is not None:
                self.potential_loops += 1
                return
            # A hyper node may forward to any neighbor of its component.
            successors: Dict[object, Sequence[int]] = dict.fromkeys(
                node.exits, ecs
            )
        elif node not in self.detector._switches:
            return  # external: delivered, no loop on this branch
        elif index is not None:
            segment = self.path[index:]
            if any(isinstance(p, _HyperNode) for p in segment):
                self.potential_loops += 1
                return
            raise _DeterministicLoop([*segment, node])
        else:
            known = self.resolved.setdefault(node, {})
            successors = {}
            for ec_index in ecs:
                hops = known.get(ec_index)
                if hops is None:
                    hops = known[ec_index] = self._resolve(node, ec_index)
                for succ in hops:
                    successors.setdefault(succ, []).append(ec_index)
        self.on_path[node] = len(self.path)
        self.path.append(node)
        for succ, live in successors.items():
            self.detect(succ, live)
        del self.on_path[self.path.pop()]
