"""Algorithm 2: consistent partial verification of regex requirements.

The verifier keeps one verification graph per equivalence class (the
``ecTable`` of Appendix D.2).  On every model update it:

1. duplicates the parent graph for ECs that split (provenance comes from
   :class:`~repro.core.inverse_model.EcDelta`);
2. prunes the edges of newly synchronised devices to the EC's actions;
3. queries reachability decrementally (DGQ).

Verdict semantics (§4.2): once no accepting node is reachable the
requirement is consistently **violated** for that EC; once an accepting node
is reachable through synchronised devices only it is consistently
**satisfied**; otherwise unknown.  Anycast/multicast/cover variants follow
Appendix D.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Set

from ..bdd.predicate import Predicate
from ..core.inverse_model import EcDelta, InverseModel
from ..dataplane.rule import next_hops_of
from ..errors import SpecError
from ..headerspace.fields import HeaderLayout
from ..headerspace.match import MatchCompiler
from ..network.topology import Topology
from ..spec.requirement import Multiplicity, Requirement
from .reachability import DgqReachability
from ..results import Verdict, VerificationReport
from .verification_graph import VerificationGraph


def requirement_graph(
    requirement: Requirement, topology: Topology, layout: HeaderLayout
) -> VerificationGraph:
    """The requirement's verification graph before any device prunes it."""
    return VerificationGraph(
        topology,
        requirement.automaton(),
        requirement.sources,
        requirement.selector_context(topology, layout),
    )


@dataclass
class _EcEntry:
    graph: VerificationGraph
    reach: DgqReachability
    verdict: Verdict
    # The handle behind this entry's key: while it is held, the engine
    # cannot recycle the node id for another predicate.
    predicate: Predicate


class RegexVerifier:
    """One requirement's CE2D state across all equivalence classes."""

    def __init__(
        self,
        requirement: Requirement,
        topology: Topology,
        layout: HeaderLayout,
        compiler: MatchCompiler,
        universe: Optional[Predicate] = None,
        graph: Optional[VerificationGraph] = None,
    ) -> None:
        if requirement.is_cover:
            raise SpecError("cover requirements use CoverVerifier")
        self.requirement = requirement
        self.topology = topology
        self.layout = layout
        self.compiler = compiler
        self.space = compiler.compile(requirement.packet_space)
        self.synced: Set[int] = set()
        # The requirement's unpruned graph: read only, every entry prunes
        # a clone, so one graph can serve every verifier of the requirement.
        if graph is None:
            graph = requirement_graph(requirement, topology, layout)
        self._template = graph
        self._graph_switches = frozenset(
            d for d in graph.nodes_of if not topology.device(d).is_external
        )
        # ecTable: predicate node id → entry.  Starts with the verifier's
        # universe (the whole space, or the subspace being verified).
        initial = compiler.engine.true if universe is None else universe
        self._table: Dict[int, _EcEntry] = {
            initial.node: self._entry(graph.clone(), initial)
        }
        # Predicate nodes known to miss the packet space (node → pinning
        # handle).  With _table's keys — all inside it — this is what one
        # update learns about the space and the next need not re-derive;
        # both are rebuilt from each update's deltas.
        self._outside: Dict[int, Predicate] = (
            {} if initial.intersects(self.space) else {initial.node: initial}
        )

    def _entry(self, graph: VerificationGraph, predicate: Predicate) -> _EcEntry:
        return _EcEntry(
            graph, DgqReachability(graph), Verdict.UNKNOWN, predicate
        )

    # ------------------------------------------------------------------
    def on_model_update(
        self,
        deltas: Sequence[EcDelta],
        new_synced: Iterable[int],
        model: InverseModel,
    ) -> VerificationReport:
        """Consume one flush's EC deltas (Algorithm 2's main loop)."""
        fresh = [d for d in new_synced if d not in self.synced]
        self.synced.update(fresh)
        next_table: Dict[int, _EcEntry] = {}
        next_outside: Dict[int, Predicate] = {}
        for delta in deltas:
            node = delta.predicate.node
            entry = self._table.get(node)
            if node in self._outside or (
                entry is None and not delta.predicate.intersects(self.space)
            ):
                next_outside[node] = delta.predicate
                continue
            if entry is None:
                parent = self._table.get(delta.origin.node)
                if parent is None:
                    # EC born outside our table (e.g. after merges): start
                    # from the template pruned by all synced devices so far.
                    entry = self._entry(self._template.clone(), delta.predicate)
                    for device in self.synced:
                        removed = entry.graph.prune_device(
                            device, model.action_of(delta.vector, device)
                        )
                        entry.reach.delete_edges(removed)
                else:
                    entry = self._entry(parent.graph.clone(), delta.predicate)
            if entry.verdict is Verdict.UNKNOWN:
                for device in fresh:
                    removed = entry.graph.prune_device(
                        device, model.action_of(delta.vector, device)
                    )
                    entry.reach.delete_edges(removed)
                entry.verdict = self._judge(entry)
            next_table[node] = entry
        self._table = next_table
        self._outside = next_outside
        return self.report()

    def _judge(self, entry: _EcEntry) -> Verdict:
        reachable = entry.reach.reachable_accepting()
        return self._verdict_from_reachability(entry, reachable)

    def _verdict_from_reachability(
        self, entry: _EcEntry, reachable
    ) -> Verdict:
        mult = self.requirement.multiplicity
        accept_devices = entry.graph.accept_devices()
        reachable_devices = {d for d, _ in reachable}
        if mult is Multiplicity.UNICAST:
            if not reachable:
                return Verdict.VIOLATED
            if self._synced_path(entry) is not None:
                return Verdict.SATISFIED
            return Verdict.UNKNOWN
        if mult is Multiplicity.MULTICAST:
            # Every destination must stay reachable.
            if reachable_devices != accept_devices:
                return Verdict.VIOLATED
            if self._graph_switches <= self.synced:
                return Verdict.SATISFIED
            return Verdict.UNKNOWN
        if mult is Multiplicity.ANYCAST:
            # Exactly one destination may remain reachable in the end.
            if not reachable_devices:
                return Verdict.VIOLATED
            if self._graph_switches <= self.synced:
                return (
                    Verdict.SATISFIED
                    if len(reachable_devices) == 1
                    else Verdict.VIOLATED
                )
            return Verdict.UNKNOWN
        raise SpecError(f"unsupported multiplicity {mult}")

    def _synced_path(self, entry: _EcEntry):
        return entry.graph.synced_accept_search(self.synced)

    # ------------------------------------------------------------------
    def report(self) -> VerificationReport:
        """Aggregate the per-EC verdicts into one requirement verdict."""
        verdicts = [e.verdict for e in self._table.values()]
        if any(v is Verdict.VIOLATED for v in verdicts):
            verdict = Verdict.VIOLATED
        elif verdicts and all(v is Verdict.SATISFIED for v in verdicts):
            verdict = Verdict.SATISFIED
        else:
            verdict = Verdict.UNKNOWN
        return VerificationReport(
            requirement=self.requirement.name,
            verdict=verdict,
            detail=f"{len(self._table)} ECs in space",
        )

    @property
    def num_graphs(self) -> int:
        return len(self._table)


class CoverVerifier:
    """Coverage requirements (App. D.2): ALL paths of the set must exist.

    Early detection: a synchronised device whose FIB omits one of its
    verification-graph successors breaks coverage immediately; coverage is
    consistently satisfied once every device in the graph is synchronised
    without a miss.
    """

    def __init__(
        self,
        requirement: Requirement,
        topology: Topology,
        layout: HeaderLayout,
        compiler: MatchCompiler,
        graph: Optional[VerificationGraph] = None,
    ) -> None:
        if not requirement.is_cover:
            raise SpecError("CoverVerifier needs a cover requirement")
        self.requirement = requirement
        self.topology = topology
        self.layout = layout
        self.compiler = compiler
        self.space = compiler.compile(requirement.packet_space)
        self.synced: Set[int] = set()
        # Read only, like RegexVerifier's template.
        self.graph = (
            requirement_graph(requirement, topology, layout)
            if graph is None
            else graph
        )
        self._violated: Optional[str] = None

    def on_model_update(
        self,
        deltas: Sequence[EcDelta],
        new_synced: Iterable[int],
        model: InverseModel,
    ) -> VerificationReport:
        fresh = [d for d in new_synced if d not in self.synced]
        for delta in deltas:
            if not delta.predicate.intersects(self.space):
                continue
            for device in fresh:
                required = {
                    succ[0]
                    for node in self.graph.nodes_of.get(device, ())
                    for succ in self.graph.out_edges[node]
                }
                if not required:
                    continue
                actual = set(next_hops_of(model.action_of(delta.vector, device)))
                missing = required - actual
                if missing:
                    self._violated = (
                        f"device {self.topology.name_of(device)} misses "
                        f"next hops {sorted(missing)}"
                    )
        self.synced.update(fresh)
        return self.report()

    def report(self) -> VerificationReport:
        if self._violated:
            verdict = Verdict.VIOLATED
        else:
            graph_devices = {
                d
                for d in self.graph.nodes_of
                if not self.topology.device(d).is_external
            }
            verdict = (
                Verdict.SATISFIED
                if graph_devices <= self.synced
                else Verdict.UNKNOWN
            )
        return VerificationReport(
            requirement=self.requirement.name,
            verdict=verdict,
            detail=self._violated or "",
        )
