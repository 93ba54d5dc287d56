"""Algorithm 2: consistent partial verification of regex requirements.

The verifier keeps one verification graph per equivalence class (the
``ecTable`` of Appendix D.2) across model updates.  On every update it:

1. drops the entries of the ECs that left the table and copies the
   parent's graph and DGQ forest for the ECs the update changed
   (provenance and action vectors come from
   :class:`~repro.core.inverse_model.Lineage`); every other entry carries
   over untouched;
2. prunes the edges of newly synchronised devices to the EC's actions,
   visiting only its own undecided entries, not the model's table;
3. queries reachability decrementally (DGQ) — for every undecided entry
   when a device synchronised, otherwise only for the entries just born.

Once the requirement is decided it stays decided within the epoch
(App. D.4), so later updates keep only the table's keys, which the
report's EC count reads.

Verdict semantics (§4.2): once no accepting node is reachable the
requirement is consistently **violated** for that EC; once an accepting node
is reachable through synchronised devices only it is consistently
**satisfied**; otherwise unknown.  Anycast/multicast/cover variants follow
Appendix D.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple
from weakref import WeakKeyDictionary

from ..bdd.predicate import Predicate
from ..core.inverse_model import InverseModel, Lineage, VecId
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
    # The handle behind this entry's key: while it is held, the engine
    # cannot recycle the node id for another predicate.
    predicate: Predicate
    # The EC's action vector, from the lineage.  None only in the universe
    # entry before any delta names it: the model's initial vector.
    vector: Optional[VecId]
    # None once the requirement is decided: nothing prunes or judges an
    # entry any more, only its key is kept.
    graph: Optional[VerificationGraph]
    reach: Optional[DgqReachability]
    verdict: Verdict = Verdict.UNKNOWN

    #: Whether ``graph`` and ``reach`` exist yet (see _UniverseEntry).
    built = True


class _UniverseEntry(_EcEntry):
    """A verifier's first entry: its universe, before any delta names it.

    The first batch usually removes it unread (the dispatcher opens an
    epoch with the whole table as deltas from the universe), so its copy
    of the template's graph and forest is made at the first read, and an
    entry born from it while unbuilt copies the template instead.
    """

    def __init__(self, predicate: Predicate, verifier: "RegexVerifier") -> None:
        self.predicate, self.vector, self.verdict = predicate, None, Verdict.UNKNOWN
        self._verifier = verifier

    @property
    def built(self) -> bool:
        return "graph" in self.__dict__

    @cached_property
    def graph(self) -> VerificationGraph:
        return self._verifier._template.clone()

    @cached_property
    def reach(self) -> DgqReachability:
        return self._verifier._forest.copy(self.graph)


# Template graph → the DGQ forest of its unpruned state, built once and
# copied by every entry that starts from the template (every epoch's
# verifiers share one template).  A memo of a read-only input: nothing
# prunes a template.  The forest spans a clone, so the value does not keep
# its key alive.
_FORESTS: "WeakKeyDictionary[VerificationGraph, DgqReachability]" = (
    WeakKeyDictionary()
)


def _template_forest(template: VerificationGraph) -> DgqReachability:
    forest = _FORESTS.get(template)
    if forest is None:
        forest = _FORESTS[template] = DgqReachability(template.clone())
    return forest


# Template graph → the switches among its nodes, which must all be synced
# before the requirement can be decided; a memo of the same read-only
# input as _FORESTS.
_SWITCHES: "WeakKeyDictionary[VerificationGraph, FrozenSet[int]]" = (
    WeakKeyDictionary()
)


def _meets(pred: Predicate, space: Predicate) -> bool:
    """Whether a model EC meets a packet space, signatures first (both
    memoised: the EC's by the model's commit, the space's on its handle)."""
    sig_of = space.engine.signature
    return bool(sig_of(pred) & sig_of(space)) and pred.intersects(space)


def _template_switches(template: VerificationGraph) -> FrozenSet[int]:
    switches = _SWITCHES.get(template)
    if switches is None:
        device = template.topology.device
        switches = _SWITCHES[template] = frozenset(
            d for d in template.nodes_of if not device(d).is_external
        )
    return switches


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
        self._forest = _template_forest(graph)
        self._graph_switches = _template_switches(graph)
        # ecTable: predicate node id → entry, for the model's ECs inside
        # the packet space.  Starts with the verifier's universe (the whole
        # space, or the subspace being verified): the model's initial EC.
        initial = compiler.engine.true if universe is None else universe
        self._table: Dict[int, _EcEntry] = {}
        # The model's other ECs, which miss the packet space (node →
        # pinning handle).  Together with _table's keys: what past updates
        # learnt about the space, so an EC is tested against it once.
        self._outside: Dict[int, Predicate] = {}
        # How many entries of _table hold each verdict: report() in O(1)
        # while the requirement is undecided.
        self._tally: Dict[Verdict, int] = dict.fromkeys(Verdict, 0)
        # The requirement's verdict once it is SATISFIED or VIOLATED: it
        # cannot change within the epoch (App. D.4, DESIGN.md), so later
        # updates only keep _table's keys.
        self._decided: Optional[Verdict] = None
        if initial.intersects(self.space):
            self._add(_UniverseEntry(initial, self))
        else:
            self._outside[initial.node] = initial

    def _entry(
        self,
        predicate: Predicate,
        vector: Optional[VecId],
        parent: Optional[_EcEntry],
    ) -> _EcEntry:
        """An entry on a copy of ``parent``'s graph and forest, or of the
        unpruned template's (no parent, or an unbuilt universe entry)."""
        if parent is None or not parent.built:
            graph, forest = self._template.clone(), self._forest
        else:
            graph, forest = parent.graph.clone(), parent.reach
        return _EcEntry(predicate, vector, graph, forest.copy(graph))

    def _add(self, entry: _EcEntry) -> None:
        self._table[entry.predicate.node] = entry
        self._tally[entry.verdict] += 1

    # ------------------------------------------------------------------
    def on_model_update(
        self,
        lineage: Lineage,
        new_synced: Iterable[int],
        model: InverseModel,
    ) -> VerificationReport:
        """Consume one update's lineage (Algorithm 2's main loop)."""
        fresh = [d for d in new_synced if d not in self.synced]
        self.synced.update(fresh)
        table, outside, tally = self._table, self._outside, self._tally
        decided = self._decided is not None
        gone: Dict[int, _EcEntry] = {}
        gone_outside: Set[int] = set()
        for pred in lineage.removed:
            entry = table.pop(pred.node, None)
            if entry is not None:
                gone[pred.node] = entry
                tally[entry.verdict] -= 1
            elif outside.pop(pred.node, None) is not None:
                gone_outside.add(pred.node)
        born = []
        for delta in lineage.changed:
            pred = delta.predicate
            node = pred.node
            # A re-vectored EC keeps its predicate, and so its entry.
            entry = gone.get(node)
            if entry is not None:
                entry.vector = delta.vector
            else:
                if node in gone_outside or not _meets(pred, self.space):
                    outside[node] = pred
                    continue
                if decided:
                    entry = _EcEntry(pred, delta.vector, None, None)
                else:
                    parent = gone.get(delta.origin.node)
                    if parent is None:
                        parent = table.get(delta.origin.node)
                    entry = self._entry(pred, delta.vector, parent)
                    if parent is None:
                        # EC born outside our table (e.g. after merges):
                        # the template pruned by every synced device.
                        self._prune(entry, self.synced, model)
                    born.append(entry)
            self._add(entry)
        if decided:
            return self.report()
        if fresh:
            # A device synchronised: every undecided entry prunes it.
            for entry in table.values():
                if entry.verdict is Verdict.UNKNOWN:
                    self._prune(entry, fresh, model)
                    self._rejudge(entry)
        else:
            # Lineage only: an entry that was there keeps its graph and
            # the synced set is unchanged, so only the newborn are judged.
            for entry in born:
                self._rejudge(entry)
        report = self.report()
        if report.verdict is not Verdict.UNKNOWN:
            self._decided = report.verdict
            for entry in table.values():
                entry.graph = entry.reach = None
        return report

    def _prune(
        self, entry: _EcEntry, devices: Iterable[int], model: InverseModel
    ) -> None:
        vector = entry.vector
        if vector is None:
            # The universe entry, never named by a delta: the model still
            # holds its initial one-EC table.
            [(_, vector)] = model.entries()
            entry.vector = vector
        graph, reach = entry.graph, entry.reach
        for device in devices:
            reach.delete_edges(
                graph.prune_device(device, model.action_of(vector, device))
            )

    def _rejudge(self, entry: _EcEntry) -> None:
        verdict = self._judge(entry)
        if verdict is not entry.verdict:
            self._tally[entry.verdict] -= 1
            self._tally[verdict] += 1
            entry.verdict = verdict

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
        tally = self._tally
        if self._decided is not None:
            verdict = self._decided
        elif tally[Verdict.VIOLATED]:
            verdict = Verdict.VIOLATED
        elif self._table and tally[Verdict.SATISFIED] == len(self._table):
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
        lineage: Lineage,
        new_synced: Iterable[int],
        model: InverseModel,
    ) -> VerificationReport:
        """Check every newly synchronised device on every in-space EC,
        and a device re-reporting under the same tag on the ECs the step
        changed: every other EC kept its vector, so its column there is
        the one already checked."""
        fresh = [d for d in new_synced if d not in self.synced]
        again = [d for d in new_synced if d in self.synced]
        if fresh:
            self._check(fresh, model.entries(), model)
        if again:
            self._check(
                again, ((d.predicate, d.vector) for d in lineage.changed), model
            )
        self.synced.update(fresh)
        return self.report()

    def _check(
        self,
        devices: Iterable[int],
        entries: Iterable[Tuple[Predicate, VecId]],
        model: InverseModel,
    ) -> None:
        """Latch a violation for any device whose action on an in-space
        EC of ``entries`` omits one of its graph successors."""
        required = {}
        for device in devices:
            successors = {
                succ[0]
                for node in self.graph.nodes_of.get(device, ())
                for succ in self.graph.out_edges[node]
            }
            if successors:
                required[device] = successors
        if not required:
            return
        for pred, vector in entries:
            if not _meets(pred, self.space):
                continue
            for device, successors in required.items():
                actual = set(next_hops_of(model.action_of(vector, device)))
                missing = successors - actual
                if missing:
                    self._violated = (
                        f"device {self.topology.name_of(device)} misses "
                        f"next hops {sorted(missing)}"
                    )

    def report(self) -> VerificationReport:
        if self._violated:
            verdict = Verdict.VIOLATED
        else:
            verdict = (
                Verdict.SATISFIED
                if _template_switches(self.graph) <= self.synced
                else Verdict.UNKNOWN
            )
        return VerificationReport(
            requirement=self.requirement.name,
            verdict=verdict,
            detail=self._violated or "",
        )
