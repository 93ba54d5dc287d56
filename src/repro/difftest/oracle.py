"""The brute-force reference oracle.

:class:`ReferenceOracle` is the simplest implementation of §3.1's forward
model that could possibly be right: it keeps plain priority-sorted FIB
tables (:class:`~repro.dataplane.fib.FibSnapshot`) and answers every
question by enumerating concrete headers and walking the forwarding
graph.  No BDDs, no atoms, no incrementality — O(|H| · |V|) per query,
usable only on the small layouts the fuzzer generates, and therefore a
trustworthy ground truth for the clever engines.

:class:`OracleWalk` is the same ground truth along update orders: the
per-step verdicts and per-header violation facts the interleaving runner
checks every intermediate state against.

The graph searches here (:func:`reaches_external`,
:func:`reaches_external_avoiding`, :func:`forwarding_cycle`) are the
oracle's own, written as plainly as possible; the product classifies
with :mod:`repro.ce2d.forwarding`, and the tests hold the two equal.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..dataplane.fib import FibSnapshot
from ..dataplane.rule import Action, next_hops_of
from ..dataplane.update import RuleUpdate
from ..headerspace.fields import HeaderLayout
from ..network.topology import Topology
from ..results import Verdict
from .explore import Order

Vector = Tuple[Action, ...]

#: One state's verdicts: the loop verdict plus one verdict per
#: requirement (in requirement order).
StepVerdicts = Tuple[Verdict, Tuple[Verdict, ...]]

#: One per-header violation: ("loop", header) or (req name, source, header).
Fact = Tuple[Any, ...]


def reaches_external(
    topology: Topology, action_of: Callable[[int], Action], source: int
) -> bool:
    """Whether *some* forwarding walk from ``source`` delivers externally.

    ECMP actions fan out; an edge only exists where the topology has the
    link (matching the CE2D verification-graph semantics).  Delivery means
    stepping onto an external (virtual) node.
    """
    seen: Set[int] = set()
    stack = [source]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if topology.device(node).is_external:
            return True
        for hop in next_hops_of(action_of(node)):
            if not topology.has_link(node, hop):
                continue
            if topology.device(hop).is_external:
                return True
            if hop not in seen:
                stack.append(hop)
    return False


def reaches_external_avoiding(
    topology: Topology,
    action_of: Callable[[int], Action],
    source: int,
    waypoint: int,
) -> bool:
    """Whether some walk from ``source`` delivers *without* touching
    ``waypoint`` — the bypass witness of a waypoint requirement.

    :func:`reaches_external`'s walk, except it may never enter the
    waypoint; a walk starting *at* the waypoint trivially traverses it.
    """
    if source == waypoint:
        return False
    seen: Set[int] = set()
    stack = [source]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if topology.device(node).is_external:
            return True
        for hop in next_hops_of(action_of(node)):
            if hop == waypoint or not topology.has_link(node, hop):
                continue
            if topology.device(hop).is_external:
                return True
            if hop not in seen:
                stack.append(hop)
    return False


def forwarding_cycle(
    topology: Topology, action_of: Callable[[int], Action]
) -> bool:
    """Whether the forwarding graph over switches contains a cycle."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}

    def successors(node: int) -> List[int]:
        return [
            hop
            for hop in next_hops_of(action_of(node))
            if topology.has_link(node, hop)
            and not topology.device(hop).is_external
        ]

    for start in topology.switches():
        if color.get(start, WHITE) is not WHITE:
            continue
        stack: List[Tuple[int, Iterable[int]]] = [(start, iter(successors(start)))]
        color[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for hop in it:
                state = color.get(hop, WHITE)
                if state == GREY:
                    return True
                if state == WHITE:
                    color[hop] = GREY
                    stack.append((hop, iter(successors(hop))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


class ReferenceOracle:
    """Naive per-packet forwarding-graph evaluation over all headers."""

    def __init__(self, topology: Topology, layout: HeaderLayout) -> None:
        self.topology = topology
        self.layout = layout
        self.devices = sorted(topology.switches())
        self.snapshot = FibSnapshot(self.devices)

    # -- update processing ----------------------------------------------
    def apply(self, update: RuleUpdate) -> None:
        table = self.snapshot.table(update.device)
        if update.is_insert:
            table.insert(update.rule)
        else:
            table.delete(update.rule)

    def process_updates(self, updates: Iterable[RuleUpdate]) -> None:
        for u in updates:
            self.apply(u)

    # -- queries ---------------------------------------------------------
    def behavior(self, values: Dict[str, int]) -> Dict[int, Action]:
        return self.snapshot.behavior(values)

    def classes(self) -> Dict[Vector, List[int]]:
        """Exhaustive equivalence classes: behavior vector → headers.

        The vector is ordered by ``self.devices`` (ascending device id),
        the canonical order used across the differential comparison.
        """
        out: Dict[Vector, List[int]] = {}
        for header in range(self.layout.universe_size):
            values = self.layout.unflatten(header)
            vector = tuple(
                self.snapshot.table(d).lookup(values) for d in self.devices
            )
            out.setdefault(vector, []).append(header)
        return out

    def reachable_headers(self, source: int) -> List[int]:
        """Headers whose forwarding walk from ``source`` delivers."""
        out: List[int] = []
        for vector, headers in self.classes().items():
            actions = dict(zip(self.devices, vector))
            if reaches_external(self.topology, actions.__getitem__, source):
                out.extend(headers)
        return sorted(out)

    def __repr__(self) -> str:
        return (
            f"ReferenceOracle({len(self.devices)} devices, "
            f"{self.layout.universe_size} headers)"
        )


class OracleWalk:
    """Brute-force per-step verdicts and violation facts along orders.

    The state after any step is fully determined by how many of each
    device's block updates have applied (per-device order is fixed), so
    evaluations memoize on that progress vector — exhaustive self-check
    enumeration costs one evaluation per *distinct state*, not per order.
    """

    def __init__(
        self,
        topology: Topology,
        layout: HeaderLayout,
        requirements,
        prefix: Sequence[RuleUpdate],
        block: Sequence[RuleUpdate],
    ) -> None:
        self.topology = topology
        self.layout = layout
        self.devices = sorted(topology.switches())
        self.requirements = list(requirements)
        self.prefix = list(prefix)
        self.block = list(block)
        # Concrete header membership of each requirement's packet space.
        self.spaces: List[Set[int]] = []
        values_of = [
            layout.unflatten(h) for h in range(layout.universe_size)
        ]
        for req in self.requirements:
            self.spaces.append(
                {
                    h
                    for h, values in enumerate(values_of)
                    if req.packet_space.matches(values)
                }
            )
        self._memo: Dict[
            Tuple[int, ...], Tuple[StepVerdicts, FrozenSet[Fact]]
        ] = {}
        self.states_evaluated = 0

    # ------------------------------------------------------------------
    def walk(
        self, order: Order
    ) -> Tuple[List[Tuple[StepVerdicts, FrozenSet[Fact]]], Any]:
        """Per-step (verdicts, facts) along ``order``, plus the final
        table fingerprint.

        ``steps[0]`` is the pre-block state (prefix applied, no block
        update yet); ``steps[k]`` is the state after ``order[k - 1]``,
        so the result has ``len(order) + 1`` entries.  Including the
        shared starting state is what makes the per-header fact union
        invariant within a trace class: an order that defers a header's
        first affecting update re-observes the starting state's facts
        for that header at later steps, while the class representative
        may overwrite them at step 1 — only the union *from step 0* is
        equal across equivalent linearizations.
        """
        oracle = ReferenceOracle(self.topology, self.layout)
        oracle.process_updates(self.prefix)
        counts = {d: 0 for d in self.devices}
        steps = [self._state(oracle, counts)]
        for index in order:
            update = self.block[index]
            oracle.apply(update)
            counts[update.device] += 1
            steps.append(self._state(oracle, counts))
        fingerprint = tuple(
            tuple(oracle.snapshot.table(d).rules(include_default=False))
            for d in self.devices
        )
        return steps, fingerprint

    def _state(
        self, oracle: ReferenceOracle, counts: Dict[int, int]
    ) -> Tuple[StepVerdicts, FrozenSet[Fact]]:
        key = tuple(counts[d] for d in self.devices)
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = self._evaluate(oracle)
            self.states_evaluated += 1
        return entry

    def _evaluate(
        self, oracle: ReferenceOracle
    ) -> Tuple[StepVerdicts, FrozenSet[Fact]]:
        facts: Set[Fact] = set()
        req_violated = [False] * len(self.requirements)
        for vector, headers in oracle.classes().items():
            actions = dict(zip(oracle.devices, vector))
            action_of = actions.__getitem__
            if forwarding_cycle(self.topology, action_of):
                facts.update(("loop", h) for h in headers)
            for ri, req in enumerate(self.requirements):
                relevant = [h for h in headers if h in self.spaces[ri]]
                if not relevant:
                    continue
                for source in req.sources:
                    if reaches_external(self.topology, action_of, source):
                        continue
                    req_violated[ri] = True
                    facts.update((req.name, source, h) for h in relevant)
        loop_violated = any(f[0] == "loop" for f in facts)
        return verdicts_of(loop_violated, req_violated), frozenset(facts)


def verdicts_of(loop_violated: bool, req_violated: Iterable[bool]) -> StepVerdicts:
    """Violation flags as a :data:`StepVerdicts` pair."""
    return (
        Verdict.VIOLATED if loop_violated else Verdict.SATISFIED,
        tuple(
            Verdict.VIOLATED if violated else Verdict.SATISFIED
            for violated in req_violated
        ),
    )
