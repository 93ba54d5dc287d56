"""The query language the daemon serves, evaluated over a read view.

Three query kinds, each a closed-form function of one
:class:`~repro.core.model_manager.ModelReadView` plus the topology:

* :class:`ReachabilityQuery` — does every scoped header injected at
  ``source`` get delivered to an external node?
* :class:`LoopQuery` — is the scoped header space free of forwarding
  loops?
* :class:`WaypointQuery` — does every scoped header delivered from
  ``source`` traverse ``waypoint`` on the way out?

Evaluation walks the EC table once: each EC's action vector induces one
forwarding graph, classified with the *same* graph predicates the
brute-force oracle uses (:func:`~repro.difftest.oracle.reaches_external`
/ :func:`~repro.difftest.oracle.forwarding_cycle`), so a served answer
and the batch oracle's answer can only differ if snapshot isolation is
broken — which is exactly what the serve difference test asserts.

Answers are :class:`QueryAnswer` values — a verdict plus the exact
header count of the interesting set — and compare by equality, which is
what grounds the mid-storm oracle check in ``repro.serve.load``.

Cache keys (:meth:`Query.cache_key`) are ``(kind, params, scope)`` —
the query as the caller wrote it, the scope as its hashable
:class:`~repro.headerspace.match.Match`.  Nothing in a key belongs to an
engine: a BDD node id names a predicate only while a handle to it is
alive, and a cache entry outlives the query that compiled the scope.
The snapshot epoch is prepended by the cache layer; all snapshots of one
daemon share one universe, so (epoch, key) determines the answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Set, Tuple

from ..bdd.predicate import Predicate
from ..core.model_manager import ModelReadView
from ..dataplane.rule import Action, next_hops_of
from ..difftest.oracle import forwarding_cycle, reaches_external
from ..errors import QueryTimeoutError
from ..headerspace.match import Match
from ..network.topology import Topology


@dataclass(frozen=True)
class QueryAnswer:
    """The served verdict for one query at one pinned snapshot.

    ``holds``
        whether the queried property holds over the whole scope;
    ``headers``
        the exact number of headers in the *witness* set — delivered
        headers for reachability, looping headers for loops, bypassing
        headers for waypoints — so two answers agree iff the underlying
        header spaces have equal measure under the same scope.
    """

    holds: bool
    headers: int

    def as_dict(self) -> dict:
        return {"holds": self.holds, "headers": self.headers}


def reaches_external_avoiding(
    topology: Topology,
    action_of: Callable[[int], Action],
    source: int,
    waypoint: int,
) -> bool:
    """Whether some walk from ``source`` delivers *without* touching
    ``waypoint`` — the bypass witness of a waypoint requirement.

    Same edge semantics as :func:`~repro.difftest.oracle.
    reaches_external` (ECMP fan-out, topology-gated links, delivery =
    stepping onto an external node), except walks may never enter the
    waypoint.  A walk starting *at* the waypoint trivially traverses it.
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


class Query:
    """Base: a scoped question answerable from any read view."""

    kind: str = "query"

    def __init__(self, scope: Optional[Match] = None) -> None:
        self.scope = scope

    # -- shared plumbing ------------------------------------------------
    def scope_predicate(self, view: ModelReadView) -> Predicate:
        """The scoped header space inside the view's universe."""
        if self.scope is None:
            return view.universe
        return view.compiler.compile(self.scope) & view.universe

    def params(self) -> Tuple:
        """Hashable, engine-independent parameters of this query."""
        return ()

    def cache_key(self) -> Tuple:
        """``(kind, params, scope)``: engine-independent, no BDD work."""
        return (self.kind, self.params(), self.scope)

    def _witness(
        self,
        view: ModelReadView,
        classify: Callable[[Callable[[int], Action]], bool],
        deadline: Optional[float] = None,
    ) -> Predicate:
        """OR of the ECs whose forwarding graph satisfies ``classify``.

        ``deadline`` is an absolute :func:`time.monotonic` timestamp;
        the EC walk — where all the graph classification and BDD work
        happens — checks it between entries and raises
        :class:`~repro.errors.QueryTimeoutError` once passed.
        """
        out = view.engine.false
        for pred, vector in view.entries():
            if deadline is not None and time.monotonic() > deadline:
                raise QueryTimeoutError(
                    f"{self.kind} query exceeded its deadline mid-walk"
                )
            if classify(lambda d, v=vector: view.action_of(v, d)):
                out = out | pred
        return out

    def evaluate(
        self,
        view: ModelReadView,
        topology: Topology,
        deadline: Optional[float] = None,
    ) -> QueryAnswer:
        raise NotImplementedError

    def __repr__(self) -> str:
        scoped = f", scope={self.scope!r}" if self.scope is not None else ""
        inner = ", ".join(str(p) for p in self.params())
        return f"{type(self).__name__}({inner}{scoped})"


class ReachabilityQuery(Query):
    """Is every scoped header injected at ``source`` delivered externally?

    ``headers`` counts the scoped headers that *are* delivered.
    """

    kind = "reach"

    def __init__(self, source: int, scope: Optional[Match] = None) -> None:
        super().__init__(scope)
        self.source = source

    def params(self) -> Tuple:
        return (self.source,)

    def evaluate(
        self,
        view: ModelReadView,
        topology: Topology,
        deadline: Optional[float] = None,
    ) -> QueryAnswer:
        scope = self.scope_predicate(view)
        delivered = self._witness(
            view,
            lambda action_of: reaches_external(topology, action_of, self.source),
            deadline,
        )
        return QueryAnswer(
            holds=(scope - delivered).is_false,
            headers=(scope & delivered).sat_count(),
        )


class LoopQuery(Query):
    """Is the scoped header space free of forwarding loops?

    ``headers`` counts the scoped headers whose graph has a cycle.
    """

    kind = "loop"

    def evaluate(
        self,
        view: ModelReadView,
        topology: Topology,
        deadline: Optional[float] = None,
    ) -> QueryAnswer:
        scope = self.scope_predicate(view)
        looping = self._witness(
            view,
            lambda action_of: forwarding_cycle(topology, action_of),
            deadline,
        )
        trapped = scope & looping
        return QueryAnswer(holds=trapped.is_false, headers=trapped.sat_count())


class WaypointQuery(Query):
    """Does all scoped delivered traffic from ``source`` pass ``waypoint``?

    ``headers`` counts the scoped headers that are delivered while
    *bypassing* the waypoint (the violation witnesses).
    """

    kind = "waypoint"

    def __init__(
        self, source: int, waypoint: int, scope: Optional[Match] = None
    ) -> None:
        super().__init__(scope)
        self.source = source
        self.waypoint = waypoint

    def params(self) -> Tuple:
        return (self.source, self.waypoint)

    def evaluate(
        self,
        view: ModelReadView,
        topology: Topology,
        deadline: Optional[float] = None,
    ) -> QueryAnswer:
        scope = self.scope_predicate(view)
        bypass = self._witness(
            view,
            lambda action_of: reaches_external_avoiding(
                topology, action_of, self.source, self.waypoint
            ),
            deadline,
        )
        escaped = scope & bypass
        return QueryAnswer(holds=escaped.is_false, headers=escaped.sat_count())


__all__ = [
    "LoopQuery",
    "Query",
    "QueryAnswer",
    "ReachabilityQuery",
    "WaypointQuery",
    "reaches_external_avoiding",
]
