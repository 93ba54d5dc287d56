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
broken — which is exactly what the serve difference test asserts.  The
witness count is a sum over ECs, each EC's share of the scope counted
where its graph is a witness: ECs are disjoint (Definition 6), so no
union is built, and an EC whose cofactor signature misses the scope's is
skipped before it is classified.  ``tests/serve_reference.py`` keeps the
union evaluation as the oracle of that sum.

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

Below the answer cache sits the daemon's :class:`VerdictMemo`, keyed
``(kind, params, vector)``: an EC's classification depends only on the
query's kind and parameters, its action vector and the topology, and
PAT vectors are hash-consed and immutable, so a verdict found at one
epoch answers every later epoch that still holds the vector.  A query
then costs a dict lookup per in-scope EC, a search per vector it has not
seen, and one ``sat_count`` per witness EC (after a ``&`` with the scope
when the query has one).  ``evaluate`` uses
the memo only when it is passed one: the batch oracle, ``repro serve``'s
divergence check and difftest evaluate without it, so they stay an
independent check on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from ..bdd.predicate import Predicate
from ..core.actiontree import ActionTreeStore
from ..core.inverse_model import VecId
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


class VerdictMemo:
    """One daemon's per-vector verdicts: ``(kind, params, vector) → bool``.

    Held as one ``{vector: verdict}`` dict per ``(kind, params)``.
    Tied to one PAT ``store`` (vector ids name vectors only inside it)
    and, through its daemon, to one topology, an entry can become
    useless but never wrong.  Reader threads only get and set single
    keys; the writer never mutates a memo in place but builds a pruned
    copy (:meth:`pruned`) and swaps the daemon's reference.
    """

    __slots__ = ("store", "_verdicts")

    def __init__(self, store: ActionTreeStore) -> None:
        self.store = store
        self._verdicts: Dict[Tuple, Dict[VecId, bool]] = {}

    def verdicts_for(self, kind: str, params: Tuple) -> Dict[VecId, bool]:
        """The ``{vector: verdict}`` dict of one query shape."""
        return self._verdicts.setdefault((kind, params), {})

    def pruned(self, live: Set[VecId]) -> "VerdictMemo":
        """A new memo of the same store keeping only ``live`` vectors.

        Readers may add entries meanwhile; ``dict.copy`` runs in one
        step under the GIL, so the walk never sees a dict change size.
        An entry a reader adds to this memo after its copy is dropped,
        which costs a search later, never a wrong verdict.
        """
        kept = VerdictMemo(self.store)
        for shape, verdicts in self._verdicts.copy().items():
            alive = {v: hit for v, hit in verdicts.copy().items() if v in live}
            if alive:
                kept._verdicts[shape] = alive
        return kept

    def vectors(self) -> Set[VecId]:
        """Every vector holding at least one verdict."""
        return {
            v for verdicts in self._verdicts.copy().values()
            for v in verdicts.copy()
        }


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

    def _witness_headers(
        self,
        view: ModelReadView,
        scope: Predicate,
        classify: Callable[[Callable[[int], Action]], bool],
        deadline: Optional[float] = None,
        memo: Optional[VerdictMemo] = None,
    ) -> int:
        """How many headers of ``scope`` lie in ECs whose forwarding graph
        satisfies ``classify``: each such EC's share of the scope, summed.

        The ECs are disjoint (Definition 6), so the shares add up to the
        measure of the witness set within the scope.  An EC whose
        cofactor signature misses the scope's cannot meet it and is
        skipped unclassified; an unscoped query (``scope`` is the view's
        universe) counts whole ECs.  ``deadline`` is an absolute
        :func:`time.monotonic` timestamp; the EC walk — where all the
        graph classification and BDD work happens — checks it between
        entries and raises :class:`~repro.errors.QueryTimeoutError` once
        passed.  With a ``memo`` of the view's PAT store, a vector
        classified before (by any query of this kind and parameters, at
        any epoch) is looked up instead of searched again.
        """
        verdicts: Dict[VecId, bool] = (
            memo.verdicts_for(self.kind, self.params())
            if memo is not None and memo.store is view.store
            else {}
        )
        scoped = scope != view.universe
        sig_of = view.engine.signature
        scope_sig = sig_of(scope) if scoped else 0
        count = 0
        for pred, vector in view.entries():
            if deadline is not None and time.monotonic() > deadline:
                raise QueryTimeoutError(
                    f"{self.kind} query exceeded its deadline mid-walk"
                )
            if scoped and not sig_of(pred) & scope_sig:
                continue
            hit = verdicts.get(vector)
            if hit is None:
                hit = verdicts[vector] = classify(
                    lambda d, v=vector: view.action_of(v, d)
                )
            if hit:
                count += (pred & scope if scoped else pred).sat_count()
        return count

    def evaluate(
        self,
        view: ModelReadView,
        topology: Topology,
        deadline: Optional[float] = None,
        memo: Optional[VerdictMemo] = None,
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
        memo: Optional[VerdictMemo] = None,
    ) -> QueryAnswer:
        scope = self.scope_predicate(view)
        delivered = self._witness_headers(
            view,
            scope,
            lambda action_of: reaches_external(topology, action_of, self.source),
            deadline,
            memo,
        )
        return QueryAnswer(holds=delivered == scope.sat_count(), headers=delivered)


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
        memo: Optional[VerdictMemo] = None,
    ) -> QueryAnswer:
        trapped = self._witness_headers(
            view,
            self.scope_predicate(view),
            lambda action_of: forwarding_cycle(topology, action_of),
            deadline,
            memo,
        )
        return QueryAnswer(holds=trapped == 0, headers=trapped)


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
        memo: Optional[VerdictMemo] = None,
    ) -> QueryAnswer:
        escaped = self._witness_headers(
            view,
            self.scope_predicate(view),
            lambda action_of: reaches_external_avoiding(
                topology, action_of, self.source, self.waypoint
            ),
            deadline,
            memo,
        )
        return QueryAnswer(holds=escaped == 0, headers=escaped)


__all__ = [
    "LoopQuery",
    "Query",
    "QueryAnswer",
    "ReachabilityQuery",
    "VerdictMemo",
    "WaypointQuery",
    "reaches_external_avoiding",
]
