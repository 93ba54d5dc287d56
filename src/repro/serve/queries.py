"""The query language the daemon serves, evaluated over a read view.

Three query kinds, each a closed-form function of one
:class:`~repro.core.model_manager.FrozenReadView` plus the topology:

* :class:`ReachabilityQuery` — does every scoped header injected at
  ``source`` get delivered to an external node?
* :class:`LoopQuery` — is the scoped header space free of forwarding
  loops?
* :class:`WaypointQuery` — does every scoped header delivered from
  ``source`` traverse ``waypoint`` on the way out?

Evaluation walks the EC table once: each EC's action vector induces one
forwarding graph, classified by the product's per-vector classifiers
(:mod:`repro.ce2d.forwarding`).  The batch oracle evaluates with the
same classifiers on its own model, so a served answer and the oracle's
can only differ if snapshot isolation is broken — which is exactly what
the serve difference test asserts; the classifiers themselves are
checked against the brute-force oracle's own graph searches
(``tests/serve_reference.py``, ``tests/test_serve.py``).  The
witness count is a sum over ECs, each EC's share of the scope counted
where its graph is a witness: ECs are disjoint (Definition 6), so no
union is built, and an EC whose cofactor signature misses the scope's is
skipped before it is classified.  ``tests/serve_reference.py`` keeps the
union evaluation as the oracle of that sum.

Evaluation never allocates in the view's store, the writer's in the
daemon: the scope compiles in the view's scope engine, and an EC's share
of it is counted by :meth:`~repro.bdd.engine.BDD.and_count`, a walk
across the two stores that builds nothing.

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
epoch answers every later epoch that still holds the vector.  The memo
also keeps each live vector's ``{device: action}`` dict, which every
classifier of that vector reads instead of walking the PAT store.  A
query then costs a dict lookup per in-scope EC, a search per vector it
has not seen, and one count per witness EC.  ``evaluate`` without a
memo runs the same walk over a memo of its own, dropped with the
query: the batch oracle, ``repro serve``'s divergence check and
difftest evaluate that way, so they stay an independent check on the
daemon's memo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from ..bdd.predicate import Predicate
from ..ce2d.forwarding import (
    forwarding_cycle,
    reaches_external,
    reaches_external_avoiding,
)
from ..core.actiontree import ActionTreeStore
from ..core.inverse_model import VecId
from ..core.model_manager import FrozenReadView
from ..dataplane.rule import Action
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


class VerdictMemo:
    """One daemon's per-vector state: ``(kind, params, vector) → bool``
    verdicts, and each vector's ``{device: action}`` dict.

    Held as one ``{vector: verdict}`` dict per ``(kind, params)``.
    Tied to one PAT ``store`` (vector ids name vectors only inside it)
    and, through its daemon, to one topology, an entry can become
    useless but never wrong.  Reader threads only get and set single
    keys; the writer prunes in place (:meth:`retain`), so an entry a
    reader adds while the writer prunes is kept unless its vector died.
    """

    __slots__ = ("store", "_verdicts", "_actions", "_live")

    def __init__(self, store: ActionTreeStore) -> None:
        self.store = store
        self._verdicts: Dict[Tuple, Dict[VecId, bool]] = {}
        self._actions: Dict[VecId, Dict[int, Action]] = {}
        self._live: Set[VecId] = set()

    def verdicts_for(self, kind: str, params: Tuple) -> Dict[VecId, bool]:
        """The ``{vector: verdict}`` dict of one query shape."""
        return self._verdicts.setdefault((kind, params), {})

    def actions_of(self, vector: VecId) -> Callable[[int], Optional[Action]]:
        """``vector``'s action lookup by device, a ``dict.get``."""
        actions = self._actions.get(vector)
        if actions is None:
            actions = self._actions[vector] = self.store.to_dict(vector)
        return actions.get

    def retain(self, live: Set[VecId]) -> None:
        """Drop every entry of a vector not in ``live``, the vectors of
        the live snapshots.  Readers add entries only for vectors of
        pinned, so live, snapshots: every vector held was in the previous
        ``live`` or is in this one, and the dead are the difference."""
        dead = self._live - live
        self._live = live
        for vector in dead:
            self._actions.pop(vector, None)
        for verdicts in list(self._verdicts.values()):
            for vector in dead:
                verdicts.pop(vector, None)

    def vectors(self) -> Set[VecId]:
        """Every vector the memo holds a verdict or an action dict for."""
        held = set(self._actions.copy())
        for verdicts in list(self._verdicts.values()):
            held.update(verdicts.copy())
        return held


class Query:
    """Base: a scoped question answerable from any read view."""

    kind: str = "query"

    def __init__(self, scope: Optional[Match] = None) -> None:
        self.scope = scope

    # -- shared plumbing ------------------------------------------------
    def scope_predicate(self, view: FrozenReadView) -> Optional[Predicate]:
        """The scoped header space inside the view's universe, built in
        the view's scope engine; ``None`` when the query is unscoped."""
        if self.scope is None:
            return None
        scope = view.compiler.compile(self.scope)
        if not view.universe.is_true:
            scope = scope & scope.engine.import_predicate(view.universe)
        return scope

    def params(self) -> Tuple:
        """Hashable, engine-independent parameters of this query."""
        return ()

    def cache_key(self) -> Tuple:
        """``(kind, params, scope)``: engine-independent, no BDD work."""
        return (self.kind, self.params(), self.scope)

    def _witness_headers(
        self,
        view: FrozenReadView,
        scope: Optional[Predicate],
        classify: Callable[[Callable[[int], Optional[Action]]], bool],
        deadline: Optional[float] = None,
        memo: Optional[VerdictMemo] = None,
    ) -> int:
        """How many headers of ``scope`` lie in ECs whose forwarding graph
        satisfies ``classify``: each such EC's share of the scope, summed.

        The ECs are disjoint (Definition 6), so the shares add up to the
        measure of the witness set within the scope.  An EC whose
        cofactor signature misses the scope's cannot meet it and is
        skipped unclassified; an unscoped query (``scope`` is ``None``)
        counts whole ECs.  ``deadline`` is an absolute
        :func:`time.monotonic` timestamp; the EC walk — where all the
        graph classification and counting happens — checks it between
        entries and raises :class:`~repro.errors.QueryTimeoutError` once
        passed.  With a ``memo`` of the view's PAT store, a vector
        classified before (by any query of this kind and parameters, at
        any epoch) is looked up instead of searched again.
        """
        if memo is None or memo.store is not view.store:
            memo = VerdictMemo(view.store)
        verdicts = memo.verdicts_for(self.kind, self.params())
        actions_of = memo.actions_of
        sig_of = view.engine.signature
        if scope is None:
            weigh = Predicate.sat_count
        else:
            scope_sig = scope.engine.signature(scope)
            and_count = view.engine.bdd.and_count
            scope_bdd, scope_node = scope.engine.bdd, scope.node
            pairs: Dict[int, int] = {}

            def weigh(pred: Predicate) -> int:
                return and_count(pred.node, scope_bdd, scope_node, pairs)

        count = 0
        for pred, vector in view.entries():
            if deadline is not None and time.monotonic() > deadline:
                raise QueryTimeoutError(
                    f"{self.kind} query exceeded its deadline mid-walk"
                )
            if scope is not None and not sig_of(pred) & scope_sig:
                continue
            hit = verdicts.get(vector)
            if hit is None:
                hit = verdicts[vector] = classify(actions_of(vector))
            if hit:
                count += weigh(pred)
        return count

    def evaluate(
        self,
        view: FrozenReadView,
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
        view: FrozenReadView,
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
        total = (view.universe if scope is None else scope).sat_count()
        return QueryAnswer(holds=delivered == total, headers=delivered)


class LoopQuery(Query):
    """Is the scoped header space free of forwarding loops?

    ``headers`` counts the scoped headers whose graph has a cycle.
    """

    kind = "loop"

    def evaluate(
        self,
        view: FrozenReadView,
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
        view: FrozenReadView,
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
