"""The union evaluation of served queries, kept as the oracle of the sum.

:meth:`~repro.serve.queries.Query.evaluate` counts a query's witness
headers EC by EC: each witness EC's share of the scope, summed, with ECs
whose signature misses the scope skipped unclassified.  The batch oracle
and ``repro serve --quick`` evaluate through that same code, so they
cannot catch a wrong sum.  :func:`evaluate_by_union` is the evaluation it
replaced: OR every witness EC of the view into one predicate, then
``&`` / ``-`` it with the scope and take one ``sat_count``, with no
signature test, and it classifies each EC with the brute-force oracle's
graph searches (:mod:`repro.difftest.oracle`), not the product's
(:mod:`repro.ce2d.forwarding`).  It compiles the scope in the view's own
engine, where the product compiles it in a private scope engine and
counts across the two stores, so a wrong cross-store count shows too.  ``tests/test_serve.py`` holds the two
evaluations equal, so a wrong sum and a wrong classifier both show.

Do not optimise this module — its value is that it stays the known-good
semantics.
"""

from repro.difftest.oracle import (
    forwarding_cycle,
    reaches_external,
    reaches_external_avoiding,
)
from repro.serve.queries import (
    LoopQuery,
    QueryAnswer,
    ReachabilityQuery,
    WaypointQuery,
)


def witness_union(view, classify):
    """OR of the view's ECs whose forwarding graph satisfies ``classify``."""
    out = view.engine.false
    for pred, vector in view.entries():
        if classify(lambda d, v=vector: view.action_of(v, d)):
            out = out | pred
    return out


def scope_in_view_engine(query, view):
    """The query's scope within the view's universe, in the view's engine."""
    if query.scope is None:
        return view.universe
    return query.scope.to_predicate(view.engine, view.layout) & view.universe


def evaluate_by_union(query, view, topology) -> QueryAnswer:
    scope = scope_in_view_engine(query, view)
    if isinstance(query, ReachabilityQuery):
        delivered = witness_union(
            view, lambda action_of: reaches_external(topology, action_of, query.source)
        )
        return QueryAnswer(
            holds=(scope - delivered).is_false,
            headers=(scope & delivered).sat_count(),
        )
    if isinstance(query, LoopQuery):
        looping = witness_union(
            view, lambda action_of: forwarding_cycle(topology, action_of)
        )
        trapped = scope & looping
        return QueryAnswer(holds=trapped.is_false, headers=trapped.sat_count())
    if isinstance(query, WaypointQuery):
        bypass = witness_union(
            view,
            lambda action_of: reaches_external_avoiding(
                topology, action_of, query.source, query.waypoint
            ),
        )
        escaped = scope & bypass
        return QueryAnswer(holds=escaped.is_false, headers=escaped.sat_count())
    raise TypeError(f"no union evaluation for {query!r}")
