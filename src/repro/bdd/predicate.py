"""Counting predicate layer on top of the raw BDD engine.

The paper reports "#Predicate Operations" — the number of conjunction (∧),
disjunction (∨) and negation (¬) operations each verifier issues — as the
machine-independent performance metric of Table 3.  This module provides:

* :class:`PredicateEngine` — owns a :class:`~repro.bdd.engine.BDD` and counts
  every predicate operation issued through it into a telemetry
  :class:`~repro.telemetry.MetricsRegistry` (``predicate.ops.*``
  counters), exposed through the stable ``engine.metrics`` accessor;
* :class:`Predicate` — an immutable handle supporting ``&``, ``|``, ``~``,
  ``-`` (difference) and set-style queries, hashable and comparable in O(1)
  thanks to BDD canonicity.

All higher layers (Fast IMT, CE2D, APKeep*) speak :class:`Predicate`;
Delta-net* uses intervals instead and counts its interval operations through
the same :class:`~repro.telemetry.OpMetrics` interface so Table 3 is
comparable.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Tuple

from ..telemetry import MetricsRegistry, OpMetrics
from .engine import BDD, FALSE, SWEEP_FLOOR, TRUE, BddStats


class Predicate:
    """An immutable boolean function over the engine's header variables.

    Two predicates from the same engine are equal iff their BDD node ids are
    equal (ROBDD canonicity), so ``==`` and ``hash`` are O(1).

    Every live handle is a garbage-collection root: the owning engine
    tracks handles through weak references, so
    :meth:`PredicateEngine.collect` preserves exactly the predicates the
    caller can still name.
    """

    __slots__ = ("engine", "node", "_sig", "__weakref__")

    def __init__(self, engine: "PredicateEngine", node: int) -> None:
        self.engine = engine
        self.node = node
        # Lazily computed cofactor signature (PredicateEngine.signature);
        # immutable once set, like the function this handle names.
        self._sig: Optional[int] = None
        engine._handles[node] = self

    # -- algebra -------------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return self.engine.conj(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return self.engine.disj(self, other)

    def __invert__(self) -> "Predicate":
        return self.engine.neg(self)

    def __sub__(self, other: "Predicate") -> "Predicate":
        return self.engine.diff(self, other)

    def __xor__(self, other: "Predicate") -> "Predicate":
        return self.engine.xor(self, other)

    def split(self, other: "Predicate") -> Tuple["Predicate", "Predicate"]:
        """``(self & other, self - other)`` in one engine traversal."""
        return self.engine.split(self, other)

    # -- queries -------------------------------------------------------
    @property
    def is_false(self) -> bool:
        return self.node == FALSE

    @property
    def is_true(self) -> bool:
        return self.node == TRUE

    def intersects(self, other: "Predicate") -> bool:
        return (self & other).node != FALSE

    def sat_count(self) -> int:
        return self.engine.bdd.sat_count(self.node)

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        return self.engine.bdd.evaluate(self.node, assignment)

    def any_assignment(self) -> Optional[Dict[int, bool]]:
        return self.engine.bdd.any_assignment(self.node)

    def node_count(self) -> int:
        return self.engine.bdd.node_count(self.node)

    # -- identity ------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Predicate)
            and other.engine is self.engine
            and other.node == self.node
        )

    def __hash__(self) -> int:
        return hash((id(self.engine), self.node))

    def __bool__(self) -> bool:  # guard against `if pred:` ambiguity
        raise TypeError(
            "Predicate truthiness is ambiguous; use .is_false / .is_true"
        )

    def __repr__(self) -> str:
        if self.node == FALSE:
            return "Predicate(⊥)"
        if self.node == TRUE:
            return "Predicate(⊤)"
        return f"Predicate(node={self.node})"


class Remainder:
    """What is left of a region after the parts taken out of it so far.

    Algorithm 1 carves a region with rule matches, one BDD walk per
    match.  The remainder is held as a bare node id, not a
    :class:`Predicate`, so a step makes a handle only for what it hands
    back: a handle made and dropped per step costs more than a typical
    walk.  A bare id is no GC root, so a remainder is used only where no
    sweep can run, within one block (:meth:`PredicateEngine.collect_if_grown`).
    Each step counts the operations its :class:`PredicateEngine`
    counterpart counts.
    """

    __slots__ = ("engine", "node")

    def __init__(self, region: Predicate) -> None:
        self.engine = region.engine
        self.node = region.node

    @property
    def is_false(self) -> bool:
        return self.node == FALSE

    def take(self, part: Predicate) -> None:
        """Take ``part`` out: ``rest ← rest ∧ ¬part`` (as :meth:`~PredicateEngine.diff`)."""
        engine = self.engine
        engine._check(part, part)
        engine._c_conj.value += 1
        engine._c_neg.value += 1
        self.node = engine.bdd.apply_diff(self.node, part.node)

    def claim(self, part: Predicate) -> Predicate:
        """Take ``part`` out and return what of it was left, in one walk
        (as :meth:`~PredicateEngine.split`)."""
        engine = self.engine
        engine._check(part, part)
        engine._c_conj.value += 1
        engine._c_neg.value += 1
        claimed, self.node = engine.bdd.apply_split(self.node, part.node)
        return engine.pred(claimed)

    def share(self, part: Predicate) -> Predicate:
        """What of ``part`` is left, leaving the remainder as it is (as
        :meth:`~PredicateEngine.conj`)."""
        engine = self.engine
        engine._check(part, part)
        engine._c_conj.value += 1
        return engine.pred(engine.bdd.apply_and(self.node, part.node))


class _BddGauges:
    """A registry's one ``bdd.*`` collector: totals over its engines.

    Engines that share a registry (a partitioned ``Flash`` has one per
    subspace) share the gauge names, so a collector per engine would
    leave the last engine's numbers standing as the system's.  Counts
    and sizes are summed.  The op-cache bound is the constant
    ``CACHE_LIMIT``, not a measurement, so no gauge carries it: a sum
    over engines would report a multiple of it.
    """

    def __init__(self) -> None:
        self.engines: List["PredicateEngine"] = []

    @classmethod
    def of(cls, registry: MetricsRegistry) -> "_BddGauges":
        for collector in registry.collectors:
            if isinstance(collector, cls):
                return collector
        gauges = cls()
        registry.add_collector(gauges)
        return gauges

    def __call__(self, registry: MetricsRegistry) -> None:
        """Mirror the engines' hot-path BDD tallies into ``bdd.*`` gauges."""
        total = BddStats()
        live = allocated = cache_size = unique_size = 0
        for engine in self.engines:
            bdd = engine.bdd
            total.add(bdd.stats)
            live += engine.live_nodes
            allocated += bdd.num_nodes
            if hasattr(bdd, "cache_size"):  # not the tests' reference oracle
                cache_size += bdd.cache_size
                unique_size += bdd.unique_used
        total.publish(registry)
        registry.gauge("bdd.nodes").set(live)
        registry.gauge("bdd.nodes.allocated").set(allocated)
        registry.gauge("bdd.cache.size").set(cache_size)
        registry.gauge("bdd.unique.size").set(unique_size)


class PredicateEngine:
    """Factory and operation accountant for :class:`Predicate` objects.

    Three facts the layers above rely on (``docs/bdd_engine.md``):
    ``pred.node`` is a canonical id with ``FALSE == 0`` / ``TRUE == 1``,
    so semantic equality is id equality and dicts key on it; every live
    handle is a GC root; variable 0 is the header MSB and
    :meth:`signature` is the 8-variable cofactor-occupancy mask, which
    composes over ``|``.

    The engine collects itself: whoever owns a long-lived engine calls
    :meth:`collect_if_grown` where no operation is mid-flight (a
    ``ModelWriter`` at the end of every block), and the engine decides
    from its own growth whether to sweep.  Freed ids are reused, so the
    hard rule for everything above is: what outlives a block holds
    :class:`Predicate` handles, never a bare ``pred.node`` —
    a dict keyed by node id keeps the handle in the value.

    Parameters
    ----------
    num_vars:
        Number of boolean header variables.
    registry:
        Telemetry registry the op counters land in.  Pass a shared
        registry (e.g. a ``Flash`` system's) to aggregate across engines;
        a private one is created when omitted.
    bdd:
        Pre-built node store to wrap instead of a fresh :class:`BDD`.
        The seam through which the equivalence tests drive the same
        predicate workload over the reference oracle
        (``tests/bdd_reference.py``).
    """

    def __init__(
        self,
        num_vars: int,
        registry: Optional[MetricsRegistry] = None,
        *,
        bdd=None,
    ) -> None:
        if bdd is not None and bdd.num_vars != num_vars:
            raise ValueError(
                f"injected BDD has {bdd.num_vars} vars, expected {num_vars}"
            )
        self.bdd = bdd if bdd is not None else BDD(num_vars)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics = OpMetrics(self.registry)
        # Direct counter handles for the hot paths below.
        self._c_conj = self.metrics._conj
        self._c_disj = self.metrics._disj
        self._c_neg = self.metrics._neg
        _BddGauges.of(self.registry).engines.append(self)
        # Live handles double as GC roots, interned per node id: one
        # weakly-referenced handle per node, so equal predicates share a
        # handle and a node stays rooted exactly while *some* handle for
        # it is alive.  (A WeakSet would dedupe by equality and silently
        # drop the tracking entry with the first of two equal handles.)
        self._handles: "weakref.WeakValueDictionary[int, Predicate]" = (
            weakref.WeakValueDictionary()
        )
        self._false = Predicate(self, FALSE)
        self._true = Predicate(self, TRUE)

    # -- constants -----------------------------------------------------
    @property
    def false(self) -> Predicate:
        return self._false

    @property
    def true(self) -> Predicate:
        return self._true

    @property
    def num_vars(self) -> int:
        return self.bdd.num_vars

    # -- construction --------------------------------------------------
    def pred(self, node: int) -> Predicate:
        if node == FALSE:
            return self._false
        if node == TRUE:
            return self._true
        got = self._handles.get(node)
        if got is not None:
            return got
        return Predicate(self, node)

    def variable(self, i: int) -> Predicate:
        return self.pred(self.bdd.ith_var(i))

    def literal(self, i: int, value: bool) -> Predicate:
        return self.pred(self.bdd.literal(i, value))

    def cube(self, literals: Iterable[Tuple[int, bool]]) -> Predicate:
        """Conjunction of literals; counted as a single predicate operation."""
        self._c_conj.value += 1
        return self.pred(self.bdd.cube(literals))

    def ite(self, f: Predicate, g: Predicate, h: Predicate) -> Predicate:
        """If-then-else; counted as one conjunction and one disjunction."""
        self._check(f, g)
        self._check(g, h)
        self._c_conj.value += 1
        self._c_disj.value += 1
        return self.pred(self.bdd.ite(f.node, g.node, h.node))

    # -- counted operations --------------------------------------------
    def conj(self, a: Predicate, b: Predicate) -> Predicate:
        self._check(a, b)
        self._c_conj.value += 1
        return self.pred(self.bdd.apply_and(a.node, b.node))

    def disj(self, a: Predicate, b: Predicate) -> Predicate:
        self._check(a, b)
        self._c_disj.value += 1
        return self.pred(self.bdd.apply_or(a.node, b.node))

    def neg(self, a: Predicate) -> Predicate:
        self._check(a, a)
        self._c_neg.value += 1
        return self.pred(self.bdd.negate(a.node))

    def diff(self, a: Predicate, b: Predicate) -> Predicate:
        """a ∧ ¬b, counted as one conjunction and one negation."""
        self._check(a, b)
        self._c_conj.value += 1
        self._c_neg.value += 1
        return self.pred(self.bdd.apply_diff(a.node, b.node))

    def xor(self, a: Predicate, b: Predicate) -> Predicate:
        self._check(a, b)
        self._c_conj.value += 1
        return self.pred(self.bdd.apply_xor(a.node, b.node))

    def split(self, a: Predicate, b: Predicate) -> Tuple[Predicate, Predicate]:
        """``(a ∧ b, a ∧ ¬b)`` sharing one traversal of ``a``.

        Counted as one conjunction and one negation — the pair costs
        one engine walk, versus two conjunctions and a negation for
        ``(a & b, a - b)`` computed separately.
        """
        self._check(a, b)
        self._c_conj.value += 1
        self._c_neg.value += 1
        inter, rest = self.bdd.apply_split(a.node, b.node)
        return self.pred(inter), self.pred(rest)

    def disj_many(self, preds: Iterable[Predicate]) -> Predicate:
        """``∨ preds``, disjoined pairwise in a balanced tree.

        Still ``n - 1`` disjunctions, but each operand is the union of
        at most half of the inputs, where a left fold's left operand is
        the union of every input before it.  The intermediate unions are
        bare node ids, like a :class:`Remainder`'s (no sweep can run
        inside the call), so only the result gets a handle.
        """
        level = []
        for pred in preds:
            self._check(pred, pred)
            level.append(pred.node)
        if not level:
            return self._false
        self._c_disj.value += len(level) - 1
        apply_or = self.bdd.apply_or
        while len(level) > 1:
            paired = [apply_or(a, b) for a, b in zip(level[::2], level[1::2])]
            if len(level) % 2:
                paired.append(level[-1])
            level = paired
        return self.pred(level[0])

    # -- cross-engine ---------------------------------------------------
    def import_predicate(self, pred: Predicate) -> Predicate:
        """Rebuild a predicate from another engine inside this one.

        Both engines must use the same variable order (the layouts must
        agree); node ids are remapped structurally through this engine's
        unique table, so already-known subgraphs dedupe instead of
        allocating, the result is the same boolean function, and BDD
        equality across engines reduces to
        ``self.import_predicate(a) == self.import_predicate(b)``.
        """
        return self.import_predicates([pred])[0]

    def import_predicates(
        self, preds: Iterable[Predicate]
    ) -> List[Predicate]:
        """Bulk :meth:`import_predicate`: one iterative walk for the set.

        The walk keeps one memo per source node store, so structure that
        several handles share (an EC table: hundreds of handles over a
        few hundred distinct subgraphs) is rebuilt once.  Handles from
        this engine's own store come back without a walk; a source with
        more variables than this engine is a :class:`ValueError`.
        """
        mk = self.bdd._mk  # noqa: SLF001
        # Source store -> {source reference: destination reference}.
        # decompose() abstracts the node encoding (plain ids vs complement
        # edges), so any source/destination pairing works.
        memos: Dict[object, Dict[int, int]] = {}
        out: List[Predicate] = []
        for pred in preds:
            src = pred.engine
            if src.bdd is self.bdd:
                out.append(self.pred(pred.node))
                continue
            memo = memos.get(src.bdd)
            if memo is None:
                if src.num_vars > self.num_vars:
                    raise ValueError(
                        f"cannot import predicate over {src.num_vars} vars "
                        f"into an engine with {self.num_vars}"
                    )
                memo = memos[src.bdd] = {FALSE: FALSE, TRUE: TRUE}
            decompose = src.bdd.decompose
            stack = [pred.node]
            while stack:
                node = stack[-1]
                if node in memo:
                    stack.pop()
                    continue
                var, lo, hi = decompose(node)
                lo_mapped = memo.get(lo)
                hi_mapped = memo.get(hi)
                if lo_mapped is not None and hi_mapped is not None:
                    memo[node] = mk(var, lo_mapped, hi_mapped)
                    stack.pop()
                else:
                    if hi_mapped is None:
                        stack.append(hi)
                    if lo_mapped is None:
                        stack.append(lo)
            out.append(self.pred(memo[pred.node]))
        return out

    # -- garbage collection ---------------------------------------------
    def collect(self) -> int:
        """Mark-and-sweep the node store; returns the node count freed.

        The roots are the live :class:`Predicate` handles (tracked
        weakly), passed to :meth:`~repro.bdd.engine.BDD.collect`.  Safe
        whenever no operation is mid-flight.  No-op (returns 0) when the
        underlying store has no collector (e.g. the tests' reference
        oracle).

        A handle may die on any thread (a serve reader unpinning a retired
        snapshot), whose weak-reference callback then deletes its entry.
        So the roots come from a ``dict.copy`` of the table, one C call
        no thread can interleave with, not from iterating the weak
        dictionary, whose iteration guard a removal can slip past.
        """
        bdd_collect = getattr(self.bdd, "collect", None)
        if bdd_collect is None:
            return 0
        return bdd_collect(self._handles.data.copy())

    def collect_if_grown(self) -> int:
        """The sweep rule: :meth:`collect` once the store has doubled.

        Sweeps when the live nodes number at least twice those that
        survived the last sweep — the usual heap-growth factor: a sweep
        costs time linear in the store and runs only after as many
        allocations again, so sweeping is amortised constant work per
        node allocated and the store stays within about twice what is
        reachable — and at least
        :data:`~repro.bdd.engine.SWEEP_FLOOR`.  Returns the node count
        freed, 0 when the rule did not fire.

        The owner of a long-lived engine calls this where it knows no
        operation is mid-flight.  In the product that is a model writer's
        engine, swept between blocks by
        :meth:`~repro.core.model_manager.ModelWriter.flush` on the
        writer's own thread; a read view's scope engine is never swept
        and goes with its view.  There is no threshold to set and no
        switch: an engine nobody sweeps dies of its garbage.
        """
        bdd = self.bdd
        survived = bdd.stats.gc_last_live
        if getattr(bdd, "live_node_count", 0) < max(SWEEP_FLOOR, 2 * survived):
            return 0
        return self.collect()

    # -- bookkeeping -----------------------------------------------------
    def _check(self, a: Predicate, b: Predicate) -> None:
        if a.engine is not self or b.engine is not self:
            raise ValueError("predicates belong to a different engine")

    @property
    def live_nodes(self) -> int:
        return getattr(self.bdd, "live_node_count", self.bdd.num_nodes)

    def memory_estimate_bytes(self) -> int:
        """Rough memory footprint: ~40 bytes per BDD node (3 ints + tables)."""
        return self.bdd.num_nodes * 40

    #: Signature horizon: masks cover the first 8 variables (256 cells).
    SIG_BITS = 8

    def signature(self, pred: Predicate) -> int:
        """Cofactor-occupancy bitmask over the first :data:`SIG_BITS` vars.

        Bit ``i`` is set iff the cofactor of ``pred`` under the ``i``-th
        assignment of variables ``0..SIG_BITS-1`` is satisfiable.  Two
        predicates with non-intersecting signatures are provably
        disjoint (``sig(a) & sig(b) == 0  ⇒  a ∧ b = ⊥``), so the mask
        is an O(1) disjointness filter that avoids a full conjunction —
        the workhorse of the EC-table fast apply path, where most
        (EC, overwrite) pairs never overlap.  Signatures compose over
        disjunction (``sig(a|b) == sig(a)|sig(b)``) and over-approximate
        under conjunction (``sig(a&b) ⊆ sig(a)&sig(b)``), so callers can
        maintain them incrementally without re-walking.

        The result is memoized on the handle (a predicate is an
        immutable function, so its signature never changes); the first
        call walks at most ``O(nodes × SIG_BITS)`` edges via the
        encoding-agnostic :meth:`decompose`, far less than one apply,
        and works on both engines.
        """
        self._check(pred, pred)
        cached = pred._sig
        if cached is not None:
            return cached
        bits = self.SIG_BITS
        if self.num_vars < bits:
            bits = self.num_vars
        decompose = self.bdd.decompose
        memo: Dict[Tuple[int, int], int] = {}

        def occupancy(u: int, level: int) -> int:
            if u == FALSE:
                return 0
            width = 1 << (bits - level)
            if level == bits or u == TRUE:
                return (1 << width) - 1
            key = (u, level)
            r = memo.get(key)
            if r is None:
                var, lo, hi = decompose(u)
                if var >= bits:
                    # Entirely below the horizon and not ⊥: every cell
                    # in this subtree is occupied.
                    r = (1 << width) - 1
                elif var > level:
                    m = occupancy(u, level + 1)
                    r = (m << (width >> 1)) | m
                else:
                    r = (occupancy(hi, level + 1) << (width >> 1)) | occupancy(
                        lo, level + 1
                    )
                memo[key] = r
            return r

        sig = occupancy(pred.node, 0)
        pred._sig = sig
        return sig

    def shared_node_count(self, preds: Iterable[Predicate]) -> int:
        """Distinct non-terminal nodes reachable from the given predicates.

        Counts the union DAG once — shared subgraphs are not double
        counted, unlike summing per-predicate ``node_count()``.
        """
        bdd = self.bdd
        comp = bool(getattr(bdd, "complement_edges", False))
        decompose = bdd.decompose
        seen = set()
        stack: List[int] = []
        for p in preds:
            self._check(p, p)
            stack.append(p.node & ~1 if comp else p.node)
        while stack:
            k = stack.pop()
            if k <= TRUE or k in seen:
                continue
            seen.add(k)
            _, lo, hi = decompose(k)
            stack.append(lo & ~1 if comp else lo)
            stack.append(hi & ~1 if comp else hi)
        return len(seen)
