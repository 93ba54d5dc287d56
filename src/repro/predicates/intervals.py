"""The interval-set predicate backend.

Delta-net's observation (PAPERS.md) is that on prefix-only FIBs — most of
the LNet workload — header spaces are unions of a handful of machine-int
ranges, and range arithmetic beats BDD traversal by a wide margin.  This
module promotes :class:`~repro.headerspace.intervals.IntervalSet` from a
baseline-internal data type into a first-class
:class:`~repro.predicates.protocol.PredicateBackend`: the inverse model,
MR2, the CE2D checkers and the difftest compare layer all run against it
unchanged.

Canonicity comes from hash-consing: every distinct interval set is
interned once and named by a small integer ``node`` id, with ``0`` = ⊥
(the empty set) and ``1`` = ⊤ (the universe), mirroring the BDD engine's
``FALSE``/``TRUE`` edges.  Handle equality and hashing are therefore O(1)
and dictionaries keyed on ``node`` (EC lineage, ``reduce_by_predicate``,
the regex verifier) work identically on both backends.

The representation-specific failure mode is *expansion*: a suffix or
mixed-field pattern explodes into up to ``2**(#high wildcards)``
intervals (the paper's Delta-net*-on-LNet-smr degradation).  The backend
caps expansion at ``max_intervals`` and raises
:class:`~repro.errors.HeaderSpaceError` beyond it; the cost-model
selector (:mod:`repro.predicates.select`) exists precisely to route such
workloads to the BDD backend instead.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import HeaderSpaceError
from ..headerspace.intervals import IntervalSet, ternary_to_intervals
from ..telemetry import MetricsRegistry, OpMetrics

FALSE = 0
TRUE = 1


def _range_to_ternaries(lo: int, hi: int, width: int) -> List[Tuple[int, int]]:
    """Minimal prefix cover of [lo, hi] as (value, mask) ternaries."""
    full = (1 << width) - 1
    out: List[Tuple[int, int]] = []
    while lo <= hi:
        size = lo & -lo if lo else full + 1
        while lo + size - 1 > hi:
            size >>= 1
        out.append((lo, full & ~(size - 1)))
        lo += size
    return out


class IntervalPredicate:
    """An immutable header set held as disjoint maximal intervals.

    Mirrors :class:`~repro.bdd.predicate.Predicate` exactly: same
    operators, same O(1) equality/hash by canonical ``node`` id, same
    ``__bool__`` guard.
    """

    __slots__ = ("engine", "node", "iset", "_sig", "__weakref__")

    def __init__(
        self, engine: "IntervalBackend", node: int, iset: IntervalSet
    ) -> None:
        self.engine = engine
        self.node = node
        self.iset = iset
        self._sig: Optional[int] = None
        engine._handles[node] = self

    # -- algebra -------------------------------------------------------
    def __and__(self, other: "IntervalPredicate") -> "IntervalPredicate":
        return self.engine.conj(self, other)

    def __or__(self, other: "IntervalPredicate") -> "IntervalPredicate":
        return self.engine.disj(self, other)

    def __invert__(self) -> "IntervalPredicate":
        return self.engine.neg(self)

    def __sub__(self, other: "IntervalPredicate") -> "IntervalPredicate":
        return self.engine.diff(self, other)

    def __xor__(self, other: "IntervalPredicate") -> "IntervalPredicate":
        return self.engine.xor(self, other)

    def split(
        self, other: "IntervalPredicate"
    ) -> Tuple["IntervalPredicate", "IntervalPredicate"]:
        """``(self & other, self - other)`` in one counted operation."""
        return self.engine.split(self, other)

    # -- queries -------------------------------------------------------
    @property
    def is_false(self) -> bool:
        return self.node == FALSE

    @property
    def is_true(self) -> bool:
        return self.node == TRUE

    def intersects(self, other: "IntervalPredicate") -> bool:
        return not self.iset.intersection(other.iset).is_empty

    def covers(self, other: "IntervalPredicate") -> bool:
        """Whether ``other`` ⊆ ``self``."""
        return self.iset.covers(other.iset)

    def sat_count(self) -> int:
        return self.iset.cardinality()

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        """Evaluate under a variable assignment (missing vars = False)."""
        n = self.engine.num_vars
        header = 0
        for var, bit in assignment.items():
            if bit and 0 <= var < n:
                header |= 1 << (n - 1 - var)
        return self.iset.contains(header)

    def any_assignment(self) -> Optional[Dict[int, bool]]:
        if self.iset.is_empty:
            return None
        n = self.engine.num_vars
        header = self.iset.sample()
        return {i: bool((header >> (n - 1 - i)) & 1) for i in range(n)}

    def node_count(self) -> int:
        """Representation size: interval count (terminals count as 1)."""
        return max(1, len(self.iset))

    # -- identity ------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntervalPredicate)
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
            return "IntervalPredicate(⊥)"
        if self.node == TRUE:
            return "IntervalPredicate(⊤)"
        return f"IntervalPredicate(node={self.node}, {self.iset!r})"


class IntervalBackend:
    """Hash-consing factory and accountant for :class:`IntervalPredicate`.

    Drop-in counterpart of :class:`~repro.bdd.predicate.PredicateEngine`
    over the same ``num_vars`` header variables (variable 0 = MSB of the
    flattened header).  Interval sets have no shared substructure to
    reclaim, so :meth:`collect` is a no-op returning 0 and pins are
    accepted but unnecessary.
    """

    backend_name = "intervals"

    #: Signature horizon, identical to the BDD engine's (256 cells).
    SIG_BITS = 8

    def __init__(
        self,
        num_vars: int,
        registry: Optional[MetricsRegistry] = None,
        *,
        max_intervals: int = 1 << 16,
    ) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self._num_vars = num_vars
        self.universe_size = 1 << num_vars
        self.max_intervals = max_intervals
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics = OpMetrics(self.registry)
        self._c_conj = self.metrics._conj
        self._c_disj = self.metrics._disj
        self._c_neg = self.metrics._neg
        # node id → interval set; interval tuple → node id.  Terminals
        # occupy ids 0/1 so `.node` semantics match the BDD engine.
        empty = IntervalSet.empty()
        universe = IntervalSet.universe(self.universe_size)
        self._sets: List[IntervalSet] = [empty, universe]
        self._interned: Dict[Tuple[Tuple[int, int], ...], int] = {
            empty.intervals: FALSE,
            universe.intervals: TRUE,
        }
        self._handles: "weakref.WeakValueDictionary[int, IntervalPredicate]" = (
            weakref.WeakValueDictionary()
        )
        self._false = IntervalPredicate(self, FALSE, empty)
        self._true = IntervalPredicate(self, TRUE, universe)
        self.registry.gauge("predicates.intervals.interned").set(2)

    # -- interning -----------------------------------------------------
    def _intern(self, iset: IntervalSet) -> int:
        node = self._interned.get(iset.intervals)
        if node is None:
            if len(iset) > self.max_intervals:
                raise HeaderSpaceError(
                    f"interval set has {len(iset)} intervals "
                    f"(> max_intervals={self.max_intervals}); "
                    "use the BDD backend for this workload"
                )
            node = len(self._sets)
            self._sets.append(iset)
            self._interned[iset.intervals] = node
            self.registry.gauge("predicates.intervals.interned").set(node + 1)
        return node

    def from_intervals(self, iset: IntervalSet) -> IntervalPredicate:
        """Wrap an interval set (must lie within the universe)."""
        if not iset.is_empty and iset.intervals[-1][1] >= self.universe_size:
            raise HeaderSpaceError(
                f"interval set exceeds the {self._num_vars}-bit universe"
            )
        return self.pred(self._intern(iset))

    def interval_set(self, node: int) -> IntervalSet:
        return self._sets[node]

    # -- constants -----------------------------------------------------
    @property
    def false(self) -> IntervalPredicate:
        return self._false

    @property
    def true(self) -> IntervalPredicate:
        return self._true

    @property
    def num_vars(self) -> int:
        return self._num_vars

    # -- construction --------------------------------------------------
    def pred(self, node: int) -> IntervalPredicate:
        if node == FALSE:
            return self._false
        if node == TRUE:
            return self._true
        got = self._handles.get(node)
        if got is not None:
            return got
        return IntervalPredicate(self, node, self._sets[node])

    def variable(self, i: int) -> IntervalPredicate:
        return self.literal(i, True)

    def literal(self, i: int, value: bool) -> IntervalPredicate:
        if not 0 <= i < self._num_vars:
            raise IndexError(
                f"variable {i} out of range [0, {self._num_vars})"
            )
        weight = 1 << (self._num_vars - 1 - i)
        mask = weight
        val = weight if value else 0
        return self.from_intervals(
            IntervalSet(ternary_to_intervals(val, mask, self._num_vars))
        )

    def cube(self, literals: Iterable[Tuple[int, bool]]) -> IntervalPredicate:
        """Conjunction of literals; counted as one predicate operation."""
        self._c_conj.value += 1
        value = 0
        mask = 0
        n = self._num_vars
        for var, bit in literals:
            if not 0 <= var < n:
                raise IndexError(f"variable {var} out of range [0, {n})")
            weight = 1 << (n - 1 - var)
            mask |= weight
            if bit:
                value |= weight
        return self.from_intervals(
            IntervalSet(
                ternary_to_intervals(value, mask, n, self.max_intervals)
            )
        )

    def ite(
        self,
        f: IntervalPredicate,
        g: IntervalPredicate,
        h: IntervalPredicate,
    ) -> IntervalPredicate:
        """If-then-else; counted as one conjunction and one disjunction."""
        self._check(f, g)
        self._check(g, h)
        self._c_conj.value += 1
        self._c_disj.value += 1
        taken = f.iset.intersection(g.iset)
        other = h.iset.difference(f.iset)
        return self.from_intervals(taken.union(other))

    # -- counted operations --------------------------------------------
    def conj(
        self, a: IntervalPredicate, b: IntervalPredicate
    ) -> IntervalPredicate:
        self._check(a, b)
        self._c_conj.value += 1
        return self.from_intervals(a.iset.intersection(b.iset))

    def disj(
        self, a: IntervalPredicate, b: IntervalPredicate
    ) -> IntervalPredicate:
        self._check(a, b)
        self._c_disj.value += 1
        return self.from_intervals(a.iset.union(b.iset))

    def neg(self, a: IntervalPredicate) -> IntervalPredicate:
        self._check(a, a)
        self._c_neg.value += 1
        return self.from_intervals(a.iset.complement(self.universe_size))

    def diff(
        self, a: IntervalPredicate, b: IntervalPredicate
    ) -> IntervalPredicate:
        """a ∧ ¬b, counted as one conjunction and one negation."""
        self._check(a, b)
        self._c_conj.value += 1
        self._c_neg.value += 1
        return self.from_intervals(a.iset.difference(b.iset))

    def xor(
        self, a: IntervalPredicate, b: IntervalPredicate
    ) -> IntervalPredicate:
        self._check(a, b)
        self._c_conj.value += 1
        return self.from_intervals(
            a.iset.difference(b.iset).union(b.iset.difference(a.iset))
        )

    def split(
        self, a: IntervalPredicate, b: IntervalPredicate
    ) -> Tuple[IntervalPredicate, IntervalPredicate]:
        """``(a ∧ b, a ∧ ¬b)``; counted as one conjunction + one negation."""
        self._check(a, b)
        self._c_conj.value += 1
        self._c_neg.value += 1
        return (
            self.from_intervals(a.iset.intersection(b.iset)),
            self.from_intervals(a.iset.difference(b.iset)),
        )

    def disj_many(
        self, preds: Iterable[IntervalPredicate]
    ) -> IntervalPredicate:
        result = self._false
        for p in preds:
            result = self.disj(result, p)
        return result

    def conj_many(
        self, preds: Iterable[IntervalPredicate]
    ) -> IntervalPredicate:
        result = self._true
        for p in preds:
            result = self.conj(result, p)
        return result

    # -- pruning masks -------------------------------------------------
    def signature(self, pred: IntervalPredicate) -> int:
        """Occupancy bitmask over the first :data:`SIG_BITS` variables.

        Bit ``i`` is set iff the set intersects the flattened-header
        range whose top ``SIG_BITS`` bits equal ``i`` — the *same* mask
        the BDD engine computes by cofactor walking, so signatures are
        comparable across backends and the EC-table fast-apply pruning
        (``mr2.apply.*``) works identically.
        """
        self._check(pred, pred)
        cached = pred._sig
        if cached is not None:
            return cached
        bits = self.SIG_BITS
        if self._num_vars < bits:
            bits = self._num_vars
        rest = self._num_vars - bits
        sig = 0
        for lo, hi in pred.iset:
            first = lo >> rest
            last = hi >> rest
            sig |= ((1 << (last - first + 1)) - 1) << first
        pred._sig = sig
        return sig

    # -- cube enumeration ----------------------------------------------
    def iter_cubes(self, node: int) -> Iterator[Dict[int, bool]]:
        """Disjoint cube cover (variable → bit), prefix cover per interval.

        Same contract as :meth:`repro.bdd.engine.BDD.iter_cubes`, which
        keeps :mod:`repro.headerspace.format` rendering backend-agnostic.
        """
        n = self._num_vars
        for lo, hi in self._sets[node]:
            for value, mask in _range_to_ternaries(lo, hi, n):
                yield {
                    i: bool((value >> (n - 1 - i)) & 1)
                    for i in range(n)
                    if (mask >> (n - 1 - i)) & 1
                }

    # -- cross-engine --------------------------------------------------
    def import_predicate(self, pred) -> IntervalPredicate:
        """Rebuild a predicate from any backend inside this one.

        Interval sources copy (and widen) directly; BDD-family sources
        round-trip through the FBW1 wire format, which both families
        speak.  Variable orders must agree; a narrower source widens by
        treating its missing low-order variables as unconstrained.
        """
        if pred.engine is self:
            return self.pred(pred.node)
        src = pred.engine
        if src.num_vars > self._num_vars:
            raise ValueError(
                f"cannot import predicate over {src.num_vars} vars "
                f"into an engine with {self._num_vars}"
            )
        if isinstance(src, IntervalBackend):
            shift = self._num_vars - src.num_vars
            return self.from_intervals(
                IntervalSet(
                    (lo << shift, ((hi + 1) << shift) - 1)
                    for lo, hi in pred.iset
                )
            )
        return self.import_bytes(src.export_bytes([pred]))[0]

    def import_predicates(self, preds: Iterable) -> List[IntervalPredicate]:
        """Bulk :meth:`import_predicate`: one wire blob for the set."""
        preds = list(preds)
        if not preds:
            return []
        src = preds[0].engine
        if all(p.engine is src for p in preds):
            if src is self:
                return [self.pred(p.node) for p in preds]
            if isinstance(src, IntervalBackend):
                return [self.import_predicate(p) for p in preds]
            if src.num_vars > self._num_vars:
                raise ValueError(
                    f"cannot import predicates over {src.num_vars} vars "
                    f"into an engine with {self._num_vars}"
                )
            return self.import_bytes(
                src.export_bytes(preds)
            )
        return [self.import_predicate(p) for p in preds]

    def export_bytes(self, preds: Iterable[IntervalPredicate]) -> bytes:
        """Serialise predicates as one FBW1 blob.

        Intervals have no node sharing of their own, so the sets are
        compiled into a scratch BDD (prefix cover per interval) and
        exported with the standard wire writer — any engine with the
        same variable order can :meth:`import_bytes` the result, which
        is exactly how difftest compares backends in one shared engine.
        """
        from ..bdd import wire
        from ..bdd.engine import BDD

        scratch = BDD(self._num_vars)
        refs = self._compile_to_scratch(scratch, preds)
        return wire.export_blob(scratch, refs)

    def _compile_to_scratch(self, scratch, preds) -> List[int]:
        """Compile interval predicates into refs of a scratch BDD.

        Hash-consing in the scratch store makes equal interval sets
        compile to identical refs, which is what lets the delta writer
        detect unchanged roots across a (base, current) pair compiled
        into one scratch.
        """
        refs: List[int] = []
        for p in preds:
            self._check(p, p)
            node = 0  # FALSE edge
            for lo, hi in p.iset:
                for value, mask in _range_to_ternaries(
                    lo, hi, self._num_vars
                ):
                    n = self._num_vars
                    literals = [
                        (i, bool((value >> (n - 1 - i)) & 1))
                        for i in range(n)
                        if (mask >> (n - 1 - i)) & 1
                    ]
                    node = scratch.apply_or(node, scratch.cube(literals))
            refs.append(node)
        return refs

    def _ref_to_intervals(self, scratch, ref: int) -> IntervalPredicate:
        """Convert one scratch-BDD ref back into an interval predicate."""
        n = self._num_vars
        intervals: List[Tuple[int, int]] = []
        for cube in scratch.iter_cubes(ref):
            value = 0
            mask = 0
            for var, bit in cube.items():
                weight = 1 << (n - 1 - var)
                mask |= weight
                if bit:
                    value |= weight
            intervals.extend(
                ternary_to_intervals(value, mask, n, self.max_intervals)
            )
        return self.from_intervals(IntervalSet(intervals))

    def import_bytes(self, data: bytes) -> List[IntervalPredicate]:
        """Rebuild an FBW1 blob's predicates as interval sets."""
        from ..bdd import wire
        from ..bdd.engine import BDD

        scratch = BDD(self._num_vars)
        refs = wire.import_blob(scratch, data)
        return [self._ref_to_intervals(scratch, ref) for ref in refs]

    def export_delta_bytes(
        self,
        preds: Iterable[IntervalPredicate],
        base_preds: Iterable[IntervalPredicate],
        base_fingerprint: int,
    ) -> bytes:
        """Serialise ``preds`` as an FBW2 delta (or smaller full frame).

        Base and current tables are compiled into *one* scratch BDD, so
        unchanged interval sets land on identical scratch refs and the
        delta writer keeps them as 4-byte slots.  Same contract as the
        BDD engine's method — the receiver must accept FBW1 or FBW2.
        """
        from ..bdd import wire
        from ..bdd.engine import BDD

        scratch = BDD(self._num_vars)
        base_refs = self._compile_to_scratch(scratch, base_preds)
        refs = self._compile_to_scratch(scratch, preds)
        full = wire.export_blob(scratch, refs)
        delta = wire.export_delta_blob(
            scratch, refs, base_refs, base_fingerprint
        )
        return delta if len(delta) < len(full) else full

    def apply_delta_bytes(
        self,
        data: bytes,
        base_preds: Sequence[IntervalPredicate],
        base_fingerprint: int,
    ) -> "Tuple[List[IntervalPredicate], List[Optional[int]]]":
        """Rebuild a chained frame: FBW2 applied to the base, or FBW1.

        Kept roots return the held base predicates directly (no cube
        enumeration); only NEW roots round-trip through the scratch BDD.
        """
        from ..bdd import wire
        from ..bdd.engine import BDD

        if data[:4] == wire.MAGIC:
            preds = self.import_bytes(data)
            return preds, [None] * len(preds)
        scratch = BDD(self._num_vars)
        base_refs = self._compile_to_scratch(scratch, base_preds)
        roots, sources = wire.import_delta_blob(
            scratch, data, base_refs, base_fingerprint
        )
        out: List[IntervalPredicate] = []
        for ref, src in zip(roots, sources):
            if src is not None:
                out.append(base_preds[src])
            else:
                out.append(self._ref_to_intervals(scratch, ref))
        return out, sources

    # -- lifecycle -----------------------------------------------------
    def collect(self, extra_roots: Iterable[int] = ()) -> int:
        """Interval sets are interned forever; nothing to reclaim."""
        return 0

    def pin(self, pred: IntervalPredicate) -> IntervalPredicate:
        self._check(pred, pred)
        return pred

    def unpin(self, pred: IntervalPredicate) -> None:
        self._check(pred, pred)

    # -- bookkeeping ---------------------------------------------------
    def _check(self, a: IntervalPredicate, b: IntervalPredicate) -> None:
        if a.engine is not self or b.engine is not self:
            raise ValueError("predicates belong to a different engine")

    @property
    def live_nodes(self) -> int:
        return len(self._sets)

    def shared_node_count(self, preds: Iterable[IntervalPredicate]) -> int:
        """Distinct intervals across the set (no sub-structure sharing)."""
        seen = set()
        for p in preds:
            self._check(p, p)
            seen.update(p.iset.intervals)
        return len(seen)

    def memory_estimate_bytes(self) -> int:
        """Rough footprint: ~48 bytes per stored interval tuple."""
        return sum(max(1, len(s)) for s in self._sets) * 48
