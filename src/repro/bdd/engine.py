"""High-performance shared ROBDD engine (the paper's JDD equivalent).

The paper's implementation uses JDD, a Java BDD library, as the predicate
substrate; every Flash component — Fast IMT/MR2 model construction, CE2D
verification and both baselines — bottoms out here, so this module is the
hottest code in the repository.  The design follows the classic
array-based BDD package layout (BuDDy/JDD/CUDD):

* **array node store with complement edges** — a function is an integer
  *edge* ``(node_id << 1) | complement``; node 0 is the single terminal,
  so the edges ``FALSE = 0`` and ``TRUE = 1`` keep their historical
  values.  Nodes live in three parallel int lists ``var``/``low``/
  ``high`` (children stored as edges, the high edge always regular for
  canonicity).  Negation is ``edge ^ 1`` — no traversal, no allocation.
* **open-addressed unique table** — hash consing goes through a
  :class:`~repro.core.arraystore.OpenAddressedNodeTable`: one flat list
  of node ids probed linearly, no per-entry key tuples.  Hot loops
  inline the probe.
* **one iterative primitive** — every boolean connective is
  ``ite(f, g, h)``: ``f∧g = ite(f,g,0)``, ``f∨g = ite(f,1,g)``,
  ``f∖g = ite(f,¬g,0)``, ``f⊕g = ite(f,¬g,g)`` and ``¬f`` is the
  complement bit.  The ITE runs on an explicit stack (no recursion, no
  Python frame per node) with standard-triple normalisation — regular
  first argument, regular second argument via De Morgan, commuted
  AND/XNOR operands — so equivalent triples share cache entries.
* **bounded operation cache** — results memoize under the normalised
  ``(f, g, h)`` triple (equivalently ``(op, u, v)``); when the cache
  grows past ``cache_limit`` entries it is wiped wholesale, JDD-style,
  so long sessions cannot grow it without bound.
* **memoized satcount** — per-node model counts memoize across queries
  until a collection invalidates node ids.
* **mark-and-sweep GC** — :meth:`BDD.collect` marks from caller roots,
  :meth:`BDD.pin`-ned edges, registered root providers (the predicate
  layer registers its live handles) and the single-variable functions,
  then sweeps dead nodes onto a free list, truncates the dead tail of
  the arrays and rebuilds the unique table.  Live node ids are never
  renumbered, so outstanding references stay valid.

The original recursive engine survives unchanged as
:class:`repro.bdd.reference.ReferenceBDD` and is used as a semantic
oracle and benchmark baseline; both engines expose
:meth:`BDD.decompose` so structure-walking code (predicate import, the
equivalence tests) is agnostic to the edge encoding.  The engine stays
deliberately free of any networking concepts; packet-header encoding
lives in :mod:`repro.headerspace`.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

FALSE = 0
TRUE = 1

# Sentinel level for terminals: larger than any real variable index.
_TERMINAL_LEVEL = 1 << 30

#: ``var[]`` marker for slots reclaimed by the sweep phase.
_FREE = -1

#: Operation-cache entry cap (~25 MB at CPython dict overheads).  The
#: check runs between top-level operations, so a single operation may
#: overshoot transiently; the bound is amortised.
DEFAULT_CACHE_LIMIT = 1 << 18

# Probe-hash multipliers; must match OpenAddressedNodeTable's so inlined
# probes and cold-path rebuilds agree on slot positions.
_H_VAR = 0x9E3779B1
_H_LOW = 0x85EBCA77
_H_HIGH = 0xC2B2AE3D

# Packed-int frame layout for the conjunction fast path of the ITE
# machine: an (a, b) edge pair packs into ``a << 25 | b`` (also the op
# cache key), a combine frame into ``-((level << 50 | pair) + 1)``.
# Edges must stay below 2^25, i.e. at most 2^24 (~16.7M) nodes;
# allocation raises before the packing could silently corrupt.
_PACK_SHIFT = 25
_PACK_MASK = (1 << _PACK_SHIFT) - 1
_COMBINE_SHIFT = 2 * _PACK_SHIFT
_PAIR_MASK = (1 << _COMBINE_SHIFT) - 1
_MAX_NODES = 1 << (_PACK_SHIFT - 1)

RootProvider = Callable[[], Iterable[int]]


class BddStats:
    """Plain-int operation/cache/GC tallies kept off the registry hot path.

    The ITE stack machine is the hottest loop in the system, so it
    accumulates into loop-local ints and flushes them here once per
    top-level operation; :class:`~repro.bdd.predicate.PredicateEngine`
    registers a telemetry collector that publishes them as ``bdd.*``
    gauges whenever a registry snapshot is taken.

    ``negate_calls``/``negate_cache_hits`` stay equal on the
    complement-edge engine — every negation is an O(1) bit flip, i.e. a
    guaranteed "hit" — but diverge on the reference engine, which
    memoizes structural negation.
    """

    __slots__ = (
        "apply_calls",
        "apply_cache_hits",
        "negate_calls",
        "negate_cache_hits",
        "quantify_calls",
        "restrict_calls",
        "ite_calls",
        "split_calls",
        "split_expansions",
        "split_cache_hits",
        "cache_evictions",
        "gc_runs",
        "gc_freed",
        "gc_last_live",
        "gc_seconds",
    )

    def __init__(self) -> None:
        self.apply_calls = 0
        self.apply_cache_hits = 0
        self.negate_calls = 0
        self.negate_cache_hits = 0
        self.quantify_calls = 0
        self.restrict_calls = 0
        self.ite_calls = 0
        self.split_calls = 0
        self.split_expansions = 0
        self.split_cache_hits = 0
        self.cache_evictions = 0
        self.gc_runs = 0
        self.gc_freed = 0
        self.gc_last_live = 0
        self.gc_seconds = 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of non-terminal ITE steps served from the op cache."""
        return self.apply_cache_hits / self.apply_calls if self.apply_calls else 0.0

    def publish(self, registry, prefix: str = "bdd") -> None:
        """Mirror the tallies into registry gauges."""
        registry.gauge(f"{prefix}.apply.calls").set(self.apply_calls)
        registry.gauge(f"{prefix}.apply.cache_hits").set(self.apply_cache_hits)
        registry.gauge(f"{prefix}.negate.calls").set(self.negate_calls)
        registry.gauge(f"{prefix}.negate.cache_hits").set(
            self.negate_cache_hits
        )
        registry.gauge(f"{prefix}.quantify.calls").set(self.quantify_calls)
        registry.gauge(f"{prefix}.restrict.calls").set(self.restrict_calls)
        registry.gauge(f"{prefix}.ite.calls").set(self.ite_calls)
        registry.gauge(f"{prefix}.split.calls").set(self.split_calls)
        registry.gauge(f"{prefix}.split.expansions").set(self.split_expansions)
        registry.gauge(f"{prefix}.split.cache_hits").set(self.split_cache_hits)
        registry.gauge(f"{prefix}.cache.hits").set(self.apply_cache_hits)
        registry.gauge(f"{prefix}.cache.lookups").set(self.apply_calls)
        registry.gauge(f"{prefix}.cache.evictions").set(self.cache_evictions)
        registry.gauge(f"{prefix}.gc.runs").set(self.gc_runs)
        registry.gauge(f"{prefix}.gc.freed").set(self.gc_freed)
        registry.gauge(f"{prefix}.gc.live").set(self.gc_last_live)
        registry.gauge(f"{prefix}.gc.seconds").set(self.gc_seconds)


class BDD:
    """A shared ROBDD store: complement edges, one iterative ITE primitive.

    All BDD functions created by one engine share the same node table, so
    equality of functions is equality of edges.

    Parameters
    ----------
    num_vars:
        Number of boolean variables.  Variable ``0`` is the top-most level.
    cache_limit:
        Entry cap for the ITE operation cache; the cache is wiped when a
        top-level operation leaves it above this size.
    table_capacity:
        Initial unique-table capacity (rounded up to a power of two).
    """

    #: Edges carry a complement bit (see :meth:`decompose` for an
    #: encoding-agnostic way to walk structure).
    complement_edges = True

    def __init__(
        self,
        num_vars: int,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
        table_capacity: int = 1 << 16,
    ) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        # Deferred import: repro.core's package __init__ imports this
        # package, so a module-level import would be circular.  By the
        # time a BDD is constructed both packages are initialised.
        from ..core.arraystore import OpenAddressedNodeTable

        self.num_vars = num_vars
        # Parallel arrays indexed by *node id*; slot 0 is the terminal.
        # low/high hold child *edges*; the high edge is always regular.
        self._var: List[int] = [_TERMINAL_LEVEL]
        self._low: List[int] = [FALSE]
        self._high: List[int] = [FALSE]
        self._free: List[int] = []  # reclaimed slots, reused before growing
        self._unique = OpenAddressedNodeTable(table_capacity)
        self.cache_limit = cache_limit
        self._cache: Dict[Tuple[int, int, int], int] = {}
        # Split cache: packed (a, b) pair -> packed (a∧b, a∧¬b) pair.
        # Kept apart from the ITE cache because its values are pairs.
        self._split_cache: Dict[int, int] = {}
        self._sat_cache: Dict[int, int] = {}
        # Pre-built single-variable functions, created lazily; permanent
        # GC roots (a handful of nodes at most).
        self._var_nodes: Dict[int, int] = {}
        # edge -> external pin count; pinned edges survive collection.
        self._pins: Dict[int, int] = {}
        self._root_providers: List[RootProvider] = []
        self.stats = BddStats()

    # ------------------------------------------------------------------
    # Node structure
    # ------------------------------------------------------------------
    def var(self, u: int) -> int:
        """Variable index (level) of edge ``u``; terminals have a huge level."""
        return self._var[u >> 1]

    def low(self, u: int) -> int:
        """The else-cofactor of ``u`` as an edge (complement distributed)."""
        return self._low[u >> 1] ^ (u & 1)

    def high(self, u: int) -> int:
        """The then-cofactor of ``u`` as an edge (complement distributed)."""
        return self._high[u >> 1] ^ (u & 1)

    def decompose(self, u: int) -> Tuple[int, int, int]:
        """``(var, low, high)`` of a non-constant edge, encoding-agnostic.

        Both this engine and :class:`~repro.bdd.reference.ReferenceBDD`
        implement it, so structural walkers (predicate import, the
        equivalence tests) need not know about complement bits.
        """
        node = u >> 1
        c = u & 1
        return self._var[node], self._low[node] ^ c, self._high[node] ^ c

    @property
    def num_nodes(self) -> int:
        """Allocated node-table slots, terminal and free slots included."""
        return len(self._var)

    @property
    def live_node_count(self) -> int:
        """Nodes currently allocated (terminal included, free slots not)."""
        return len(self._var) - len(self._free)

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def unique_used(self) -> int:
        return self._unique.used

    @property
    def unique_capacity(self) -> int:
        return self._unique.mask + 1

    def _mk(self, var: int, low: int, high: int) -> int:
        """Hash-cons one node from child edges; returns an edge.

        Canonical form keeps the high edge regular: a complemented high
        child flips both children and complements the resulting edge.
        (Cold-path version; the ITE loop inlines the probe.)
        """
        if low == high:
            return low
        neg = high & 1
        if neg:
            low ^= 1
            high ^= 1
        varr = self._var
        node, slot = self._unique.find(var, low, high, varr, self._low, self._high)
        if not node:
            free = self._free
            if free:
                node = free.pop()
                varr[node] = var
                self._low[node] = low
                self._high[node] = high
            else:
                node = len(varr)
                if node >= _MAX_NODES:
                    raise MemoryError("BDD node table exceeded 2^24 nodes")
                varr.append(var)
                self._low.append(low)
                self._high.append(high)
            if self._unique.insert_at(slot, node):
                self._rehash(self.unique_capacity << 1)
        return (node << 1) | neg

    def _live_ids(self) -> List[int]:
        varr = self._var
        return [n for n in range(1, len(varr)) if varr[n] != _FREE]

    def _rehash(self, capacity: int) -> None:
        self._unique.rebuild(
            self._live_ids(), self._var, self._low, self._high, capacity
        )

    # ------------------------------------------------------------------
    # Atomic functions
    # ------------------------------------------------------------------
    def ith_var(self, i: int) -> int:
        """The function that is true iff variable ``i`` is 1."""
        if not 0 <= i < self.num_vars:
            raise IndexError(f"variable {i} out of range [0, {self.num_vars})")
        node = self._var_nodes.get(i)
        if node is None:
            node = self._mk(i, FALSE, TRUE)
            self._var_nodes[i] = node
        return node

    def nith_var(self, i: int) -> int:
        """The function that is true iff variable ``i`` is 0."""
        return self.ith_var(i) ^ 1

    def literal(self, i: int, value: bool) -> int:
        return self.ith_var(i) if value else self.ith_var(i) ^ 1

    # ------------------------------------------------------------------
    # Boolean operations — all funnel into the one ITE primitive
    # ------------------------------------------------------------------
    def apply_and(self, a: int, b: int) -> int:
        return self._ite(a, b, FALSE)

    def apply_or(self, a: int, b: int) -> int:
        return self._ite(a, TRUE, b)

    def apply_xor(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        return self._ite(a, b ^ 1, b)

    def apply_diff(self, a: int, b: int) -> int:
        """a AND NOT b — ``ite(a, ¬b, 0)``; the negation is a bit flip."""
        return self._ite(a, b ^ 1, FALSE)

    def negate(self, a: int) -> int:
        """O(1): complement edges make negation a bit flip."""
        stats = self.stats
        stats.negate_calls += 1
        stats.negate_cache_hits += 1
        return a ^ 1

    def implies(self, a: int, b: int) -> bool:
        """Whether ``a`` ⊆ ``b`` as sets of assignments."""
        return self._ite(a, b ^ 1, FALSE) == FALSE

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: (f AND g) OR (NOT f AND h)."""
        return self._ite(f, g, h)

    def _ite(self, f: int, g: int, h: int) -> int:
        """The one operation primitive: normalise, then dispatch.

        Standard-triple normalisation (regular ``f``, operand
        substitution, terminal results) reduces every binary connective
        to one of two shapes:

        * a **conjunction family** triple — ``ite(f,g,0)``, or a
          complement thereof (``f∨h = ¬(¬f∧¬h)`` etc.) — handled by the
          packed-frame loop in :meth:`_and`;
        * a residual three-operand triple (xor/xnor and true ITEs),
          handled by the general loop in :meth:`_ite3`.

        Both loops share the operation cache (int keys for pairs, tuple
        keys for triples) and the inlined unique-table probe.
        """
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if f & 1:  # regular first argument: ite(¬f,g,h) = ite(f,h,g)
            f ^= 1
            g, h = h, g
        if g == f:
            g = TRUE
        elif g == f ^ 1:
            g = FALSE
        if h == f:
            h = FALSE
        elif h == f ^ 1:
            h = TRUE
        if g == h:
            return g
        self.stats.ite_calls += 1
        # Family ops route through the cube-selector graft when either
        # operand *peeks* cube-led (one cofactor FALSE at its top
        # level); rule matches and their complements are the common
        # case, and the graft turns those ops linear.  ITE commutation
        # lets the second operand lead: f∨h = ite(h,1,f), f∧g =
        # ite(g,f,0), ¬f∧h = ite(h,¬f,0), ¬f∨g = ite(g,1,¬f).
        low_ = self._low
        high_ = self._high
        if g == TRUE:
            if h == FALSE:
                return f
            fn = f >> 1
            if low_[fn] == FALSE or high_[fn] == FALSE:
                return self._ite3(f, TRUE, h)
            hn = h >> 1
            hc = h & 1
            if low_[hn] == hc or high_[hn] == hc:
                return self._ite3(h, TRUE, f)
            return self._and(f ^ 1, h ^ 1) ^ 1  # f ∨ h
        if g == FALSE:
            if h == TRUE:
                return f ^ 1
            fn = f >> 1
            if low_[fn] == FALSE or high_[fn] == FALSE:
                return self._ite3(f, FALSE, h)
            hn = h >> 1
            hc = h & 1
            if low_[hn] == hc or high_[hn] == hc:
                return self._ite3(h, f ^ 1, FALSE)
            return self._and(f ^ 1, h)  # ¬f ∧ h
        if h == FALSE:
            fn = f >> 1
            if low_[fn] == FALSE or high_[fn] == FALSE:
                return self._ite3(f, g, FALSE)
            gn = g >> 1
            gc = g & 1
            if low_[gn] == gc or high_[gn] == gc:
                return self._ite3(g, f, FALSE)
            return self._and(f, g)  # f ∧ g
        if h == TRUE:
            fn = f >> 1
            if low_[fn] == FALSE or high_[fn] == FALSE:
                return self._ite3(f, g, TRUE)
            gn = g >> 1
            gc = g & 1
            if low_[gn] == gc or high_[gn] == gc:
                return self._ite3(g, TRUE, f ^ 1)
            return self._and(f, g ^ 1) ^ 1  # ¬f ∨ g
        return self._ite3(f, g, h)

    def _and(self, a: int, b: int) -> int:
        """Conjunction-family loop of the ITE machine: ``ite(a, b, 0)``.

        Conjunction is closed under cofactoring, so the whole subproblem
        tree stays binary; frames pack into single ints — an ``(a, b)``
        edge pair (``a ≤ b``) becomes ``a << 25 | b``, which doubles as
        the op-cache key, and a combine frame is the same pair tagged
        with the branching level and made negative.  No allocation per
        step beyond the ints themselves, and cache lookups hash ints
        rather than tuples.  Children are pushed low-first so the value
        stack pops ``high`` then ``low`` at the combine step.
        """
        if a == b:
            return a
        if a <= TRUE:
            return b if a else FALSE
        if b <= TRUE:
            return a if b else FALSE
        if a ^ b == 1:  # f ∧ ¬f
            return FALSE
        if a > b:
            a, b = b, a
        stats = self.stats
        varr = self._var
        low_ = self._low
        high_ = self._high
        cache = self._cache
        cache_get = cache.get
        table = self._unique
        slots = table.slots
        mask = table.mask
        free = self._free
        calls = 0
        hits = 0

        out: List[int] = []
        out_append = out.append
        out_pop = out.pop
        todo: List[int] = [a << _PACK_SHIFT | b]
        todo_append = todo.append
        todo_pop = todo.pop

        while todo:
            t = todo_pop()
            if t >= 0:
                a = t >> _PACK_SHIFT
                b = t & _PACK_MASK
                if a <= TRUE:  # a ≤ b, so a carries any terminal
                    out_append(b if a else FALSE)
                    continue
                if a == b:
                    out_append(a)
                    continue
                if a ^ b == 1:
                    out_append(FALSE)
                    continue
                calls += 1
                r = cache_get(t)
                if r is not None:
                    hits += 1
                    out_append(r)
                    continue
                an = a >> 1
                bn = b >> 1
                va = varr[an]
                vb = varr[bn]
                if va <= vb:
                    v = va
                    if a & 1:
                        a0 = low_[an] ^ 1
                        a1 = high_[an] ^ 1
                    else:
                        a0 = low_[an]
                        a1 = high_[an]
                    if va == vb:
                        if b & 1:
                            b0 = low_[bn] ^ 1
                            b1 = high_[bn] ^ 1
                        else:
                            b0 = low_[bn]
                            b1 = high_[bn]
                    else:
                        b0 = b1 = b
                else:
                    v = vb
                    if b & 1:
                        b0 = low_[bn] ^ 1
                        b1 = high_[bn] ^ 1
                    else:
                        b0 = low_[bn]
                        b1 = high_[bn]
                    a0 = a1 = a
                if a0 > b0:
                    a0, b0 = b0, a0
                if a1 > b1:
                    a1, b1 = b1, a1
                # Resolve trivial children inline to skip a frame
                # round-trip each — in prefix/cube-shaped conjunctions
                # one cofactor is a terminal at almost every level.
                if a0 <= TRUE:
                    lo_val = b0 if a0 else FALSE
                elif a0 == b0:
                    lo_val = a0
                elif a0 ^ b0 == 1:
                    lo_val = FALSE
                else:
                    lo_val = -1
                if lo_val < 0:
                    todo_append(-((v << _COMBINE_SHIFT | t) + 1))
                    todo_append(a1 << _PACK_SHIFT | b1)
                    todo_append(a0 << _PACK_SHIFT | b0)
                    continue
                if a1 <= TRUE:
                    hi_val = b1 if a1 else FALSE
                elif a1 == b1:
                    hi_val = a1
                elif a1 ^ b1 == 1:
                    hi_val = FALSE
                else:
                    hi_val = -1
                if hi_val < 0:
                    # Low landed on ``out`` already; high still expands.
                    out_append(lo_val)
                    todo_append(-((v << _COMBINE_SHIFT | t) + 1))
                    todo_append(a1 << _PACK_SHIFT | b1)
                    continue
                out_append(lo_val)
                out_append(hi_val)
                todo_append(-((v << _COMBINE_SHIFT | t) + 1))
            else:
                u = -t - 1
                v = u >> _COMBINE_SHIFT
                hi = out_pop()
                lo = out_pop()
                if lo == hi:
                    r = lo
                else:
                    neg = hi & 1
                    if neg:
                        lo ^= 1
                        hi ^= 1
                    # Inlined unique-table probe (see arraystore's
                    # OpenAddressedNodeTable for the reference protocol).
                    slot = (v * _H_VAR ^ lo * _H_LOW ^ hi * _H_HIGH) & mask
                    node = slots[slot]
                    while node:
                        if (
                            low_[node] == lo
                            and high_[node] == hi
                            and varr[node] == v
                        ):
                            break
                        slot = (slot + 1) & mask
                        node = slots[slot]
                    if not node:
                        if free:
                            node = free.pop()
                            varr[node] = v
                            low_[node] = lo
                            high_[node] = hi
                        else:
                            node = len(varr)
                            if node >= _MAX_NODES:
                                raise MemoryError(
                                    "BDD node table exceeded 2^24 nodes"
                                )
                            varr.append(v)
                            low_.append(lo)
                            high_.append(hi)
                        slots[slot] = node
                        table.used += 1
                        if table.used > table.limit:
                            self._rehash((mask + 1) << 2)
                            slots = table.slots
                            mask = table.mask
                    r = (node << 1) | neg
                cache[u & _PAIR_MASK] = r
                out_append(r)

        stats.apply_calls += calls
        stats.apply_cache_hits += hits
        if len(cache) > self.cache_limit:
            cache.clear()
            stats.cache_evictions += 1
        return out[0]

    def apply_split(self, a: int, b: int) -> Tuple[int, int]:
        """One traversal of ``a`` producing ``(a ∧ b, a ∧ ¬b)``.

        The two cofactors of an overwrite application share their whole
        subproblem tree — both partition the same ``a`` along ``b`` —
        so computing them in a single walk with a single cache does the
        work once that ``apply_and(a, b)`` + ``apply_diff(a, b)`` do
        twice.  Frames pack exactly like :meth:`_and`'s (the pair is
        *not* commuted: split is asymmetric in ``a``/``b``); result
        values pack as ``and_edge << 25 | diff_edge`` in the dedicated
        split cache.
        """
        stats = self.stats
        stats.split_calls += 1
        if a <= TRUE:
            return (b, b ^ 1) if a else (FALSE, FALSE)
        if b <= TRUE:
            return (a, FALSE) if b else (FALSE, a)
        if a == b:
            return a, FALSE
        if a ^ b == 1:
            return FALSE, a
        varr = self._var
        low_ = self._low
        high_ = self._high
        cache = self._split_cache
        cache_get = cache.get
        table = self._unique
        slots = table.slots
        mask = table.mask
        free = self._free
        expansions = 0
        hits = 0

        out: List[int] = []
        out_append = out.append
        out_pop = out.pop
        todo: List[int] = [a << _PACK_SHIFT | b]
        todo_append = todo.append
        todo_pop = todo.pop

        while todo:
            t = todo_pop()
            if t >= 0:
                a = t >> _PACK_SHIFT
                b = t & _PACK_MASK
                if a <= TRUE:
                    out_append(b << _PACK_SHIFT | b ^ 1 if a else FALSE)
                    continue
                if b <= TRUE:
                    out_append(a << _PACK_SHIFT if b else a)
                    continue
                if a == b:
                    out_append(a << _PACK_SHIFT)
                    continue
                if a ^ b == 1:
                    out_append(a)
                    continue
                r = cache_get(t)
                if r is not None:
                    hits += 1
                    out_append(r)
                    continue
                expansions += 1
                an = a >> 1
                bn = b >> 1
                va = varr[an]
                vb = varr[bn]
                if va <= vb:
                    v = va
                    if a & 1:
                        a0 = low_[an] ^ 1
                        a1 = high_[an] ^ 1
                    else:
                        a0 = low_[an]
                        a1 = high_[an]
                    if va == vb:
                        if b & 1:
                            b0 = low_[bn] ^ 1
                            b1 = high_[bn] ^ 1
                        else:
                            b0 = low_[bn]
                            b1 = high_[bn]
                    else:
                        b0 = b1 = b
                else:
                    v = vb
                    if b & 1:
                        b0 = low_[bn] ^ 1
                        b1 = high_[bn] ^ 1
                    else:
                        b0 = low_[bn]
                        b1 = high_[bn]
                    a0 = a1 = a
                todo_append(-((v << _COMBINE_SHIFT | t) + 1))
                todo_append(a1 << _PACK_SHIFT | b1)
                todo_append(a0 << _PACK_SHIFT | b0)
            else:
                u = -t - 1
                v = u >> _COMBINE_SHIFT
                hi = out_pop()
                lo = out_pop()
                and_lo = lo >> _PACK_SHIFT
                and_hi = hi >> _PACK_SHIFT
                diff_lo = lo & _PACK_MASK
                diff_hi = hi & _PACK_MASK
                if and_lo == and_hi:
                    r_and = and_lo
                else:
                    neg = and_hi & 1
                    if neg:
                        and_lo ^= 1
                        and_hi ^= 1
                    slot = (
                        v * _H_VAR ^ and_lo * _H_LOW ^ and_hi * _H_HIGH
                    ) & mask
                    node = slots[slot]
                    while node:
                        if (
                            low_[node] == and_lo
                            and high_[node] == and_hi
                            and varr[node] == v
                        ):
                            break
                        slot = (slot + 1) & mask
                        node = slots[slot]
                    if not node:
                        if free:
                            node = free.pop()
                            varr[node] = v
                            low_[node] = and_lo
                            high_[node] = and_hi
                        else:
                            node = len(varr)
                            if node >= _MAX_NODES:
                                raise MemoryError(
                                    "BDD node table exceeded 2^24 nodes"
                                )
                            varr.append(v)
                            low_.append(and_lo)
                            high_.append(and_hi)
                        slots[slot] = node
                        table.used += 1
                        if table.used > table.limit:
                            self._rehash((mask + 1) << 2)
                            slots = table.slots
                            mask = table.mask
                    r_and = (node << 1) | neg
                if diff_lo == diff_hi:
                    r_diff = diff_lo
                else:
                    neg = diff_hi & 1
                    if neg:
                        diff_lo ^= 1
                        diff_hi ^= 1
                    slot = (
                        v * _H_VAR ^ diff_lo * _H_LOW ^ diff_hi * _H_HIGH
                    ) & mask
                    node = slots[slot]
                    while node:
                        if (
                            low_[node] == diff_lo
                            and high_[node] == diff_hi
                            and varr[node] == v
                        ):
                            break
                        slot = (slot + 1) & mask
                        node = slots[slot]
                    if not node:
                        if free:
                            node = free.pop()
                            varr[node] = v
                            low_[node] = diff_lo
                            high_[node] = diff_hi
                        else:
                            node = len(varr)
                            if node >= _MAX_NODES:
                                raise MemoryError(
                                    "BDD node table exceeded 2^24 nodes"
                                )
                            varr.append(v)
                            low_.append(diff_lo)
                            high_.append(diff_hi)
                        slots[slot] = node
                        table.used += 1
                        if table.used > table.limit:
                            self._rehash((mask + 1) << 2)
                            slots = table.slots
                            mask = table.mask
                    r_diff = (node << 1) | neg
                r = r_and << _PACK_SHIFT | r_diff
                cache[u & _PAIR_MASK] = r
                out_append(r)

        stats.split_expansions += expansions
        stats.split_cache_hits += hits
        if len(cache) > self.cache_limit:
            cache.clear()
            stats.cache_evictions += 1
        r = out[0]
        return r >> _PACK_SHIFT, r & _PACK_MASK

    def _ite3(self, f: int, g: int, h: int) -> int:
        """General three-operand loop of the ITE machine.

        Entry first attempts the **cube-selector graft**: while ``f``
        descends like a cube (one cofactor FALSE at every level) and
        neither ``g`` nor ``h`` branches above it, ``ite(f, g, h)`` is a
        linear splice — walk the cube path cofactoring ``g``/``h`` one
        literal at a time, keep the ``h`` cofactor on each off-path
        side, and rebuild the spine bottom-up.  Rule matches are cubes,
        so the incremental-update primitive ``ite(match, new, old)``
        costs O(|match|) here with no op-cache traffic at all.  The
        walk bails to the general loop at the first level that breaks
        the shape, keeping whatever spine it already gathered.

        The general loop's ``todo`` holds two frame shapes: 3-tuples
        ``(f, g, h)`` awaiting evaluation and 2-tuples
        ``((level << 1) | flag, key)`` that combine the two results on
        top of ``out`` into a node, memoize it under ``key`` and push
        it (complemented when ``flag`` is set, which undoes the De
        Morgan normalisation of the frame).  Sub-triples that collapse
        into the conjunction family delegate to :meth:`_and`; only
        xor/xnor-shaped and true three-operand triples expand here.
        Children are pushed low-first so the value stack pops ``high``
        then ``low`` at the combine step.
        """
        varr = self._var
        low_ = self._low
        high_ = self._high
        if f & 1:  # commuted entries may pass a complemented selector
            f ^= 1
            g, h = h, g

        # ---- cube-selector graft (optimistic linear descent) ----
        spine_v: List[int] = []
        spine_e: List[int] = []
        spine_p: List[int] = []
        val = -1
        while True:
            if f == TRUE:
                val = g
                break
            if g == h:
                val = g
                break
            if g == TRUE and h == FALSE:
                val = f
                break
            if g == FALSE and h == TRUE:
                val = f ^ 1
                break
            fn = f >> 1
            v = varr[fn]
            gn = g >> 1
            hn = h >> 1
            vg = varr[gn]
            vh = varr[hn]
            if vg < v or vh < v:
                break  # g or h branches above f: not cube-led any more
            cbit = f & 1
            f0 = low_[fn] ^ cbit
            f1 = high_[fn] ^ cbit
            if f0 == FALSE:
                keep = f1
                pol = 1
            elif f1 == FALSE:
                keep = f0
                pol = 0
            else:
                break  # f is not cube-shaped at this level
            if vg == v:
                gcb = g & 1
                g0 = low_[gn] ^ gcb
                g1 = high_[gn] ^ gcb
            else:
                g0 = g1 = g
            if vh == v:
                hcb = h & 1
                h0 = low_[hn] ^ hcb
                h1 = high_[hn] ^ hcb
            else:
                h0 = h1 = h
            spine_v.append(v)
            spine_p.append(pol)
            if pol:
                spine_e.append(h0)
                f, g, h = keep, g1, h1
            else:
                spine_e.append(h1)
                f, g, h = keep, g0, h0
        if val >= 0:
            return self._graft_spine(spine_v, spine_e, spine_p, val)
        if spine_v:
            # Partial descent: finish the residual triple without
            # re-attempting the graft, then splice the spine on top.
            val = self._ite3_tail(f, g, h)
            return self._graft_spine(spine_v, spine_e, spine_p, val)
        return self._ite3_tail(f, g, h)

    def _ite3_tail(self, f: int, g: int, h: int) -> int:
        """Residual dispatch for graft bail-outs.

        Mirrors the family routing of :meth:`_ite` but never re-enters
        the graft — a triple whose selector is still cube-led can bail
        only because ``g``/``h`` branch above it, and retrying the
        graft on it would loop.
        """
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if f & 1:
            f ^= 1
            g, h = h, g
        if g == h:
            return g
        if g == TRUE:
            if h == FALSE:
                return f
            return self._and(f ^ 1, h ^ 1) ^ 1
        if g == FALSE:
            if h == TRUE:
                return f ^ 1
            return self._and(f ^ 1, h)
        if h == FALSE:
            return self._and(f, g)
        if h == TRUE:
            return self._and(f, g ^ 1) ^ 1
        return self._ite3_general(f, g, h)

    def _graft_spine(
        self,
        spine_v: List[int],
        spine_e: List[int],
        spine_p: List[int],
        val: int,
    ) -> int:
        """Rebuild a cube-graft spine bottom-up over a resolved tail."""
        if not spine_v:
            return val
        varr = self._var
        low_ = self._low
        high_ = self._high
        table = self._unique
        slots = table.slots
        mask = table.mask
        free = self._free
        self.stats.apply_calls += len(spine_v)
        i = len(spine_v) - 1
        while i >= 0:
            side = spine_e[i]
            if spine_p[i]:
                lo = side
                hi = val
            else:
                lo = val
                hi = side
            if lo == hi:
                val = lo
            else:
                v = spine_v[i]
                neg = hi & 1
                if neg:
                    lo ^= 1
                    hi ^= 1
                slot = (v * _H_VAR ^ lo * _H_LOW ^ hi * _H_HIGH) & mask
                node = slots[slot]
                while node:
                    if (
                        low_[node] == lo
                        and high_[node] == hi
                        and varr[node] == v
                    ):
                        break
                    slot = (slot + 1) & mask
                    node = slots[slot]
                if not node:
                    if free:
                        node = free.pop()
                        varr[node] = v
                        low_[node] = lo
                        high_[node] = hi
                    else:
                        node = len(varr)
                        if node >= _MAX_NODES:
                            raise MemoryError(
                                "BDD node table exceeded 2^24 nodes"
                            )
                        varr.append(v)
                        low_.append(lo)
                        high_.append(hi)
                    slots[slot] = node
                    table.used += 1
                    if table.used > table.limit:
                        self._rehash((mask + 1) << 2)
                        slots = table.slots
                        mask = table.mask
                val = (node << 1) | neg
            i -= 1
        return val

    def _ite3_general(self, f: int, g: int, h: int) -> int:
        stats = self.stats
        varr = self._var
        low_ = self._low
        high_ = self._high
        cache = self._cache
        cache_get = cache.get
        table = self._unique
        slots = table.slots
        mask = table.mask
        free = self._free
        calls = 0
        hits = 0

        out: List[int] = []
        out_append = out.append
        out_pop = out.pop
        todo: List[tuple] = [(f, g, h)]
        todo_append = todo.append
        todo_pop = todo.pop

        while todo:
            frame = todo_pop()
            if len(frame) == 3:
                f, g, h = frame
                if f == TRUE:
                    out_append(g)
                    continue
                if f == FALSE:
                    out_append(h)
                    continue
                if f & 1:  # regular first argument: ite(¬f,g,h)=ite(f,h,g)
                    f ^= 1
                    g, h = h, g
                # Standard-triple substitutions.
                if g == f:
                    g = TRUE
                elif g == f ^ 1:
                    g = FALSE
                if h == f:
                    h = FALSE
                elif h == f ^ 1:
                    h = TRUE
                if g == h:
                    out_append(g)
                    continue
                if g == TRUE and h == FALSE:
                    out_append(f)
                    continue
                if g == FALSE and h == TRUE:
                    out_append(f ^ 1)
                    continue
                # Regular second argument (De Morgan): the complement is
                # re-applied when the frame's value is consumed.
                flag = g & 1
                if flag:
                    g ^= 1
                    h ^= 1
                # Substitutions can collapse a sub-triple into the
                # conjunction family; hand those to the packed loop.
                # _and may allocate and rehash, replacing table.slots/
                # table.mask — refresh the probe aliases afterwards or
                # later combine frames insert into an orphaned table.
                if h == FALSE:  # f ∧ g
                    out_append(self._and(f, g) ^ flag)
                    slots = table.slots
                    mask = table.mask
                    continue
                if h == TRUE:  # ¬f ∨ g = ¬(f ∧ ¬g)
                    out_append(self._and(f, g ^ 1) ^ 1 ^ flag)
                    slots = table.slots
                    mask = table.mask
                    continue
                if g == FALSE:  # ¬f ∧ h
                    out_append(self._and(f ^ 1, h) ^ flag)
                    slots = table.slots
                    mask = table.mask
                    continue
                if h == g ^ 1 and f > g:  # XNOR commutes
                    f, g, h = g, f, f ^ 1
                calls += 1
                key = (f, g, h)
                r = cache_get(key)
                if r is not None:
                    hits += 1
                    out_append(r ^ flag)
                    continue
                fn = f >> 1
                v = varr[fn]
                gn = g >> 1
                vg = varr[gn]
                if vg < v:
                    v = vg
                hn = h >> 1
                vh = varr[hn]
                if vh < v:
                    v = vh
                if varr[fn] == v:
                    f0 = low_[fn]
                    f1 = high_[fn]
                else:
                    f0 = f1 = f
                if vg == v:
                    gc = g & 1
                    if gc:
                        g0 = low_[gn] ^ 1
                        g1 = high_[gn] ^ 1
                    else:
                        g0 = low_[gn]
                        g1 = high_[gn]
                else:
                    g0 = g1 = g
                if vh == v:
                    hc = h & 1
                    if hc:
                        h0 = low_[hn] ^ 1
                        h1 = high_[hn] ^ 1
                    else:
                        h0 = low_[hn]
                        h1 = high_[hn]
                else:
                    h0 = h1 = h
                # Resolve trivial child triples inline to skip a frame
                # round-trip each — when ``f`` is cube-shaped (the
                # prefix-update pattern ``ite(match, new, old)``) one
                # cofactor of ``f`` is a terminal at every level, making
                # the child a bare edge.  Only cases that need no
                # normalisation are folded here; the rest go through the
                # general EVAL path.
                if f0 <= TRUE:
                    lo_val = g0 if f0 else h0
                elif g0 == h0:
                    lo_val = g0
                elif g0 == TRUE and h0 == FALSE:
                    lo_val = f0
                elif g0 == FALSE and h0 == TRUE:
                    lo_val = f0 ^ 1
                else:
                    lo_val = -1
                if lo_val < 0:
                    todo_append(((v << 1) | flag, key))
                    todo_append((f1, g1, h1))
                    todo_append((f0, g0, h0))
                    continue
                if f1 <= TRUE:
                    hi_val = g1 if f1 else h1
                elif g1 == h1:
                    hi_val = g1
                elif g1 == TRUE and h1 == FALSE:
                    hi_val = f1
                elif g1 == FALSE and h1 == TRUE:
                    hi_val = f1 ^ 1
                else:
                    hi_val = -1
                if hi_val < 0:
                    # Low landed on ``out`` already; high still expands.
                    out_append(lo_val)
                    todo_append(((v << 1) | flag, key))
                    todo_append((f1, g1, h1))
                    continue
                out_append(lo_val)
                out_append(hi_val)
                todo_append(((v << 1) | flag, key))
            else:
                vflag, key = frame
                hi = out_pop()
                lo = out_pop()
                if lo == hi:
                    r = lo
                else:
                    neg = hi & 1
                    if neg:
                        lo ^= 1
                        hi ^= 1
                    # Inlined unique-table probe (see arraystore's
                    # OpenAddressedNodeTable for the reference protocol).
                    v = vflag >> 1
                    slot = (v * _H_VAR ^ lo * _H_LOW ^ hi * _H_HIGH) & mask
                    node = slots[slot]
                    while node:
                        if (
                            low_[node] == lo
                            and high_[node] == hi
                            and varr[node] == v
                        ):
                            break
                        slot = (slot + 1) & mask
                        node = slots[slot]
                    if not node:
                        if free:
                            node = free.pop()
                            varr[node] = v
                            low_[node] = lo
                            high_[node] = hi
                        else:
                            node = len(varr)
                            if node >= _MAX_NODES:
                                raise MemoryError(
                                    "BDD node table exceeded 2^24 nodes"
                                )
                            varr.append(v)
                            low_.append(lo)
                            high_.append(hi)
                        slots[slot] = node
                        table.used += 1
                        if table.used > table.limit:
                            self._rehash((mask + 1) << 2)
                            slots = table.slots
                            mask = table.mask
                    r = (node << 1) | neg
                cache[key] = r
                out_append(r ^ (vflag & 1))

        stats.apply_calls += calls
        stats.apply_cache_hits += hits
        if len(cache) > self.cache_limit:
            cache.clear()
            stats.cache_evictions += 1
        return out[0]

    # ------------------------------------------------------------------
    # Cube construction
    # ------------------------------------------------------------------
    def cube(self, literals: Iterable[Tuple[int, bool]]) -> int:
        """Conjunction of literals given as ``(variable, value)`` pairs.

        Built bottom-up in one pass (no apply calls), so encoding a
        ternary match is linear in the number of cared bits.  Header
        encoding funnels every rule match through here, so the
        unique-table probe is inlined just like in the ITE loops.
        """
        ordered = sorted(literals, key=lambda lv: lv[0], reverse=True)
        seen: set = set()
        varr = self._var
        low_ = self._low
        high_ = self._high
        table = self._unique
        slots = table.slots
        mask = table.mask
        free = self._free
        edge = TRUE
        for var, value in ordered:
            if var in seen:
                raise ValueError(f"duplicate variable {var} in cube")
            seen.add(var)
            if value:
                lo, hi = FALSE, edge
            else:
                lo, hi = edge, FALSE
            neg = hi & 1
            if neg:
                lo ^= 1
                hi ^= 1
            slot = (var * _H_VAR ^ lo * _H_LOW ^ hi * _H_HIGH) & mask
            node = slots[slot]
            while node:
                if low_[node] == lo and high_[node] == hi and varr[node] == var:
                    break
                slot = (slot + 1) & mask
                node = slots[slot]
            if not node:
                if free:
                    node = free.pop()
                    varr[node] = var
                    low_[node] = lo
                    high_[node] = hi
                else:
                    node = len(varr)
                    if node >= _MAX_NODES:
                        raise MemoryError("BDD node table exceeded 2^24 nodes")
                    varr.append(var)
                    low_.append(lo)
                    high_.append(hi)
                slots[slot] = node
                table.used += 1
                if table.used > table.limit:
                    self._rehash((mask + 1) << 2)
                    slots = table.slots
                    mask = table.mask
            edge = (node << 1) | neg
        return edge

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def sat_count(self, u: int) -> int:
        """Number of satisfying assignments over all ``num_vars`` variables.

        Per-node counts memoize in a cache that survives across queries
        (it is invalidated only by :meth:`collect`, which may renumber
        free slots); a complemented root costs one subtraction.
        """
        if u == FALSE:
            return 0
        total = self.num_vars
        if u == TRUE:
            return 1 << total
        varr = self._var
        low_ = self._low
        high_ = self._high
        memo = self._sat_cache
        # memo[n] counts assignments of the variables strictly below
        # var(n) satisfying the *plain* node n; complemented child edges
        # subtract from the full child space, gaps weight the counts.
        root = u >> 1
        stack = [root]
        push = stack.append
        pop = stack.pop
        while stack:
            node = pop()
            if node in memo:
                continue
            lo_e = low_[node]
            hi_e = high_[node]
            lo_n = lo_e >> 1
            hi_n = hi_e >> 1
            lo_memo = 0 if lo_n == 0 else memo.get(lo_n)
            hi_memo = 0 if hi_n == 0 else memo.get(hi_n)
            if lo_memo is None or hi_memo is None:
                push(node)
                if hi_memo is None:
                    push(hi_n)
                if lo_memo is None:
                    push(lo_n)
                continue
            level = varr[node]
            lo_level = total if lo_n == 0 else varr[lo_n]
            hi_level = total if hi_n == 0 else varr[hi_n]
            lo_count = (
                (1 << (total - lo_level)) - lo_memo if lo_e & 1 else lo_memo
            ) if lo_n else (lo_e & 1)
            hi_count = (
                (1 << (total - hi_level)) - hi_memo if hi_e & 1 else hi_memo
            ) if hi_n else (hi_e & 1)
            memo[node] = (lo_count << (lo_level - level - 1)) + (
                hi_count << (hi_level - level - 1)
            )
        plain = memo[root] << varr[root]
        return (1 << total) - plain if u & 1 else plain

    def support(self, u: int) -> Tuple[int, ...]:
        """Sorted tuple of variable indexes that ``u`` depends on."""
        seen: set = set()
        varset: set = set()
        stack = [u >> 1]
        while stack:
            node = stack.pop()
            if node == 0 or node in seen:
                continue
            seen.add(node)
            varset.add(self._var[node])
            stack.append(self._low[node] >> 1)
            stack.append(self._high[node] >> 1)
        return tuple(sorted(varset))

    def restrict(self, u: int, assignments: Dict[int, bool]) -> int:
        """Cofactor ``u`` by fixing the given variables.

        Recursion depth is bounded by ``num_vars`` (one level per frame),
        so the explicit-stack treatment of :meth:`_ite` is unnecessary.
        """
        self.stats.restrict_calls += 1
        memo: Dict[int, int] = {}

        def go(edge: int) -> int:
            if edge <= TRUE:
                return edge
            got = memo.get(edge)
            if got is not None:
                return got
            node = edge >> 1
            c = edge & 1
            var = self._var[node]
            if var in assignments:
                child = self._high[node] if assignments[var] else self._low[node]
                result = go(child ^ c)
            else:
                result = self._mk(
                    var, go(self._low[node] ^ c), go(self._high[node] ^ c)
                )
            memo[edge] = result
            return result

        return go(u)

    def exists(self, u: int, variables: Iterable[int]) -> int:
        """Existential quantification over ``variables``."""
        self.stats.quantify_calls += 1
        varset = frozenset(variables)
        memo: Dict[int, int] = {}

        def go(edge: int) -> int:
            if edge <= TRUE:
                return edge
            got = memo.get(edge)
            if got is not None:
                return got
            node = edge >> 1
            c = edge & 1
            var = self._var[node]
            lo = go(self._low[node] ^ c)
            hi = go(self._high[node] ^ c)
            if var in varset:
                result = self._ite(lo, TRUE, hi)
            else:
                result = self._mk(var, lo, hi)
            memo[edge] = result
            return result

        return go(u)

    def any_assignment(self, u: int) -> Optional[Dict[int, bool]]:
        """One satisfying assignment (only cared variables), or None."""
        if u == FALSE:
            return None
        assignment: Dict[int, bool] = {}
        edge = u
        while edge != TRUE:
            node = edge >> 1
            c = edge & 1
            lo = self._low[node] ^ c
            if lo != FALSE:
                assignment[self._var[node]] = False
                edge = lo
            else:
                assignment[self._var[node]] = True
                edge = self._high[node] ^ c
        return assignment

    def evaluate(self, u: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate ``u`` under a total assignment (missing vars default 0)."""
        edge = u
        while edge > TRUE:
            node = edge >> 1
            child = (
                self._high[node]
                if assignment.get(self._var[node], False)
                else self._low[node]
            )
            edge = child ^ (edge & 1)
        return edge == TRUE

    def iter_cubes(self, u: int) -> Iterator[Dict[int, bool]]:
        """Iterate the cubes (partial assignments) of ``u``'s DNF cover."""

        def go(edge: int, prefix: Dict[int, bool]) -> Iterator[Dict[int, bool]]:
            if edge == FALSE:
                return
            if edge == TRUE:
                yield dict(prefix)
                return
            node = edge >> 1
            c = edge & 1
            var = self._var[node]
            prefix[var] = False
            yield from go(self._low[node] ^ c, prefix)
            prefix[var] = True
            yield from go(self._high[node] ^ c, prefix)
            del prefix[var]

        yield from go(u, {})

    def node_count(self, u: int) -> int:
        """Number of distinct internal nodes in the DAG rooted at ``u``.

        With complement edges, a function and its negation share every
        node, so ``node_count(f) == node_count(¬f)``.
        """
        seen: set = set()
        stack = [u >> 1]
        while stack:
            node = stack.pop()
            if node == 0 or node in seen:
                continue
            seen.add(node)
            stack.append(self._low[node] >> 1)
            stack.append(self._high[node] >> 1)
        return len(seen)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def pin(self, u: int) -> int:
        """Protect edge ``u`` (and everything it reaches) from collection.

        Pins nest: each :meth:`pin` needs a matching :meth:`unpin`.
        Returns ``u`` so call sites can pin inline.
        """
        if u > TRUE:
            self._pins[u] = self._pins.get(u, 0) + 1
        return u

    def unpin(self, u: int) -> None:
        count = self._pins.get(u)
        if count is None:
            return
        if count <= 1:
            del self._pins[u]
        else:
            self._pins[u] = count - 1

    def add_root_provider(self, provider: RootProvider) -> None:
        """Register a callable yielding extra root edges at collect time.

        The predicate layer registers its live :class:`Predicate` handles
        here, so ``collect()`` is safe to call whenever no operation is
        mid-flight — anything a caller can still name survives.
        """
        self._root_providers.append(provider)

    def collect(self, roots: Iterable[int] = ()) -> int:
        """Mark-and-sweep; returns the number of nodes freed.

        Roots are the union of ``roots``, pinned edges, registered root
        providers and the single-variable functions.  Live node ids are
        stable across collection; all operation/satcount caches are
        invalidated, and the dead tail of the node arrays is truncated
        so the table physically shrinks.

        Callers holding *raw edges* (rather than pins, predicate handles
        or explicit roots) across a collection will see those nodes
        recycled — see ``docs/bdd_engine.md`` for the pinning protocol.
        """
        from time import perf_counter

        start = perf_counter()
        varr = self._var
        low_ = self._low
        high_ = self._high
        live = bytearray(len(varr))
        live[0] = 1  # the terminal
        stack: List[int] = [e >> 1 for e in roots]
        stack.extend(e >> 1 for e in self._pins)
        stack.extend(e >> 1 for e in self._var_nodes.values())
        for provider in self._root_providers:
            stack.extend(e >> 1 for e in provider())
        while stack:
            node = stack.pop()
            if live[node]:
                continue
            live[node] = 1
            stack.append(low_[node] >> 1)
            stack.append(high_[node] >> 1)

        freed = 0
        for node in range(1, len(varr)):
            if not live[node] and varr[node] != _FREE:
                varr[node] = _FREE
                low_[node] = 0
                high_[node] = 0
                freed += 1
        # Truncate the dead tail so the arrays shrink, then rebuild the
        # free list over what remains.
        end = len(varr)
        while end > 1 and varr[end - 1] == _FREE:
            end -= 1
        if end < len(varr):
            del varr[end:]
            del low_[end:]
            del high_[end:]
        self._free = [n for n in range(1, end) if varr[n] == _FREE]

        # Every cache may reference dead ids; wipe them and re-slot the
        # survivors (shrinking the unique table back down if warranted).
        self._cache.clear()
        self._split_cache.clear()
        self._sat_cache.clear()
        self._rehash(8)

        stats = self.stats
        stats.gc_runs += 1
        stats.gc_freed += freed
        stats.gc_last_live = self.live_node_count
        stats.gc_seconds += perf_counter() - start
        return freed
