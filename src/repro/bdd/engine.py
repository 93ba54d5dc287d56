"""The shared ROBDD engine (the paper's JDD equivalent) — the textbook one.

The paper's implementation uses JDD, a Java BDD library, as the predicate
substrate; every Flash component — Fast IMT/MR2 model construction, CE2D
verification and both baselines — bottoms out here.  The engine is
deliberately the design a textbook gives, plus exactly what the product
uses:

* **three int lists** ``var``/``low``/``high`` indexed by node id; a
  function is an integer *edge* ``(node_id << 1) | complement``.  Node 0
  is the single terminal, so ``FALSE = 0`` and ``TRUE = 1``.  The stored
  high edge is always regular, which makes ``f`` and ``¬f`` one node and
  negation ``edge ^ 1``.
* **hash-consing through one dict**, keyed by ``(var, low, high)`` packed
  into one int, inside :meth:`BDD._mk` — the only place a node is ever
  allocated.
* **one recursive memoized binary apply** (:meth:`BDD._apply`).  With
  complement edges ∧ is all it has to compute: ``a∨b = ¬(¬a∧¬b)``,
  ``a∖b = a∧¬b``, ``a⊕b = (a∖b) ∨ (b∖a)``,
  ``ite(f,g,h) = (f∧g) ∨ (¬f∧h)``.  ``split(a,b) = (a∧b, a∧¬b)`` — what
  applying one overwrite to one EC costs — is the same walk run once
  for both halves, an op code of the same function.
* **one op cache**, keyed by the packed operand pair, wiped wholesale
  when a top-level operation leaves it above :data:`CACHE_LIMIT`.
* **mark-and-sweep GC** — :meth:`BDD.collect` marks from the roots its
  caller passes and the single-variable functions, sweeps dead nodes
  onto a free list, truncates the dead tail of the lists and rebuilds
  the dict.  There is one root kind: the predicate layer passes its live
  handles.  Live node ids are never renumbered, so outstanding edges
  stay valid.

Why this simple: the engine this replaced kept an open-addressed table,
packed explicit-stack frames and a cube-graft fast path (1,600 lines),
and lost end to end to the 400-line recursive oracle now in
``tests/bdd_reference.py``.  Node tables here hold thousands of nodes,
not millions; at that size one C ``dict`` probe plus one Python call per
node beats a probe loop and a value stack interpreted bytecode by
bytecode (``docs/bdd_engine.md`` has the measurements).

Recursion depth is bounded by ``num_vars``, so the constructor refuses a
variable count the interpreter's recursion limit cannot carry — the
failure is a ``ValueError`` at construction, never a ``RecursionError``
in the middle of an operation.  The engine stays free of any networking
concepts; packet-header encoding lives in :mod:`repro.headerspace`.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

FALSE = 0
TRUE = 1

# Sentinel level for the terminal: larger than any real variable index.
_TERMINAL_LEVEL = 1 << 30

#: ``var[]`` marker for slots reclaimed by the sweep phase.
_FREE = -1

# Unique-table and op-cache keys pack edges into 25-bit fields, so node
# ids stay below 2^24 (~16.7M); allocation raises MemoryError before a
# packed key could alias another.
_EDGE_BITS = 25
_MAX_NODES = 1 << (_EDGE_BITS - 1)

_EDGE_MASK = (1 << _EDGE_BITS) - 1

# Apply op codes; each doubles as the tag bits of its op-cache keys.
_AND = 0
_SPLIT = 1 << (2 * _EDGE_BITS)

#: Op-cache entry bound (~6 MB of dict and int keys).  Checked between
#: top-level operations, so one operation may overshoot transiently.
CACHE_LIMIT = 1 << 16

#: Live-node count below which the sweep rule
#: (:meth:`~repro.bdd.predicate.PredicateEngine.collect_if_grown`) never
#: fires.  A sweep at this size costs about 2 ms plus a cold op cache to
#: give back at most ~160 KB of node lists, so below it a store that
#: doubles is not worth a sweep — and the small, short-lived engines
#: (one per fuzz scenario, per test) never pay one.
SWEEP_FLOOR = 1 << 12


def max_num_vars() -> int:
    """Largest ``num_vars`` a :class:`BDD` accepts under the current
    interpreter recursion limit.

    Apply, the satcount walk and cube iteration descend one Python frame
    per variable level; half the limit is theirs, half stays with the
    caller's own stack.  Real header layouts are far below it (an IPv6
    5-tuple is 296 bits against 500 under the default limit).
    """
    return sys.getrecursionlimit() // 2


class BddStats:
    """Plain-int operation/cache/GC tallies kept off the registry hot path.

    :class:`~repro.bdd.predicate.PredicateEngine` registers a telemetry
    collector that publishes them as ``bdd.*`` gauges whenever a registry
    snapshot is taken.  ``apply_calls`` counts op-cache lookups (apply
    steps no terminal rule resolved), ``apply_cache_hits`` the lookups
    answered from the cache.

    ``negate_calls``/``negate_cache_hits`` stay equal on this engine —
    every negation is an O(1) bit flip, i.e. a guaranteed "hit" — but
    diverge on the reference oracle, which memoizes structural negation.
    """

    __slots__ = (
        "apply_calls",
        "apply_cache_hits",
        "negate_calls",
        "negate_cache_hits",
        "ite_calls",
        "split_calls",
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
        self.ite_calls = 0
        self.split_calls = 0
        self.cache_evictions = 0
        self.gc_runs = 0
        self.gc_freed = 0
        self.gc_last_live = 0
        self.gc_seconds = 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of op-cache lookups served from the cache."""
        return self.apply_cache_hits / self.apply_calls if self.apply_calls else 0.0

    def add(self, other: "BddStats") -> None:
        """Fold another engine's tallies into this one, field by field."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def publish(self, registry, prefix: str = "bdd") -> None:
        """Mirror the tallies into registry gauges."""
        registry.gauge(f"{prefix}.apply.calls").set(self.apply_calls)
        registry.gauge(f"{prefix}.apply.cache_hits").set(self.apply_cache_hits)
        registry.gauge(f"{prefix}.negate.calls").set(self.negate_calls)
        registry.gauge(f"{prefix}.negate.cache_hits").set(
            self.negate_cache_hits
        )
        registry.gauge(f"{prefix}.ite.calls").set(self.ite_calls)
        registry.gauge(f"{prefix}.split.calls").set(self.split_calls)
        registry.gauge(f"{prefix}.cache.hits").set(self.apply_cache_hits)
        registry.gauge(f"{prefix}.cache.lookups").set(self.apply_calls)
        registry.gauge(f"{prefix}.cache.evictions").set(self.cache_evictions)
        registry.gauge(f"{prefix}.gc.runs").set(self.gc_runs)
        registry.gauge(f"{prefix}.gc.freed").set(self.gc_freed)
        registry.gauge(f"{prefix}.gc.live").set(self.gc_last_live)
        registry.gauge(f"{prefix}.gc.seconds").set(self.gc_seconds)


class BDD:
    """A shared ROBDD store: complement edges, one recursive apply.

    All BDD functions created by one engine share the same node table, so
    equality of functions is equality of edges.

    Parameters
    ----------
    num_vars:
        Number of boolean variables.  Variable ``0`` is the top-most
        level.  At most :func:`max_num_vars`.
    """

    #: Edges carry a complement bit (see :meth:`decompose` for an
    #: encoding-agnostic way to walk structure).
    complement_edges = True

    def __init__(self, num_vars: int) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        if num_vars > max_num_vars():
            raise ValueError(
                f"num_vars {num_vars} exceeds {max_num_vars()}: operations "
                f"recurse one frame per variable and the interpreter's "
                f"recursion limit is {sys.getrecursionlimit()}"
            )
        self.num_vars = num_vars
        # Parallel lists indexed by *node id*; slot 0 is the terminal.
        # low/high hold child *edges*; the high edge is always regular.
        self._var: List[int] = [_TERMINAL_LEVEL]
        self._low: List[int] = [FALSE]
        self._high: List[int] = [FALSE]
        self._free: List[int] = []  # reclaimed slots, reused before growing
        # Packed (var, low, high) -> node id.
        self._unique: Dict[int, int] = {}
        # op tag | packed (a, b) -> result edge (∧) or packed edge pair (split).
        self._cache: Dict[int, int] = {}
        # node id -> model count of the plain node below its own level.
        self._sat_cache: Dict[int, int] = {}
        # Pre-built single-variable functions, created lazily; permanent
        # GC roots (a handful of nodes at most).
        self._var_nodes: Dict[int, int] = {}
        self.stats = BddStats()

    # ------------------------------------------------------------------
    # Node structure
    # ------------------------------------------------------------------
    def decompose(self, u: int) -> Tuple[int, int, int]:
        """``(var, low, high)`` of a non-constant edge, encoding-agnostic.

        The reference oracle implements it too, so structural walkers
        (predicate import, the equivalence tests) need
        not know about complement bits.
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
        return len(self._unique)

    def _mk(self, var: int, low: int, high: int) -> int:
        """Hash-cons one node from child edges; returns an edge.

        The only allocation site.  Canonical form keeps the high edge
        regular: a complemented high child flips both children and
        complements the resulting edge.
        """
        if low == high:
            return low
        neg = high & 1
        if neg:
            low ^= 1
            high ^= 1
        key = (var << _EDGE_BITS | low) << _EDGE_BITS | high
        node = self._unique.get(key)
        if node is None:
            if self._free:
                node = self._free.pop()
                self._var[node] = var
                self._low[node] = low
                self._high[node] = high
            else:
                node = len(self._var)
                if node >= _MAX_NODES:
                    raise MemoryError(
                        f"BDD node table exceeded {_MAX_NODES} nodes"
                    )
                self._var.append(var)
                self._low.append(low)
                self._high.append(high)
            self._unique[key] = node
        return node << 1 | neg

    def _live_ids(self) -> List[int]:
        varr = self._var
        return [n for n in range(1, len(varr)) if varr[n] != _FREE]

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

    def literal(self, i: int, value: bool) -> int:
        return self.ith_var(i) if value else self.ith_var(i) ^ 1

    # ------------------------------------------------------------------
    # Boolean operations — all funnel into the one apply
    # ------------------------------------------------------------------
    def apply_and(self, a: int, b: int) -> int:
        result = self._apply(_AND, a, b)
        self._bound_cache()
        return result

    def apply_or(self, a: int, b: int) -> int:
        return self.apply_and(a ^ 1, b ^ 1) ^ 1

    def apply_xor(self, a: int, b: int) -> int:
        return self.apply_or(self.apply_and(a, b ^ 1), self.apply_and(a ^ 1, b))

    def apply_diff(self, a: int, b: int) -> int:
        """a AND NOT b; the negation is a bit flip."""
        return self.apply_and(a, b ^ 1)

    def apply_split(self, a: int, b: int) -> Tuple[int, int]:
        """``(a ∧ b, a ∧ ¬b)`` — the two halves an overwrite cuts ``a`` into.

        Both halves partition the same ``a`` along the same ``b``, so
        they visit exactly the same operand pairs; one walk with one
        cache entry per pair does the work two ∧ walks would do twice.
        """
        self.stats.split_calls += 1
        pair = self._apply(_SPLIT, a, b)
        self._bound_cache()
        return pair >> _EDGE_BITS, pair & _EDGE_MASK

    def negate(self, a: int) -> int:
        """O(1): complement edges make negation a bit flip."""
        stats = self.stats
        stats.negate_calls += 1
        stats.negate_cache_hits += 1
        return a ^ 1

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: (f AND g) OR (NOT f AND h)."""
        self.stats.ite_calls += 1
        return self.apply_or(self.apply_and(f, g), self.apply_and(f ^ 1, h))

    def _bound_cache(self) -> None:
        """Wipe the op cache wholesale once it is above the bound.

        Called only between top-level operations: entries name node ids,
        never Python objects, so dropping all of them at once costs
        nothing but recomputation.
        """
        if len(self._cache) > CACHE_LIMIT:
            self._cache.clear()
            self.stats.cache_evictions += 1

    def _apply(self, op: int, a: int, b: int) -> int:
        """The one recursive memoized apply.

        ``_AND`` returns the edge ``a ∧ b``.  ∧ commutes, so operands are
        ordered ``a ≤ b`` — a constant operand is then always ``a`` —
        and share one cache entry.  ``_SPLIT`` returns the pair
        ``(a ∧ b, a ∧ ¬b)`` packed as ``and << 25 | diff``; each half is
        hash-consed on the way back up.
        """
        if op:
            if a <= TRUE:
                return b << _EDGE_BITS | b ^ 1 if a else FALSE
            if b <= TRUE:
                return a << _EDGE_BITS if b else a
            if a ^ b <= 1:  # b is a or ¬a
                return a << _EDGE_BITS if a == b else a
        else:
            if a > b:
                a, b = b, a
            if a <= TRUE:
                return b if a else FALSE
            if a ^ b <= 1:  # b is a or ¬a
                return a if a == b else FALSE
        stats = self.stats
        stats.apply_calls += 1
        key = op | a << _EDGE_BITS | b
        result = self._cache.get(key)
        if result is not None:
            stats.apply_cache_hits += 1
            return result
        an = a >> 1
        bn = b >> 1
        va = self._var[an]
        vb = self._var[bn]
        if va <= vb:
            c = a & 1
            a0 = self._low[an] ^ c
            a1 = self._high[an] ^ c
        else:
            a0 = a1 = a
        if vb <= va:
            var = vb
            c = b & 1
            b0 = self._low[bn] ^ c
            b1 = self._high[bn] ^ c
        else:
            var = va
            b0 = b1 = b
        lo = self._apply(op, a0, b0)
        hi = self._apply(op, a1, b1)
        if op:
            result = self._mk(
                var, lo >> _EDGE_BITS, hi >> _EDGE_BITS
            ) << _EDGE_BITS | self._mk(var, lo & _EDGE_MASK, hi & _EDGE_MASK)
        else:
            result = self._mk(var, lo, hi)
        self._cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Cube construction
    # ------------------------------------------------------------------
    def cube(self, literals: Iterable[Tuple[int, bool]]) -> int:
        """Conjunction of literals given as ``(variable, value)`` pairs.

        Built bottom-up in one pass (no apply calls), so encoding a
        ternary match is linear in the number of cared bits.
        """
        ordered = sorted(literals, key=lambda lv: lv[0], reverse=True)
        seen: set = set()
        edge = TRUE
        for var, value in ordered:
            if var in seen:
                raise ValueError(f"duplicate variable {var} in cube")
            seen.add(var)
            if value:
                edge = self._mk(var, FALSE, edge)
            else:
                edge = self._mk(var, edge, FALSE)
        return edge

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def sat_count(self, u: int) -> int:
        """Number of satisfying assignments over all ``num_vars`` variables.

        Per-node counts memoize in a cache that survives across queries
        (:meth:`collect` invalidates it, since freed ids are reused); a
        complemented edge costs one subtraction.

        A thread holding a handle that roots ``u`` may count while the
        owner allocates and sweeps (serve readers count the writer's
        ECs): every node the walk reaches is rooted, so live, and its
        count final while it lives; :meth:`collect` clears the memo after
        it frees, so no entry outlives its node into a reused id.
        """
        total = self.num_vars
        varr = self._var
        memo = self._sat_cache
        plain = memo.get(u >> 1)
        if plain is not None:  # the common case: no walk, no closure
            level = varr[u >> 1]
            if u & 1:
                plain = (1 << (total - level)) - plain
            return plain << level

        def count(edge: int) -> Tuple[int, int]:
            """``(models over variables level..total-1, level)`` of an edge."""
            node = edge >> 1
            if node == 0:
                return edge, total
            level = varr[node]
            plain = memo.get(node)
            if plain is None:
                lo, lo_level = count(self._low[node])
                hi, hi_level = count(self._high[node])
                plain = (lo << (lo_level - level - 1)) + (
                    hi << (hi_level - level - 1)
                )
                memo[node] = plain
            if edge & 1:
                plain = (1 << (total - level)) - plain
            return plain, level

        models, level = count(u)
        return models << level

    def and_count(
        self, a: int, other: "BDD", b: int, memo: Dict[int, int]
    ) -> int:
        """``sat_count(a ∧ b)`` without building ``a ∧ b``.

        ``a`` is an edge of this store, ``b`` one of ``other`` — this
        store, or another over the same variable order.  One walk over
        operand pairs that allocates nothing in either store: a pair's
        count is half the sum of its cofactor pairs' (each cofactor is
        free of the split variable, so its count over all variables is
        even), and a constant operand hands over to the other store's
        :meth:`sat_count`.  ``memo`` maps packed edge pairs to counts,
        so it holds only while handles root both operands: a serve query
        keeps one for its scope against every EC it counts.
        """
        varr, low_, high_ = self._var, self._low, self._high
        ovar, olow, ohigh = other._var, other._low, other._high

        def walk(a: int, b: int) -> int:
            if a == FALSE or b == FALSE:
                return 0
            if a == TRUE:
                return other.sat_count(b)
            if b == TRUE:
                return self.sat_count(a)
            key = a << _EDGE_BITS | b
            models = memo.get(key)
            if models is None:
                an, bn = a >> 1, b >> 1
                va, vb = varr[an], ovar[bn]
                if va <= vb:
                    c = a & 1
                    a0, a1 = low_[an] ^ c, high_[an] ^ c
                else:
                    a0 = a1 = a
                if vb <= va:
                    c = b & 1
                    b0, b1 = olow[bn] ^ c, ohigh[bn] ^ c
                else:
                    b0 = b1 = b
                models = memo[key] = (walk(a0, b0) + walk(a1, b1)) >> 1
            return models

        return walk(a, b)

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
    def collect(self, roots: Iterable[int] = ()) -> int:
        """Mark-and-sweep; returns the number of nodes freed.

        The roots are ``roots`` plus the single-variable functions.
        Live node ids are stable across collection; the op and satcount
        caches are wiped (their entries may name dead ids), the dead tail
        of the node lists is truncated so the table physically shrinks,
        and the unique table is rebuilt over the survivors.

        An edge not reachable from ``roots`` is recycled: a caller that
        holds raw edges across a collection passes them here (the
        predicate layer passes its live handles; ``docs/bdd_engine.md``).
        """
        start = perf_counter()
        varr = self._var
        low_ = self._low
        high_ = self._high
        live = bytearray(len(varr))
        live[0] = 1  # the terminal
        stack: List[int] = [e >> 1 for e in roots]
        stack.extend(e >> 1 for e in self._var_nodes.values())
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
        end = len(varr)
        while end > 1 and varr[end - 1] == _FREE:
            end -= 1
        del varr[end:]
        del low_[end:]
        del high_[end:]
        self._free = [n for n in range(1, end) if varr[n] == _FREE]
        self._unique = {
            (varr[n] << _EDGE_BITS | low_[n]) << _EDGE_BITS | high_[n]: n
            for n in self._live_ids()
        }
        self._cache.clear()
        self._sat_cache.clear()

        stats = self.stats
        stats.gc_runs += 1
        stats.gc_freed += freed
        stats.gc_last_live = self.live_node_count
        stats.gc_seconds += perf_counter() - start
        return freed
