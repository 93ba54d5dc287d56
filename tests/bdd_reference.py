"""The original recursive dict-based ROBDD engine, kept as an oracle.

This is the pre-rewrite :class:`~repro.bdd.engine.BDD` implementation,
byte-for-byte in behaviour: hash-consed nodes in a tuple-keyed dict,
recursive memoized ``apply``, derived ``ite``.  It exists as the
**semantic oracle**: the property suites
(``tests/test_bdd_invariants.py``, ``tests/test_bdd_equivalence.py``)
cross-check every product-engine operation against this implementation.

It intentionally has **no** garbage collector or bounded caches;
callers that need those use the real engine.  Do not optimise
this module — its value is that it stays the known-good 1.0 semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.bdd.engine import FALSE, TRUE, BddStats

# Sentinel level for terminals: larger than any real variable index.
_TERMINAL_LEVEL = 1 << 30

_OP_AND = 0
_OP_OR = 1
_OP_XOR = 2
_OP_DIFF = 3


class ReferenceBDD:
    """A shared ROBDD node store with memoized recursive operations.

    All BDD functions created by one engine share the same node table, so
    equality of functions is equality of node ids.

    Parameters
    ----------
    num_vars:
        Number of boolean variables.  Variable ``0`` is the top-most level.
    """

    #: Plain node ids; no complement bit in references.
    complement_edges = False

    def __init__(self, num_vars: int) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        # Parallel arrays indexed by node id.
        self._var: List[int] = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._low: List[int] = [FALSE, TRUE]
        self._high: List[int] = [FALSE, TRUE]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._apply_cache: Dict[Tuple[int, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        self._sat_cache: Dict[int, int] = {}
        # Pre-built single-variable functions, created lazily.
        self._var_nodes: Dict[int, int] = {}
        self.stats = BddStats()

    # ------------------------------------------------------------------
    # Node structure
    # ------------------------------------------------------------------
    def decompose(self, u: int) -> Tuple[int, int, int]:
        """``(var, low, high)`` of a non-constant node, encoding-agnostic.

        Mirrors :meth:`repro.bdd.engine.BDD.decompose` so structural
        walkers work against either engine.
        """
        return self._var[u], self._low[u], self._high[u]

    @property
    def num_nodes(self) -> int:
        """Total number of nodes ever allocated (terminals included)."""
        return len(self._var)

    def _mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

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
        return self.ith_var(i) if value else self.negate(self.ith_var(i))

    # ------------------------------------------------------------------
    # Boolean operations
    # ------------------------------------------------------------------
    def apply_and(self, a: int, b: int) -> int:
        return self._apply(_OP_AND, a, b)

    def apply_or(self, a: int, b: int) -> int:
        return self._apply(_OP_OR, a, b)

    def apply_xor(self, a: int, b: int) -> int:
        return self._apply(_OP_XOR, a, b)

    def apply_diff(self, a: int, b: int) -> int:
        """a AND NOT b."""
        return self._apply(_OP_DIFF, a, b)

    def apply_split(self, a: int, b: int) -> Tuple[int, int]:
        """``(a ∧ b, a ∧ ¬b)`` — API parity with the array engine.

        The reference engine has no single-traversal fast path; it just
        composes the two memoized applies (still counted as one split).
        """
        self.stats.split_calls += 1
        return self._apply(_OP_AND, a, b), self._apply(_OP_DIFF, a, b)

    def negate(self, a: int) -> int:
        if a == FALSE:
            return TRUE
        if a == TRUE:
            return FALSE
        stats = self.stats
        stats.negate_calls += 1
        cached = self._not_cache.get(a)
        if cached is not None:
            stats.negate_cache_hits += 1
            return cached
        result = self._mk(
            self._var[a], self.negate(self._low[a]), self.negate(self._high[a])
        )
        self._not_cache[a] = result
        self._not_cache[result] = a
        return result

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: (f AND g) OR (NOT f AND h)."""
        return self.apply_or(self.apply_and(f, g), self.apply_and(self.negate(f), h))

    def _terminal_case(self, op: int, a: int, b: int) -> Optional[int]:
        if op == _OP_AND:
            if a == FALSE or b == FALSE:
                return FALSE
            if a == TRUE:
                return b
            if b == TRUE:
                return a
            if a == b:
                return a
        elif op == _OP_OR:
            if a == TRUE or b == TRUE:
                return TRUE
            if a == FALSE:
                return b
            if b == FALSE:
                return a
            if a == b:
                return a
        elif op == _OP_XOR:
            if a == b:
                return FALSE
            if a == FALSE:
                return b
            if b == FALSE:
                return a
            if a == TRUE:
                return self.negate(b)
            if b == TRUE:
                return self.negate(a)
        elif op == _OP_DIFF:
            if a == FALSE or b == TRUE:
                return FALSE
            if b == FALSE:
                return a
            if a == b:
                return FALSE
        return None

    def _apply(self, op: int, a: int, b: int) -> int:
        shortcut = self._terminal_case(op, a, b)
        if shortcut is not None:
            return shortcut
        if op in (_OP_AND, _OP_OR, _OP_XOR) and a > b:
            a, b = b, a  # commutative: canonicalise cache key
        stats = self.stats
        stats.apply_calls += 1
        key = (op, a, b)
        cached = self._apply_cache.get(key)
        if cached is not None:
            stats.apply_cache_hits += 1
            return cached
        va, vb = self._var[a], self._var[b]
        if va == vb:
            low = self._apply(op, self._low[a], self._low[b])
            high = self._apply(op, self._high[a], self._high[b])
            var = va
        elif va < vb:
            low = self._apply(op, self._low[a], b)
            high = self._apply(op, self._high[a], b)
            var = va
        else:
            low = self._apply(op, a, self._low[b])
            high = self._apply(op, a, self._high[b])
            var = vb
        result = self._mk(var, low, high)
        self._apply_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Cube construction
    # ------------------------------------------------------------------
    def cube(self, literals: Iterable[Tuple[int, bool]]) -> int:
        """Conjunction of literals given as ``(variable, value)`` pairs.

        Built bottom-up in one pass (no apply calls), so encoding a ternary
        match is linear in the number of cared bits.
        """
        ordered = sorted(literals, key=lambda lv: lv[0], reverse=True)
        node = TRUE
        seen: set = set()
        for var, value in ordered:
            if var in seen:
                raise ValueError(f"duplicate variable {var} in cube")
            seen.add(var)
            if value:
                node = self._mk(var, FALSE, node)
            else:
                node = self._mk(var, node, FALSE)
        return node

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def sat_count(self, u: int) -> int:
        """Number of satisfying assignments over all ``num_vars`` variables."""
        total_level = self.num_vars
        memo = self._sat_cache  # per-node counts are u-independent

        def go(node: int) -> int:
            """Count assignments of variables below ``var(node)``, exclusive."""
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            got = memo.get(node)
            if got is not None:
                return got
            lo, hi = self._low[node], self._high[node]
            lo_gap = min(self._var[lo], total_level) - self._var[node] - 1
            hi_gap = min(self._var[hi], total_level) - self._var[node] - 1
            result = (go(lo) << lo_gap) + (go(hi) << hi_gap)
            memo[node] = result
            return result

        if u == FALSE:
            return 0
        if u == TRUE:
            return 1 << total_level
        return go(u) << self._var[u]

    def any_assignment(self, u: int) -> Optional[Dict[int, bool]]:
        """One satisfying assignment (only cared variables), or None."""
        if u == FALSE:
            return None
        assignment: Dict[int, bool] = {}
        node = u
        while node != TRUE:
            if self._low[node] != FALSE:
                assignment[self._var[node]] = False
                node = self._low[node]
            else:
                assignment[self._var[node]] = True
                node = self._high[node]
        return assignment

    def evaluate(self, u: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate ``u`` under a total assignment (missing vars default 0)."""
        node = u
        while node > TRUE:
            if assignment.get(self._var[node], False):
                node = self._high[node]
            else:
                node = self._low[node]
        return node == TRUE

    def iter_cubes(self, u: int) -> Iterator[Dict[int, bool]]:
        """Iterate the cubes (partial assignments) of ``u``'s DNF cover."""

        def go(node: int, prefix: Dict[int, bool]) -> Iterator[Dict[int, bool]]:
            if node == FALSE:
                return
            if node == TRUE:
                yield dict(prefix)
                return
            var = self._var[node]
            prefix[var] = False
            yield from go(self._low[node], prefix)
            prefix[var] = True
            yield from go(self._high[node], prefix)
            del prefix[var]

        yield from go(u, {})

    def node_count(self, u: int) -> int:
        """Number of distinct internal nodes in the DAG rooted at ``u``."""
        seen: set = set()
        stack = [u]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return len(seen)
