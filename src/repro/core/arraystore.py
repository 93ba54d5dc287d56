"""Array-backed stores: interned action vectors and the BDD node table.

Two flat, index-addressed structures live here:

* :class:`ArrayActionStore` — the ablation counterpart of PAT (§3.4/§5.4).
  Implements the same interface as :class:`~repro.core.actiontree.
  ActionTreeStore` but stores every vector as an interned tuple: overwrites
  copy O(N) entries and interning hashes O(N) entries, i.e. exactly the naive
  cost model the paper's §5.4 attributes to APKeep's T_EC.  Used by
  ``benchmarks/bench_ablation.py`` to isolate PAT's contribution.

* :class:`OpenAddressedNodeTable` — the unique table behind the
  :class:`~repro.bdd.engine.BDD` hash-consing store.  Instead of a dict
  keyed by boxed ``(var, low, high)`` tuples, it keeps one flat list of
  node ids probed open-addressed (linear probing over a power-of-two
  capacity); the key material lives in the owner's parallel
  ``var``/``low``/``high`` arrays, so membership costs integer arithmetic
  plus array reads and no per-entry allocation.  Hot loops are expected
  to inline the probe against :attr:`~OpenAddressedNodeTable.slots` /
  :attr:`~OpenAddressedNodeTable.mask` directly (see
  ``repro/bdd/engine.py``); the methods here are the reference protocol
  and the cold-path (rebuild/grow) implementation.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Sequence, Tuple

EMPTY = 0

#: Multipliers mixing a ``(var, low, high)`` triple into a probe hash.
#: Odd constants borrowed from splitmix/murmur finalisers; the xor of
#: three independently-scaled components keeps chains short even for the
#: highly regular triples a prefix-heavy workload produces.
HASH_VAR = 0x9E3779B1
HASH_LOW = 0x85EBCA77
HASH_HIGH = 0xC2B2AE3D


class OpenAddressedNodeTable:
    """Open-addressed ``(var, low, high) → node`` unique table.

    Slot value ``0`` means *empty* — node 0 is the FALSE terminal and is
    never hash-consed, so no separate sentinel array is needed.  The
    table never stores tombstones: deletion only happens wholesale during
    garbage collection, which rebuilds the table from the surviving
    nodes via :meth:`rebuild`.
    """

    __slots__ = ("slots", "mask", "used", "limit")

    def __init__(self, capacity: int = 1 << 12) -> None:
        cap = 8
        while cap < capacity:
            cap <<= 1
        self.slots: List[int] = [0] * cap
        self.mask = cap - 1
        self.used = 0
        # Resize past 3/4 occupancy: linear probing degrades sharply
        # beyond that load factor.
        self.limit = (cap * 3) >> 2

    @property
    def capacity(self) -> int:
        return self.mask + 1

    def find(
        self,
        var: int,
        low: int,
        high: int,
        vars_: Sequence[int],
        lows: Sequence[int],
        highs: Sequence[int],
    ) -> Tuple[int, int]:
        """Probe for a triple; returns ``(node, slot_index)``.

        ``node`` is 0 when absent, in which case ``slot_index`` is the
        insertion point.  The caller supplies the parallel key arrays.
        """
        mask = self.mask
        slots = self.slots
        h = (var * HASH_VAR ^ low * HASH_LOW ^ high * HASH_HIGH) & mask
        node = slots[h]
        while node:
            if lows[node] == low and highs[node] == high and vars_[node] == var:
                return node, h
            h = (h + 1) & mask
            node = slots[h]
        return 0, h

    def insert_at(self, slot_index: int, node: int) -> bool:
        """Fill a slot returned by :meth:`find`; True if a grow is due."""
        self.slots[slot_index] = node
        self.used += 1
        return self.used > self.limit

    def rebuild(
        self,
        nodes: Iterator[int],
        vars_: Sequence[int],
        lows: Sequence[int],
        highs: Sequence[int],
        capacity: int,
    ) -> None:
        """Re-slot ``nodes`` into a fresh table of at least ``capacity``."""
        live = list(nodes)
        cap = 8
        needed = max(capacity, (len(live) * 4) // 3 + 1)
        while cap < needed:
            cap <<= 1
        slots = [0] * cap
        mask = cap - 1
        for node in live:
            h = (
                vars_[node] * HASH_VAR
                ^ lows[node] * HASH_LOW
                ^ highs[node] * HASH_HIGH
            ) & mask
            while slots[h]:
                h = (h + 1) & mask
            slots[h] = node
        self.slots = slots
        self.mask = mask
        self.used = len(live)
        self.limit = (cap * 3) >> 2


class ArrayActionStore:
    """Interned tuple-of-pairs vectors with the ActionTreeStore interface."""

    def __init__(self) -> None:
        self._vectors: List[Tuple[Tuple[int, Any], ...]] = [()]
        self._intern: Dict[Tuple[Tuple[int, Any], ...], int] = {(): EMPTY}

    def _mk(self, items: Tuple[Tuple[int, Any], ...]) -> int:
        node = self._intern.get(items)
        if node is None:
            node = len(self._vectors)
            self._vectors.append(items)
            self._intern[items] = node
        return node

    # -- construction ---------------------------------------------------
    def build(self, items: Dict[int, Hashable]) -> int:
        return self._mk(tuple(sorted(items.items())))

    def uniform(self, devices: List[int], action: Hashable) -> int:
        return self.build({d: action for d in devices})

    # -- operations --------------------------------------------------------
    def get(self, node: int, key: int, default: Any = None) -> Any:
        for k, v in self._vectors[node]:
            if k == key:
                return v
        return default

    def contains(self, node: int, key: int) -> bool:
        return any(k == key for k, _ in self._vectors[node])

    def set(self, node: int, key: int, value: Hashable) -> int:
        return self.overwrite(node, {key: value})

    def overwrite(self, node: int, delta: Dict[int, Hashable]) -> int:
        merged = dict(self._vectors[node])
        merged.update(delta)  # O(N) copy: the cost PAT avoids
        return self._mk(tuple(sorted(merged.items())))

    def delete(self, node: int, key: int) -> int:
        remaining = tuple(
            (k, v) for k, v in self._vectors[node] if k != key
        )
        return self._mk(remaining)

    # -- queries ----------------------------------------------------------
    def size(self, node: int) -> int:
        return len(self._vectors[node])

    @property
    def num_nodes(self) -> int:
        return len(self._vectors)

    def items(self, node: int) -> Iterator[Tuple[int, Any]]:
        return iter(self._vectors[node])

    def to_dict(self, node: int) -> Dict[int, Any]:
        return dict(self._vectors[node])
