"""Persistent Action Tree (PAT, §3.4).

The inverse model keys equivalence classes by their N-dimensional action
vector.  Storing vectors as arrays makes every overwrite O(N) time and
memory; the paper introduces PAT — a *persistent* balanced BST — so an
overwrite touching k devices costs O(k·lg N) and shares all untouched
structure.

This implementation is a persistent treap with two twists:

* **deterministic heap priorities** derived by hashing the device id, so a
  given {device → action} mapping has exactly one tree shape regardless of
  the order operations were applied in;
* **hash-consing** of nodes in a store, so structurally equal trees are the
  *same* node id — action-vector equality used to key the EC table is O(1).

Vectors are represented by integer node ids into an :class:`ActionTreeStore`.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

EMPTY = 0

_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _priority(key: int) -> int:
    """Deterministic treap priority for a device id (splitmix64 finaliser)."""
    z = (key * _MIX + _MIX) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class ActionTreeStore:
    """Shared, interned storage for persistent action trees."""

    def __init__(self) -> None:
        # Node 0 is the empty tree.
        self._key: List[int] = [-1]
        self._value: List[Any] = [None]
        self._left: List[int] = [EMPTY]
        self._right: List[int] = [EMPTY]
        self._size: List[int] = [0]
        self._intern: Dict[Tuple[int, Any, int, int], int] = {}
        # Device id -> its treap rank ``(_priority(key), key)``: one entry
        # per device, reached only by the writer (set / _merge / delete).
        self._rank: Dict[int, Tuple[int, int]] = {}

    # -- node accessors ----------------------------------------------------
    def _mk(self, key: int, value: Hashable, left: int, right: int) -> int:
        ident = (key, value, left, right)
        node = self._intern.get(ident)
        if node is None:
            node = len(self._key)
            self._key.append(key)
            self._value.append(value)
            self._left.append(left)
            self._right.append(right)
            self._size.append(self._size[left] + self._size[right] + 1)
            self._intern[ident] = node
        return node

    def size(self, node: int) -> int:
        """Number of (device, action) entries — the paper's ‖y‖≠0."""
        return self._size[node]

    @property
    def num_nodes(self) -> int:
        return len(self._key)

    # -- construction ------------------------------------------------------
    def build(self, items: Dict[int, Hashable]) -> int:
        """Bulk-build a vector; equivalent to repeated :meth:`set`."""
        node = EMPTY
        for key in sorted(items):
            node = self.set(node, key, items[key])
        return node

    def uniform(self, devices: List[int], action: Hashable) -> int:
        """A vector assigning the same action to every device."""
        return self.build({d: action for d in devices})

    # -- persistent operations ----------------------------------------------
    def get(self, node: int, key: int, default: Any = None) -> Any:
        while node != EMPTY:
            k = self._key[node]
            if key == k:
                return self._value[node]
            node = self._left[node] if key < k else self._right[node]
        return default

    def contains(self, node: int, key: int) -> bool:
        sentinel = object()
        return self.get(node, key, sentinel) is not sentinel

    def set(self, node: int, key: int, value: Hashable) -> int:
        """Return a new root with ``key`` mapped to ``value``."""
        if node == EMPTY:
            return self._mk(key, value, EMPTY, EMPTY)
        k = self._key[node]
        if key == k:
            if self._value[node] == value:
                return node
            return self._mk(key, value, self._left[node], self._right[node])
        if self._prio_less(k, key):
            # New key floats above this subtree.  The heap property
            # guarantees the key is absent below (its priority would be
            # smaller than every ancestor's), so a plain split is safe.
            left, right = self._split(node, key)
            return self._mk(key, value, left, right)
        if key < k:
            return self._mk(
                k, self._value[node], self.set(self._left[node], key, value),
                self._right[node],
            )
        return self._mk(
            k, self._value[node], self._left[node],
            self.set(self._right[node], key, value),
        )

    def _prio_less(self, a: int, b: int) -> bool:
        """Whether key ``a``'s priority is lower than key ``b``'s."""
        rank = self._rank
        return (rank.get(a) or self._new_rank(a)) < (
            rank.get(b) or self._new_rank(b)
        )

    def _new_rank(self, key: int) -> Tuple[int, int]:
        rank = self._rank[key] = (_priority(key), key)
        return rank

    def _split(self, node: int, key: int) -> Tuple[int, int]:
        """Split into (< key, > key); ``key`` itself must be absent."""
        if node == EMPTY:
            return EMPTY, EMPTY
        k = self._key[node]
        if key < k:
            left, right = self._split(self._left[node], key)
            return left, self._mk(k, self._value[node], right, self._right[node])
        left, right = self._split(self._right[node], key)
        return self._mk(k, self._value[node], self._left[node], left), right

    def delete(self, node: int, key: int) -> int:
        """Return a new root without ``key`` (no-op if absent)."""
        if node == EMPTY:
            return EMPTY
        k = self._key[node]
        if key == k:
            return self._merge(self._left[node], self._right[node])
        if key < k:
            new_left = self.delete(self._left[node], key)
            if new_left == self._left[node]:
                return node
            return self._mk(k, self._value[node], new_left, self._right[node])
        new_right = self.delete(self._right[node], key)
        if new_right == self._right[node]:
            return node
        return self._mk(k, self._value[node], self._left[node], new_right)

    def _merge(self, a: int, b: int) -> int:
        """Merge two treaps where all keys of ``a`` < all keys of ``b``."""
        if a == EMPTY:
            return b
        if b == EMPTY:
            return a
        if self._prio_less(self._key[b], self._key[a]):
            return self._mk(
                self._key[a], self._value[a], self._left[a],
                self._merge(self._right[a], b),
            )
        return self._mk(
            self._key[b], self._value[b], self._merge(a, self._left[b]),
            self._right[b],
        )

    def overwrite(self, node: int, delta: Dict[int, Hashable]) -> int:
        """Apply ``y ← Δy`` (Definition 2): set each delta entry.

        A key the vector already holds keeps its place in the treap, so
        its new value is a copy of the path down to it, with no priority
        comparison; only an absent key goes through :meth:`set`.  Either
        way the result is the hash-consed node :meth:`set` would return.
        """
        keys, values, left, right = self._key, self._value, self._left, self._right
        for key in sorted(delta):
            value = delta[key]
            path: List[int] = []
            at = node
            while at != EMPTY and keys[at] != key:
                path.append(at)
                at = left[at] if key < keys[at] else right[at]
            if at == EMPTY:
                node = self.set(node, key, value)
                continue
            if values[at] == value:
                continue
            copy = self._mk(key, value, left[at], right[at])
            for up in reversed(path):
                if key < keys[up]:
                    copy = self._mk(keys[up], values[up], copy, right[up])
                else:
                    copy = self._mk(keys[up], values[up], left[up], copy)
            node = copy
        return node

    # -- iteration -----------------------------------------------------------
    def to_dict(self, node: int) -> Dict[int, Any]:
        """``{device: action}`` in device order (an in-order walk)."""
        out: Dict[int, Any] = {}
        keys, values, left, right = self._key, self._value, self._left, self._right
        stack: List[int] = []
        while node != EMPTY or stack:
            while node != EMPTY:
                stack.append(node)
                node = left[node]
            node = stack.pop()
            out[keys[node]] = values[node]
            node = right[node]
        return out

    def depth(self, node: int) -> int:
        if node == EMPTY:
            return 0
        return 1 + max(self.depth(self._left[node]), self.depth(self._right[node]))
