"""Persistent Action Tree (PAT, §3.4).

The inverse model keys equivalence classes by their N-dimensional action
vector.  Storing vectors as arrays makes every overwrite O(N) time and
memory; the paper introduces PAT — a *persistent* tree — so an overwrite
touching k devices copies only k root-to-leaf paths and shares all
untouched structure.

This implementation is a persistent radix tree (a persistent array):

* a node is a tuple of :data:`FAN` slots indexed by 4 bits of the device
  id per level; a leaf's slots hold actions, an inner node's hold child
  ids, so an overwrite is O(‖y*‖·FAN·log_FAN N) C-level tuple copies;
* its shape depends only on the ``{device → action}`` mapping: the root
  is as shallow as the largest device id allows and an all-empty subtree
  is :data:`EMPTY`, whatever order the entries were set in;
* nodes are **hash-consed** in a store, so structurally equal trees are
  the *same* node id — action-vector equality used to key the EC table is
  O(1).  Ids are append-only and never reused, and a node is complete
  before its id is returned, so readers may share a store its writer is
  still appending to.

Vectors are represented by integer node ids into an :class:`ActionTreeStore`.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

EMPTY = 0

FAN = 16
_BITS = 4  # FAN == 1 << _BITS
_MASK = FAN - 1

_ABSENT = object()  # a leaf slot with no action (actions may be None)
_NO_ACTIONS = (_ABSENT,) * FAN
_NO_CHILDREN = (EMPTY,) * FAN


def _height(key: int) -> int:
    """The level of the shallowest root whose range holds ``key``."""
    return max(0, key.bit_length() - 1) // _BITS


class ActionTreeStore:
    """Shared, interned storage for persistent action trees."""

    def __init__(self) -> None:
        # Node id -> (level, slots); level 0 is a leaf.  EMPTY reads as a
        # leaf with no actions, so a lookup that reaches it finds none.
        self._nodes: List[Tuple[int, Tuple[Any, ...]]] = [(0, _NO_ACTIONS)]
        self._intern: Dict[Tuple[int, Tuple[Any, ...]], int] = {}

    def _mk(self, level: int, slots: Tuple[Any, ...]) -> int:
        ident = (level, slots)
        fresh = len(self._nodes)
        node = self._intern.setdefault(ident, fresh)
        if node == fresh:
            self._nodes.append(ident)
        return node

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    # -- construction ------------------------------------------------------
    def build(self, items: Dict[int, Hashable]) -> int:
        """Bulk-build a vector; equivalent to repeated :meth:`set`."""
        return self.overwrite(EMPTY, items)

    def uniform(self, devices: List[int], action: Hashable) -> int:
        """A vector assigning the same action to every device."""
        return self.build({d: action for d in devices})

    # -- persistent operations ----------------------------------------------
    def get(self, node: int, key: int, default: Any = None) -> Any:
        nodes = self._nodes
        level, slots = nodes[node]
        if key >> (level + 1) * _BITS:  # past the root's range, or < 0
            return default
        while level:
            level, slots = nodes[slots[key >> level * _BITS & _MASK]]
        value = slots[key & _MASK]
        return default if value is _ABSENT else value

    def set(self, node: int, key: int, value: Hashable) -> int:
        """Return a new root with ``key`` mapped to ``value``.

        The path down to ``key``'s leaf is copied one tuple per level, the
        root first grown (each old root becomes slot 0 of the next level)
        until its range holds ``key``.
        """
        if key < 0:
            raise ValueError(f"device id {key} is negative")
        nodes, mk = self._nodes, self._mk
        level, slots = nodes[node]
        if node == EMPTY:
            level = _height(key)
            slots = _NO_CHILDREN if level else _NO_ACTIONS
        while key >> (level + 1) * _BITS:
            level += 1
            slots = (node,) + _NO_CHILDREN[1:]
            node = mk(level, slots)
        path = []
        while level:
            at = key >> level * _BITS & _MASK
            path.append((level, slots, at))
            child = slots[at]
            level -= 1
            slots = nodes[child][1] if child else (
                _NO_CHILDREN if level else _NO_ACTIONS
            )
        at = key & _MASK
        if slots[at] == value:
            return node
        node = mk(0, slots[:at] + (value,) + slots[at + 1:])
        for level, slots, at in reversed(path):
            node = mk(level, slots[:at] + (node,) + slots[at + 1:])
        return node

    def overwrite(self, node: int, delta: Dict[int, Hashable]) -> int:
        """Apply ``y ← Δy`` (Definition 2): set each delta entry.

        A mapping has one tree, so the order the entries are set in does
        not change the result.
        """
        for key, value in delta.items():
            node = self.set(node, key, value)
        return node

    # -- iteration -----------------------------------------------------------
    def to_dict(self, node: int) -> Dict[int, Any]:
        """``{device: action}`` in device order (a slot-order walk)."""
        out: Dict[int, Any] = {}
        nodes = self._nodes
        stack = [(node, 0)]
        while stack:
            node, base = stack.pop()
            level, slots = nodes[node]
            if level:
                shift = level * _BITS
                stack.extend(
                    (slots[at], base | at << shift)
                    for at in range(_MASK, -1, -1)
                    if slots[at]
                )
            else:
                for at, value in enumerate(slots):
                    if value is not _ABSENT:
                        out[base | at] = value
        return out
