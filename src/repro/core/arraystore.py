"""Array-backed action-vector store: the PAT ablation baseline.

:class:`ArrayActionStore` is the ablation counterpart of PAT (§3.4/§5.4).
It implements the same interface as :class:`~repro.core.actiontree.
ActionTreeStore` but stores every vector as an interned tuple: overwrites
copy O(N) entries and interning hashes O(N) entries, i.e. exactly the naive
cost model the paper's §5.4 attributes to APKeep's T_EC.  Used by
``benchmarks/bench_ablation.py`` to isolate PAT's contribution.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Tuple

EMPTY = 0


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
