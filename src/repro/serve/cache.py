"""The per-epoch result cache behind the query daemon.

Keys are ``(snapshot_epoch, kind, params, scope)`` — the epoch pins the
model version, and the rest is the query as the caller wrote it (the
scope as its hashable ``Match``), so nothing in a key belongs to an
engine and building one does no BDD work.
Because the epoch is part of the key a stale entry can never be *wrong*,
only useless — so "invalidation on epoch advance" is garbage collection:
the daemon calls :meth:`ResultCache.evict_below` with the oldest still-
live snapshot epoch whenever the writer publishes a new one.

Bounded LRU on top of that: the cache never exceeds ``max_entries``,
evicting least-recently-used entries first.  All operations are
thread-safe and O(1) except the epoch sweep (O(live entries), amortised
by how rarely epochs advance relative to queries).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from ..telemetry import Telemetry
from .queries import QueryAnswer

CacheKey = Tuple  # (epoch, kind, params, scope)


class ResultCache:
    """Bounded, epoch-aware LRU of :class:`QueryAnswer` values."""

    def __init__(
        self, max_entries: int = 4096, telemetry: Optional[Telemetry] = None
    ) -> None:
        if max_entries < 1:
            raise ValueError("ResultCache needs max_entries >= 1")
        self.max_entries = max_entries
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, QueryAnswer]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[QueryAnswer]:
        with self._lock:
            answer = self._entries.get(key)
            if answer is None:
                self.misses += 1
                self.telemetry.count("serve.cache.misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self.telemetry.count("serve.cache.hits")
            return answer

    def put(self, key: CacheKey, answer: QueryAnswer) -> None:
        with self._lock:
            self._entries[key] = answer
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                self.telemetry.count("serve.cache.evictions")
            self._gauge_locked()

    def evict_below(self, epoch: Optional[int]) -> int:
        """Drop entries for snapshot epochs older than ``epoch``."""
        if epoch is None:
            return 0
        with self._lock:
            stale = [k for k in self._entries if k[0] < epoch]
            for key in stale:
                del self._entries[key]
            if stale:
                self.evictions += len(stale)
                self.telemetry.count("serve.cache.evictions", len(stale))
                self._gauge_locked()
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._gauge_locked()

    def _gauge_locked(self) -> None:
        self.telemetry.registry.gauge("serve.cache.size").set(
            len(self._entries)
        )

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResultCache({len(self)}/{self.max_entries}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


__all__ = ["CacheKey", "ResultCache"]
