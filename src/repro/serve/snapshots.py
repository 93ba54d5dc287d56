"""Snapshot-isolated model versions for the query daemon.

CE2D's consistency argument applied to serving: the writer advances the
model one ingested batch at a time, and every advance *publishes* an
immutable :class:`~repro.core.model_manager.FrozenReadView` under a
monotonically increasing serve epoch.  Readers **pin** a snapshot (the
latest, or an explicit epoch), evaluate against it, and unpin; a pinned
snapshot is never retired, so a reader observes one consistent model
version end to end no matter how far the writer gets in the meantime.

A published snapshot is the writer's own read view
(:func:`isolate_view`): its predicates are live handles of the writer's
engine, so they root their nodes there and no writer sweep frees or
reuses them while the snapshot lives.  Readers read that store (counts,
signatures) but never write to it: a query's scope compiles in the
view's private scope engine (``FrozenReadView.compiler``).  Publishing
copies nothing, whatever the size of the model.  Each snapshot carries
its own lock, because its scope engine is the one thing in it that
queries mutate: two queries on the *same* snapshot serialise.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..core.model_manager import FrozenReadView
from ..errors import SnapshotUnavailableError
from ..telemetry import Telemetry


def isolate_view(view: FrozenReadView) -> FrozenReadView:
    """The snapshot of one published model version: ``view``'s EC table,
    handles, PAT store and rules, shared as they are.

    Nothing is copied and nothing is counted.  The returned view is a
    new wrapper only so that its scope engine (built at its first
    scoped query) is the snapshot's own, whatever was compiled with
    ``view``.
    """
    return FrozenReadView(
        engine=view.engine,
        layout=view.layout,
        store=view.store,
        devices=view.devices,
        entries=view.entries(),
        epoch=view.epoch,
        universe=view.universe,
        rules=view.rules,
    )


class Snapshot:
    """One published model version: (serve epoch, read view, the lock
    around its scope engine)."""

    __slots__ = ("epoch", "view", "lock", "pins", "_store")

    def __init__(
        self, epoch: int, view: FrozenReadView, store: "SnapshotStore"
    ) -> None:
        self.epoch = epoch
        self.view = view
        self.lock = threading.RLock()
        self.pins = 0
        self._store = store

    def unpin(self) -> None:
        self._store._unpin(self)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.unpin()

    def __repr__(self) -> str:
        return (
            f"Snapshot(epoch={self.epoch}, pins={self.pins}, "
            f"{self.view.num_ecs()} ECs)"
        )


class SnapshotStore:
    """Publish/pin/retire of model versions, newest-wins.

    The store keeps at most ``keep`` *unpinned* snapshots (newest
    first); pinned snapshots survive retirement until their last reader
    unpins, at which point retirement is re-attempted (so a view's
    handles may be released on a reader's thread; see
    ``PredicateEngine.collect``).  All operations are thread-safe.
    """

    def __init__(self, keep: int = 4, telemetry: Optional[Telemetry] = None) -> None:
        if keep < 1:
            raise ValueError("SnapshotStore must keep at least one snapshot")
        self.keep = keep
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._lock = threading.Lock()
        self._by_epoch: Dict[int, Snapshot] = {}
        self._order: List[int] = []  # publish order, oldest first
        self._latest: Optional[int] = None

    # ------------------------------------------------------------------
    def publish(self, epoch: int, view: FrozenReadView) -> Snapshot:
        """Install ``view`` as the snapshot for ``epoch`` (must be new)."""
        snapshot = Snapshot(epoch, view, self)
        with self._lock:
            if epoch in self._by_epoch or (
                self._latest is not None and epoch <= self._latest
            ):
                raise ValueError(f"serve epoch {epoch} already published")
            self._by_epoch[epoch] = snapshot
            self._order.append(epoch)
            self._latest = epoch
            self._retire_locked()
            self.telemetry.count("serve.snapshot.published")
            self.telemetry.registry.gauge("serve.snapshots.live").set(
                len(self._by_epoch)
            )
        return snapshot

    def pin(self, epoch: Optional[int] = None) -> Snapshot:
        """Pin the snapshot for ``epoch`` (latest when ``None``)."""
        with self._lock:
            target = self._latest if epoch is None else epoch
            snapshot = (
                self._by_epoch.get(target) if target is not None else None
            )
            if snapshot is None:
                raise SnapshotUnavailableError(
                    "no snapshot published yet"
                    if target is None
                    else f"snapshot epoch {target} is unknown or retired"
                )
            snapshot.pins += 1
            return snapshot

    def _unpin(self, snapshot: Snapshot) -> None:
        with self._lock:
            snapshot.pins -= 1
            if snapshot.pins < 0:
                raise AssertionError("snapshot unpinned more times than pinned")
            self._retire_locked()

    def _retire_locked(self) -> None:
        """Drop the oldest unpinned snapshots beyond ``keep`` (never the
        latest)."""
        while len(self._order) > self.keep:
            retired = False
            for i, epoch in enumerate(self._order[:-1]):  # keep the latest
                snapshot = self._by_epoch[epoch]
                if snapshot.pins == 0:
                    del self._by_epoch[epoch]
                    del self._order[i]
                    self.telemetry.count("serve.snapshot.retired")
                    retired = True
                    break
            if not retired:
                break  # everything old is pinned: let readers finish
        self.telemetry.registry.gauge("serve.snapshots.live").set(
            len(self._by_epoch)
        )

    # ------------------------------------------------------------------
    @property
    def latest_epoch(self) -> Optional[int]:
        with self._lock:
            return self._latest

    def oldest_epoch(self) -> Optional[int]:
        with self._lock:
            return self._order[0] if self._order else None

    def live_epochs(self) -> List[int]:
        with self._lock:
            return list(self._order)

    def live_views(self) -> List[FrozenReadView]:
        """The views of every snapshot not yet retired, oldest first."""
        with self._lock:
            return [self._by_epoch[epoch].view for epoch in self._order]

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_epoch)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"SnapshotStore({len(self._by_epoch)} live, "
                f"latest={self._latest}, keep={self.keep})"
            )


__all__ = ["Snapshot", "SnapshotStore", "isolate_view"]
