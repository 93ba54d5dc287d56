"""The historical replaying CE2D dispatcher, kept as an oracle.

This is the dispatcher :mod:`repro.ce2d.dispatcher` shipped before the
trunk: it keeps every batch every device ever sent, and gives each epoch a
pinned verifier *with a model of its own*, built by replaying each
device's log from its first batch through its last batch tagged with that
epoch (FIB updates are diffs against the device's previous FIB).  It is
the semantic baseline ``tests/test_dispatcher_properties.py`` holds
:class:`~repro.ce2d.dispatcher.CE2DDispatcher` equal to — same
synchronised sets, same verdicts, same model on the synchronised columns.
Do not optimise this module; only telemetry was removed from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ce2d.epoch import EpochTracker
from repro.dataplane.update import EpochTag, RuleUpdate


@dataclass
class _DeviceLog:
    """One device's serialized stream of tagged batches."""

    batches: List[Tuple[EpochTag, List[RuleUpdate]]] = field(default_factory=list)

    def append(self, tag: EpochTag, updates: Sequence[RuleUpdate]) -> None:
        self.batches.append((tag, list(updates)))

    def prefix_through(self, tag: EpochTag) -> Optional[Tuple[int, List[RuleUpdate]]]:
        """Updates from the start through the last batch tagged ``tag``.

        Returns (next_index, updates) or None when no batch carries the tag.
        """
        last = None
        for i, (t, _) in enumerate(self.batches):
            if t == tag:
                last = i
        if last is None:
            return None
        combined: List[RuleUpdate] = []
        for _, updates in self.batches[: last + 1]:
            combined.extend(updates)
        return last + 1, combined


class ReplayDispatcher:
    """``factory(tag)`` builds a pinned verifier that owns its model;
    its door is ``receive(device, updates, now=)``."""

    def __init__(self, factory: Callable[[EpochTag], object], max_live_verifiers: int = 8) -> None:
        self.factory = factory
        self.max_live_verifiers = max_live_verifiers
        self.tracker = EpochTracker()
        self.verifiers: Dict[EpochTag, object] = {}
        self._logs: Dict[int, _DeviceLog] = {}
        # Per epoch: device -> number of log batches already fed to the
        # verifier.  A device can report the same epoch more than once;
        # later same-tag batches are fed as deltas instead of being dropped.
        self._fed: Dict[EpochTag, Dict[int, int]] = {}
        self.reports: List[object] = []

    def receive(self, device, epoch, updates, now=None) -> List[object]:
        self.tracker.observe(device, epoch)
        self._logs.setdefault(device, _DeviceLog()).append(epoch, updates)
        for tag in list(self.verifiers):
            if self.tracker.is_inactive(tag):
                del self.verifiers[tag]
                self._fed.pop(tag, None)
        return self._drain(now)

    def _drain(self, now) -> List[object]:
        """Feed update prefixes of active epochs to their verifiers."""
        results: List[object] = []
        for tag in self.tracker.active_tags():
            verifier = self.verifiers.get(tag)
            if verifier is None:
                if len(self.verifiers) >= self.max_live_verifiers:
                    continue  # back-off: defer until capacity frees up
                verifier = self.factory(tag)
                verifier.epoch = tag
                self.verifiers[tag] = verifier
                self._fed[tag] = {}
            fed = self._fed[tag]
            for device, log in self._logs.items():
                prefix = log.prefix_through(tag)
                if prefix is None:
                    continue  # device has not reported this epoch yet
                next_index, combined = prefix
                done = fed.get(device)
                if done is None:
                    # First sight of this device for the epoch: replay its
                    # serialized stream from the beginning (FIB diffs).
                    fed[device] = next_index
                    results.extend(verifier.receive(device, combined, now=now))
                elif next_index > done:
                    # The device reported the same epoch again: feed only
                    # the batches logged since the last drain.
                    delta: List[RuleUpdate] = []
                    for _, updates in log.batches[done:next_index]:
                        delta.extend(updates)
                    fed[device] = next_index
                    results.extend(verifier.receive(device, delta, now=now))
        self.reports.extend(results)
        return results
