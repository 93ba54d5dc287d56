"""The CE2D dispatcher (Figure 1, §4.1).

Responsibilities:

1. apply every tagged batch, once, to the *trunk* — the one model that
   holds every device's latest FIB;
2. manage epoch-verifier life cycles: open a verifier (a set of checkers
   over the trunk) when an epoch becomes a potential converged state, stop
   (drop) verifiers whose epoch is proven stale;
3. tell each live verifier what the batch changed, and which device — if
   any — it synchronised for that verifier's epoch.

One model serves every epoch because of the tracker's invariant
(:class:`~repro.ce2d.epoch.EpochTracker`): tag ``t`` leaves the active set
the moment any device that reported ``t`` reports anything else, and never
returns.  So while ``t`` is active, every device that ever sent a batch
tagged ``t`` sent it *last*: its trunk column is its FIB at ``t``.  This is
how "each subspace verifier maintains the complete FIB snapshots but only
verifies ... a specific epoch" (§2) — an epoch is the set of devices
synchronised for it (``tracker.devices_at(t)``) plus its checkers' state,
and the checkers read no column outside that set.  A batch from a device
outside the epoch still re-partitions the trunk's EC table, so the epoch's
verifier is handed that lineage with nobody synchronised (``new_synced == ()``).

A back-off knob bounds verifier creation rate (the paper's guard against
control-plane bugs creating epochs faster than they converge); a deferred
epoch opens, when a slot frees, with one checker pass over the trunk's
whole table and every device then at it.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from ..dataplane.update import EpochTag, RuleUpdate
from ..errors import DispatchError
from ..results import Verdict
from ..telemetry import Telemetry
from .epoch import EpochTracker
from .verifier import Report, SubspaceVerifier

VerifierFactory = Callable[[EpochTag], SubspaceVerifier]


class CE2DDispatcher:
    """Epoch-aware routing of tagged updates to subspace verifiers.

    ``trunk`` writes the shared model (``apply(updates)`` returns the
    batch's lineage, ``as_deltas()`` the whole table as one step from the
    initial one); ``factory(tag)`` builds an epoch's checkers over that
    model, with ``observe(lineage, new_synced, now)`` as their door.  A
    :class:`SubspaceVerifier` (or :class:`~repro.flash.EpochGroupVerifier`)
    serves as either.
    """

    def __init__(
        self,
        trunk: SubspaceVerifier,
        factory: VerifierFactory,
        max_live_verifiers: int = 8,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.trunk = trunk
        self.factory = factory
        self.max_live_verifiers = max_live_verifiers
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracker = EpochTracker()
        self.verifiers: Dict[EpochTag, SubspaceVerifier] = {}
        # When each live verifier opened; its lifetime becomes one
        # ``ce2d.epoch`` span when it closes.
        self._opened_at: Dict[EpochTag, float] = {}
        # Latched: the first VIOLATED report ``receive`` ever returned.  It
        # outlives its epoch's verifier; every other verdict leaves with it.
        self.first_violation: Optional[Report] = None

    # ------------------------------------------------------------------
    def receive(
        self,
        device: int,
        epoch: EpochTag,
        updates: Sequence[RuleUpdate],
        now: Optional[float] = None,
    ) -> List[Report]:
        """Ingest one tagged batch from a device agent (Figure 1 steps 3-4).

        Apply comes first: a batch the model rejects raises here, before
        the tracker or any verifier has heard of it.
        """
        if epoch is None:
            raise DispatchError("updates must carry an epoch tag")
        self.telemetry.count("ce2d.batches")
        self.telemetry.count("ce2d.updates", len(updates))
        lineage = self.trunk.apply(updates)
        self.tracker.observe(device, epoch)
        self._garbage_collect()
        results: List[Report] = []
        for tag in self.tracker.active_tags():
            verifier = self.verifiers.get(tag)
            if verifier is not None:
                # A same-tag re-report (per-update streaming, retried
                # agents) synchronises nobody new but is still the epoch's
                # own batch.
                synced = [device] if tag == epoch else ()
                results.extend(verifier.observe(lineage, synced, now))
            elif len(self.verifiers) < self.max_live_verifiers:
                # Otherwise back-off: defer until capacity frees up.
                verifier = self._open(tag)
                results.extend(
                    verifier.observe(
                        self.trunk.as_deltas(), self.tracker.devices_at(tag), now
                    )
                )
        if self.first_violation is None:
            self.first_violation = next(
                (r for r in results if r.verdict is Verdict.VIOLATED), None
            )
        return results

    def _garbage_collect(self) -> None:
        """Stop verifiers whose epoch can no longer be the converged state."""
        for tag in list(self.verifiers):
            if self.tracker.is_inactive(tag):
                del self.verifiers[tag]
                self.telemetry.add_span(
                    "ce2d.epoch", time.perf_counter() - self._opened_at.pop(tag)
                )
                self.telemetry.count("ce2d.epoch.closed")
        self.telemetry.registry.gauge("ce2d.verifiers.live").set(
            len(self.verifiers)
        )

    def _open(self, tag: EpochTag) -> SubspaceVerifier:
        verifier = self.factory(tag)
        verifier.epoch = tag
        self.verifiers[tag] = verifier
        self.telemetry.count("ce2d.epoch.opened")
        self.telemetry.registry.gauge("ce2d.verifiers.live").set(
            len(self.verifiers)
        )
        self._opened_at[tag] = time.perf_counter()
        return verifier

    # ------------------------------------------------------------------
    def verifier_for(self, epoch: EpochTag) -> Optional[SubspaceVerifier]:
        return self.verifiers.get(epoch)

    def latest_verifier(self) -> Optional[SubspaceVerifier]:
        """The most recently opened live verifier.

        ``dict`` preserves insertion order, so the last live entry is the
        newest epoch group — the one current ingest lands in.
        """
        newest = None
        for verifier in self.verifiers.values():
            newest = verifier
        return newest

    def active_verifiers(self) -> List[SubspaceVerifier]:
        return [
            v for t, v in self.verifiers.items() if self.tracker.is_active(t)
        ]

    def deterministic_reports(self) -> List[Report]:
        """Every live verifier's current non-UNKNOWN verdicts, oldest epoch
        first.  A closed epoch's verdicts left with its verifier."""
        return [
            r for v in self.verifiers.values() for r in v.deterministic_reports()
        ]

    def __repr__(self) -> str:
        return (
            f"CE2DDispatcher({len(self.verifiers)} verifiers, "
            f"active={len(self.tracker.active_tags())})"
        )
