"""Supervised ingestion: validate updates before they touch the model.

:class:`UpdateValidator` keeps its own journal view of what is installed
per device (rule identity, not BDDs) and classifies every incoming
:class:`~repro.dataplane.update.RuleUpdate` against it:

* an insert of an installed rule → :class:`~repro.errors.DuplicateInsertError`;
* a delete of a rule that is not installed (duplicate delete or a delete
  of a never-installed rule) → :class:`~repro.errors.UnknownRuleDeleteError`;
* an update tagged with a regressed epoch → :class:`~repro.errors.StaleEpochError`;
* an update for a foreign device → :class:`~repro.errors.UnknownDeviceError`.

An invalid update never reaches the model.  A *repairable* one (an
idempotent duplicate, a stale retransmission) is dropped and counted
under ``resilience.repaired.<kind>``; the unrepairable rest is recorded
in an inspectable :class:`DeadLetterLog` and counted under
``resilience.quarantined.<kind>``.

The validator is a filter a caller puts in front of a writer
(``admit`` returns the update to apply, or ``None``); the surviving
stream has last-writer-wins semantics per ``(device, rule)`` key, which
is the convergence guarantee the chaos difftest (``repro fuzz
--chaos``) leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..dataplane.rule import Rule
from ..dataplane.update import EpochTag, RuleUpdate
from ..errors import (
    DuplicateInsertError,
    InvalidUpdateError,
    StaleEpochError,
    UnknownDeviceError,
    UnknownRuleDeleteError,
)
from ..telemetry import Telemetry


@dataclass(frozen=True)
class QuarantinedUpdate:
    """One sidelined update, as recorded in the dead-letter log."""

    update: RuleUpdate
    kind: str
    reason: str
    sequence: int  # admission-order index of the offending update

    def __repr__(self) -> str:
        return (
            f"QuarantinedUpdate(#{self.sequence} {self.kind}: "
            f"{self.update!r}: {self.reason})"
        )


class DeadLetterLog:
    """Bounded, inspectable log: exact counts per ``entry.kind`` for the
    life of the log, the most recent ``max_entries`` entries held.

    Holds quarantined updates here and, for ``repro.serve``, the batches
    its writer could not apply.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = max_entries
        self.entries: List[QuarantinedUpdate] = []
        self.dropped = 0  # entries evicted once the bound was hit
        self.counts: Dict[str, int] = {}

    def record(self, entry: QuarantinedUpdate) -> None:
        self.counts[entry.kind] = self.counts.get(entry.kind, 0) + 1
        if len(self.entries) >= self.max_entries:
            self.entries.pop(0)
            self.dropped += 1
        self.entries.append(entry)

    @property
    def total(self) -> int:
        """Entries ever recorded, evicted ones included."""
        return len(self.entries) + self.dropped

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def __repr__(self) -> str:
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"DeadLetterLog({len(self.entries)} entries: {kinds or 'empty'})"


class EpochGate:
    """Per-device epoch-regression detection against a known tag order.

    ``order`` lists the epoch tags in generation order.  An update is
    stale when its tag is unknown or sits strictly before the highest
    tag its device has reported; untagged updates always pass.
    """

    def __init__(self, order: Sequence[EpochTag]) -> None:
        self._order = {tag: i for i, tag in enumerate(order)}
        self._high: Dict[int, int] = {}

    def classify(self, update: RuleUpdate) -> Optional[str]:
        """Returns a reason string when the update's epoch regressed."""
        tag = update.epoch
        if tag is None:
            return None
        rank = self._order.get(tag)
        if rank is None:
            return f"unknown epoch tag {tag!r}"
        high = self._high.get(update.device)
        if high is not None and rank < high:
            return f"epoch {tag!r} regressed (device already at rank {high})"
        self._high[update.device] = rank
        return None


class UpdateValidator:
    """Classify updates against a journal view; let only valid ones by."""

    def __init__(
        self,
        devices: Optional[Iterable[int]] = None,
        epoch_gate: Optional[EpochGate] = None,
        telemetry: Optional[Telemetry] = None,
        dead_letters: Optional[DeadLetterLog] = None,
    ) -> None:
        self.devices: Optional[Set[int]] = (
            set(devices) if devices is not None else None
        )
        self.epoch_gate = epoch_gate
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.dead_letters = (
            dead_letters if dead_letters is not None else DeadLetterLog()
        )
        self._installed: Dict[int, Set[Rule]] = {}
        self._sequence = 0
        self.admitted = 0
        self.repaired = 0

    # ------------------------------------------------------------------
    def classify(self, update: RuleUpdate) -> Optional[InvalidUpdateError]:
        """What is wrong with this update, as a structured error (returned,
        never raised), or None if it is valid."""
        if self.devices is not None and update.device not in self.devices:
            return UnknownDeviceError(
                f"update for unknown device {update.device}: {update!r}",
                update,
            )
        if self.epoch_gate is not None:
            reason = self.epoch_gate.classify(update)
            if reason is not None:
                return StaleEpochError(f"{reason}: {update!r}", update)
        have = self._installed.setdefault(update.device, set())
        if update.is_insert and update.rule in have:
            return DuplicateInsertError(
                f"duplicate insert (already installed): {update!r}", update
            )
        if update.is_delete and update.rule not in have:
            return UnknownRuleDeleteError(
                f"delete of a rule that is not installed: {update!r}", update
            )
        return None

    def admit(self, update: RuleUpdate) -> Optional[RuleUpdate]:
        """Validate one update.

        Returns the update when it should be applied; ``None`` when it
        was repaired away or quarantined.
        """
        sequence = self._sequence
        self._sequence += 1
        problem = self.classify(update)
        if problem is None:
            have = self._installed[update.device]
            if update.is_insert:
                have.add(update.rule)
            else:
                have.discard(update.rule)
            self.admitted += 1
            return update
        kind = problem.kind
        if problem.repairable:
            self.repaired += 1
            self.telemetry.count(f"resilience.repaired.{kind}")
            self.telemetry.count("resilience.repaired.total")
            return None
        self.dead_letters.record(
            QuarantinedUpdate(update, kind, str(problem), sequence)
        )
        self.telemetry.count(f"resilience.quarantined.{kind}")
        self.telemetry.count("resilience.quarantined.total")
        self.telemetry.registry.gauge("resilience.dead_letter.size").set(
            len(self.dead_letters)
        )
        return None

    def reset(self, rules: Iterable[Tuple[int, Iterable[Rule]]]) -> None:
        """Set the journal to a read view's ``rules`` (device, rules)."""
        self._installed = {device: set(have) for device, have in rules}

    def __repr__(self) -> str:
        return (
            f"UpdateValidator(admitted={self.admitted}, "
            f"repaired={self.repaired}, quarantined={len(self.dead_letters)})"
        )


__all__ = [
    "DeadLetterLog",
    "EpochGate",
    "QuarantinedUpdate",
    "UpdateValidator",
]
