"""Supervised ingestion: validate updates before they touch the model.

:class:`UpdateValidator` keeps its own journal view of what is installed
per device (rule identity, not BDDs) and classifies every incoming
:class:`~repro.dataplane.update.RuleUpdate` against it:

* an insert of an installed rule → :class:`~repro.errors.DuplicateInsertError`;
* a delete of a rule that is not installed (duplicate delete or a delete
  of a never-installed rule) → :class:`~repro.errors.UnknownRuleDeleteError`;
* an update tagged with a regressed epoch → :class:`~repro.errors.StaleEpochError`;
* an update for a foreign device → :class:`~repro.errors.UnknownDeviceError`.

What happens next is the :class:`QuarantinePolicy`:

``strict``
    raise the structured error (the historical behaviour, with a better
    exception type);
``quarantine``
    sideline every invalid update into an inspectable
    :class:`DeadLetterLog` and count it under
    ``resilience.quarantined.<kind>``;
``repair``
    canonicalise *repairable* faults (idempotent duplicates, stale
    retransmissions) away silently — counted under
    ``resilience.repaired.<kind>`` — and quarantine only the
    unrepairable rest.

Under ``quarantine``/``repair`` the surviving stream has last-writer-wins
semantics per ``(device, rule)`` key, which is the convergence guarantee
the chaos difftest (``repro fuzz --chaos``) leans on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

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


class QuarantinePolicy(enum.Enum):
    """What supervised ingestion does with an invalid update."""

    STRICT = "strict"
    QUARANTINE = "quarantine"
    REPAIR = "repair"

    @classmethod
    def of(cls, value: Union[str, "QuarantinePolicy"]) -> "QuarantinePolicy":
        return value if isinstance(value, cls) else cls(value)


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

    def by_kind(self, kind: str) -> List[QuarantinedUpdate]:
        return [e for e in self.entries if e.kind == kind]

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
    """Per-device epoch-regression detection.

    With an explicit ``order`` (epoch tags in generation order), an
    update is stale when its tag is unknown or sits strictly before the
    highest tag its device has reported.  Without an order, a tag that
    was already *superseded* on the same device (observed, then replaced
    by a different tag) counts as regressed — the dispatcher-side
    happens-before argument of §4.1, applied per stream.
    """

    def __init__(self, order: Optional[Sequence[EpochTag]] = None) -> None:
        self._order = (
            {tag: i for i, tag in enumerate(order)} if order is not None else None
        )
        self._high: Dict[int, int] = {}
        self._current: Dict[int, EpochTag] = {}
        self._history: Dict[int, Set[EpochTag]] = {}

    def classify(self, update: RuleUpdate) -> Optional[str]:
        """Returns a reason string when the update's epoch regressed."""
        tag = update.epoch
        if tag is None:
            return None
        device = update.device
        if self._order is not None:
            rank = self._order.get(tag)
            if rank is None:
                return f"unknown epoch tag {tag!r}"
            high = self._high.get(device)
            if high is not None and rank < high:
                return f"epoch {tag!r} regressed (device already at rank {high})"
            self._high[device] = rank if high is None else max(high, rank)
            return None
        current = self._current.get(device)
        history = self._history.setdefault(device, set())
        if tag != current and tag in history:
            return f"epoch {tag!r} was already superseded on device {device}"
        history.add(tag)
        self._current[device] = tag
        return None


class UpdateValidator:
    """Classify updates against a journal view and apply one policy."""

    def __init__(
        self,
        policy: Union[str, QuarantinePolicy] = QuarantinePolicy.STRICT,
        devices: Optional[Iterable[int]] = None,
        epoch_gate: Optional[EpochGate] = None,
        telemetry: Optional[Telemetry] = None,
        dead_letters: Optional[DeadLetterLog] = None,
    ) -> None:
        self.policy = QuarantinePolicy.of(policy)
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
    def seed_installed(self, device: int, rules: Iterable[Rule]) -> None:
        """Prime the journal view (e.g. after a rollback)."""
        self._installed[device] = set(rules)

    def installed(self, device: int) -> Set[Rule]:
        return set(self._installed.get(device, ()))

    # ------------------------------------------------------------------
    def classify(self, update: RuleUpdate) -> Optional[InvalidUpdateError]:
        """The structured error this update would raise, or None if valid."""
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

        Returns the update when it should be applied, ``None`` when it
        was repaired away or quarantined; raises under ``strict``.
        """
        sequence = self._sequence
        self._sequence += 1
        problem = self.classify(update)
        if problem is None:
            self._apply(update)
            self.admitted += 1
            return update
        if self.policy is QuarantinePolicy.STRICT:
            raise problem
        kind = problem.kind
        if self.policy is QuarantinePolicy.REPAIR and problem.repairable:
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

    # ------------------------------------------------------------------
    def _apply(self, update: RuleUpdate) -> None:
        have = self._installed.setdefault(update.device, set())
        if update.is_insert:
            have.add(update.rule)
        else:
            have.discard(update.rule)

    def __repr__(self) -> str:
        return (
            f"UpdateValidator({self.policy.value}, admitted={self.admitted}, "
            f"repaired={self.repaired}, quarantined={len(self.dead_letters)})"
        )


__all__ = [
    "DeadLetterLog",
    "EpochGate",
    "QuarantinePolicy",
    "QuarantinedUpdate",
    "UpdateValidator",
]
