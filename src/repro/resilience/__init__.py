"""Resilience layer (``repro.resilience``): stay correct during turbulence.

Flash's pitch is consistent verification *while* the network churns
(§4.1's back-off guard against control-plane bugs exists for exactly
that), so the pipeline has to survive the unhappy path too.  This
subsystem provides the operational analogue of the logical
self-checking in ``repro.difftest``:

* :class:`FaultInjector` / :class:`FaultProfile` — seeded, composable
  injection of realistic agent faults into any update stream;
* :class:`UpdateValidator` / :class:`DeadLetterLog` / :class:`EpochGate`
  — supervised ingestion, a filter a caller puts in front of a writer:
  repairable faults are dropped (``resilience.repaired.*``), the rest
  dead-lettered (``resilience.quarantined.*``);
* ``ModelWriter.rollback`` — a model version is one read view
  (installed rules plus EC table), and rollback restores one in place.
  A flush that raises needs none: it leaves the writer at its
  pre-block version.

The chaos difftest (``repro fuzz --chaos``) closes the loop: faulty
streams through supervised ingestion must still converge to the
brute-force oracle's verdicts.  See ``docs/resilience.md``.
"""

from .faults import (
    FAULT_KINDS,
    FAULT_PROFILES,
    FaultInjector,
    FaultProfile,
    InjectedFault,
    fault_profile,
    stale_epoch_tag,
)
from .validator import (
    DeadLetterLog,
    EpochGate,
    QuarantinedUpdate,
    UpdateValidator,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_PROFILES",
    "DeadLetterLog",
    "EpochGate",
    "FaultInjector",
    "FaultProfile",
    "InjectedFault",
    "QuarantinedUpdate",
    "UpdateValidator",
    "fault_profile",
    "stale_epoch_tag",
]
