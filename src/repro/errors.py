"""Exception hierarchy for the Flash reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class HeaderSpaceError(ReproError):
    """A match or field definition is inconsistent with the header layout."""


class DataPlaneError(ReproError):
    """The forward model is malformed (e.g. conflicting rules, bad update)."""


class RuleNotFoundError(DataPlaneError):
    """A deletion referenced a rule that is not installed."""


class InvalidUpdateError(DataPlaneError):
    """A rule update failed supervised-ingestion validation.

    Structured variant taxonomy for ``repro.resilience``: ``kind`` is a
    stable machine-readable label (it names the telemetry counter
    ``resilience.repaired.<kind>`` or ``resilience.quarantined.<kind>``),
    ``update`` carries the offending
    :class:`~repro.dataplane.update.RuleUpdate` when known, and
    ``repairable`` says whether the validator drops the update as an
    idempotent no-op instead of dead-lettering it.  The validator
    returns these from ``classify``; nothing raises them.
    """

    kind = "invalid"
    repairable = False

    def __init__(self, message: str, update: object = None) -> None:
        super().__init__(message)
        self.update = update


class DuplicateInsertError(InvalidUpdateError):
    """An insert of a rule that is already installed (idempotent no-op)."""

    kind = "duplicate_insert"
    repairable = True


class UnknownRuleDeleteError(InvalidUpdateError, RuleNotFoundError):
    """A delete of a rule that is not installed — duplicate delete or a
    delete of a never-installed rule (idempotent no-op either way)."""

    kind = "unknown_delete"
    repairable = True


class StaleEpochError(InvalidUpdateError):
    """An update tagged with an epoch that regressed on its device."""

    kind = "stale_epoch"
    repairable = True


class UnknownDeviceError(InvalidUpdateError):
    """An update for a device this manager does not own."""

    kind = "unknown_device"
    repairable = False


class ModelInvariantError(ReproError):
    """An inverse model violated one of the Definition-6 invariants."""


class OverwriteConflictError(ReproError):
    """Two conflict-free overwrites actually conflict (Definition in 3.2)."""


class SpecError(ReproError):
    """The requirement specification could not be parsed or compiled."""


class TopologyError(ReproError):
    """The topology is malformed (unknown device, duplicate link, ...)."""


class DispatchError(ReproError):
    """The CE2D dispatcher received updates violating its ordering contract."""


class SimulationError(ReproError):
    """The discrete-event routing simulation hit an inconsistent state."""


class ServeError(ReproError):
    """Base class for ``repro.serve`` daemon errors."""


class ServeSaturatedError(ServeError):
    """Backpressure: the ingest queue is full and the submit timed out.

    Producers should slow down (or shed load) and retry; the daemon
    keeps serving queries against the snapshots it already published.
    """


class ServeClosedError(ServeError):
    """The daemon is draining or stopped and accepts no new work."""


class QueryTimeoutError(ServeError):
    """A served query exceeded its per-query deadline mid-evaluation.

    The evaluation loop checks the deadline between ECs, so a wedged or
    pathologically large query releases its worker thread instead of
    starving the pool; the caller may retry against a narrower scope.
    """


class SnapshotUnavailableError(ServeError):
    """The requested snapshot epoch was never published or is retired."""
