"""Worker supervision records for the hardened parallel runner.

:func:`repro.core.parallel.run_partitioned` captures per-task failures
instead of aborting the whole run: a subspace whose worker raises is
retried with backoff, one whose worker process dies or hangs is
re-executed in the parent, and the whole history lands in a
:class:`FailedSubspace` record instead of a raw traceback.
:class:`WorkerFaultSpec` is the chaos hook — a declarative "misbehave
on the first N attempts" marker tests and chaos drills attach to a
worker task.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional


class InjectedWorkerFault(RuntimeError):
    """Raised by a worker honouring a ``raise``-kind fault spec."""


@dataclass(frozen=True)
class WorkerFaultSpec:
    """A declarative worker fault: ``kind`` for the first ``attempts`` tries.

    Kinds: ``raise`` (worker raises mid-task), ``exit`` (hard process
    death via ``os._exit``), ``hang`` (worker sleeps past any watchdog).

    Parsed from compact ``kind[@attempts]`` strings — ``"raise"``,
    ``"exit@2"``.
    """

    kind: str
    attempts: int = 1

    _KINDS = ("raise", "exit", "hang")

    @classmethod
    def parse(cls, spec: str) -> "WorkerFaultSpec":
        kind, _, count = spec.partition("@")
        if kind not in cls._KINDS:
            raise ValueError(
                f"unknown worker fault kind {kind!r} "
                f"(valid kinds: {', '.join(cls._KINDS)})"
            )
        return cls(kind, int(count) if count else 1)

    def trigger(self, attempt: int) -> None:
        """Misbehave if this attempt is still within the faulty window."""
        if attempt >= self.attempts:
            return
        if self.kind == "raise":
            raise InjectedWorkerFault(
                f"injected worker fault (attempt {attempt})"
            )
        if self.kind == "exit":  # pragma: no cover - kills the process
            os._exit(3)
        if self.kind == "hang":  # pragma: no cover - reaped by watchdog
            time.sleep(3600)


@dataclass
class FailedSubspace:
    """One subspace's failure history across pool and sequential attempts."""

    subspace: str
    attempts: int
    error: str
    traceback: str = ""
    timed_out: bool = False
    recovered: bool = False  # the fallback re-execution succeeded
    history: List[str] = field(default_factory=list)

    def __repr__(self) -> str:
        state = "recovered" if self.recovered else "failed"
        timeout = ", timed out" if self.timed_out else ""
        return (
            f"FailedSubspace({self.subspace!r}: {state} after "
            f"{self.attempts} attempts{timeout}: {self.error})"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for supervised workers.

    ``max_retries`` bounds how often a task whose worker raised is tried
    again; ``task_timeout`` is how long one attempt's worker process may
    run before it is killed as hung.
    """

    max_retries: int = 1
    backoff_seconds: float = 0.05
    task_timeout: Optional[float] = None  # per-attempt watchdog, None = off

    def backoff_for(self, attempt: int) -> float:
        return self.backoff_seconds * (2 ** max(0, attempt - 1))
