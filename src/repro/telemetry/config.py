"""The per-system telemetry facade.

:class:`Telemetry` bundles the one registry + one tracer a system (a
``Flash`` instance, a benchmark run, a parallel worker) threads through
its components.  A parallel worker builds its own and ships back its
:meth:`~Telemetry.snapshot`.
"""

from __future__ import annotations

from typing import Any, ContextManager, Dict, Optional

from .registry import MetricsRegistry
from .tracer import Span, Tracer


class Telemetry:
    """One registry + one tracer, behind the API the hot paths use."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(self.registry)

    # -- span helpers --------------------------------------------------
    def span(self, name: str, **attrs: Any) -> ContextManager[Span]:
        """A nested tracer span."""
        return self.tracer.span(name, **attrs)

    def begin(self, name: str, **attrs: Any) -> Span:
        return self.tracer.begin(name, **attrs)

    def end(self, span: Span) -> None:
        self.tracer.end(span)

    # -- counters ------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.registry.counter(name).inc(amount)

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Registry snapshot plus the retained finished spans.

        The ``metrics`` sub-dict alone captures every counter, gauge and
        histogram (including the ``span.*`` aggregates); ``spans`` adds
        the individual span records for timeline-style exporters.
        """
        return {
            "metrics": self.registry.snapshot(),
            "spans": [s.as_dict() for s in self.tracer.finished],
        }

    def merge_snapshot(self, snap: Dict[str, object]) -> None:
        """Fold a worker's :meth:`snapshot` into this telemetry."""
        metrics = snap.get("metrics")
        if metrics:
            self.registry.merge_snapshot(metrics)  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return f"Telemetry({self.registry!r})"
