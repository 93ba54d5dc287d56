"""Telemetry configuration and the per-system facade.

:class:`Telemetry` bundles the one registry + one tracer a system (a
``Flash`` instance, a benchmark run, a parallel worker) threads through
its components.  :class:`TelemetryConfig` is the small, picklable knob
set that crosses process boundaries — workers reconstruct a live
:class:`Telemetry` from it on their side of the pool.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

from .registry import MetricsRegistry
from .tracer import Span, Tracer


@dataclass(frozen=True)
class TelemetryConfig:
    """Picklable telemetry knobs.

    ``enabled=False`` turns spans into no-ops (metrics counters stay on —
    they are too cheap to gate and too load-bearing to lose).
    """

    enabled: bool = True
    max_spans: int = 2048


#: A disabled configuration, for hot paths that want zero span overhead.
DISABLED = TelemetryConfig(enabled=False)


class Telemetry:
    """One registry + one tracer, behind the API the hot paths use."""

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(self.registry, max_spans=self.config.max_spans)

    @classmethod
    def from_config(cls, config: Optional[TelemetryConfig]) -> "Telemetry":
        return cls(config=config)

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # -- span helpers --------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Span]]:
        """A tracer span, or a no-op scope when telemetry is disabled."""
        if not self.config.enabled:
            yield None
            return
        with self.tracer.span(name, **attrs) as span:
            yield span

    def begin(self, name: str, **attrs: Any) -> Optional[Span]:
        if not self.config.enabled:
            return None
        return self.tracer.begin(name, **attrs)

    def end(self, span: Optional[Span]) -> None:
        if span is not None:
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
        return f"Telemetry(enabled={self.config.enabled}, {self.registry!r})"
