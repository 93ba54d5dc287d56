"""Span-based tracing.

A :class:`Tracer` produces context-manager *spans*: named wall-clock
intervals with parent/child nesting.  Every finished span is

* appended to a bounded in-memory ring (for exporters), and
* folded into the tracer's :class:`~repro.telemetry.registry.
  MetricsRegistry` as two counters — ``span.<name>.count`` and
  ``span.<name>.seconds``.

That second path is what makes spans *queryable*: MR2's per-phase
timings, epoch lifecycle latency and benchmark drive loops all read back
out of one registry snapshot.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .registry import MetricsRegistry


@dataclass
class Span:
    """One named wall-clock interval, possibly nested under a parent."""

    name: str
    start: float
    depth: int = 0
    parent: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    duration: Optional[float] = None

    @property
    def finished(self) -> bool:
        return self.duration is not None

    @property
    def elapsed(self) -> float:
        """Seconds since start while open; final duration once finished."""
        if self.duration is not None:
            return self.duration
        return time.perf_counter() - self.start

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "depth": self.depth,
            "parent": self.parent,
            "seconds": self.duration if self.finished else self.elapsed,
            "finished": self.finished,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload


class Tracer:
    """Factory for nested spans feeding a metrics registry.

    ``registry`` is the sink for the ``span.*`` counters; a private
    registry is created when omitted.  At most :attr:`max_spans` finished
    spans are retained (oldest dropped; the drop count is kept in the
    ``tracer.spans_dropped`` counter).
    """

    max_spans = 2048

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.finished: List[Span] = []
        self._stack: List[Span] = []

    # -- span lifecycle ------------------------------------------------
    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a span manually (for open/close pairs that outlive a scope,
        e.g. epoch lifecycles).  Manual spans do not join the nesting stack;
        finish them with :meth:`end`."""
        return Span(name=name, start=time.perf_counter(), attrs=attrs)

    def end(self, span: Span) -> Span:
        """Close a manual span and record it."""
        if span.finished:
            return span
        span.duration = time.perf_counter() - span.start
        self._record(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """A nested context-manager span; the workhorse API."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            start=time.perf_counter(),
            depth=len(self._stack),
            parent=parent.name if parent is not None else None,
            attrs=attrs,
        )
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self.end(span)

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # -- recording -----------------------------------------------------
    def _record(self, span: Span) -> None:
        self.registry.counter(f"span.{span.name}.count").inc()
        self.registry.counter(f"span.{span.name}.seconds").inc(span.duration)
        if len(self.finished) >= self.max_spans:
            del self.finished[0 : len(self.finished) - self.max_spans + 1]
            self.registry.counter("tracer.spans_dropped").inc()
        self.finished.append(span)

    def __repr__(self) -> str:
        return (
            f"Tracer({len(self.finished)} finished, depth={len(self._stack)})"
        )
