"""The per-system telemetry facade.

:class:`Telemetry` wraps the one registry a system (a ``Flash`` instance,
a serve daemon, a benchmark run) threads through its components.  A span
is a timer: it adds 1 to ``span.<name>.count`` and its wall-clock seconds
to ``span.<name>.seconds``, and keeps nothing else.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, Optional

from .registry import MetricsRegistry


class Telemetry:
    """One registry, behind the API the hot paths use."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the ``with`` body into the ``span.<name>.*`` counters."""
        start = perf_counter()
        try:
            yield
        finally:
            self.add_span(name, perf_counter() - start)

    def add_span(self, name: str, seconds: float) -> None:
        """Fold one finished interval (say, an epoch's lifetime) in."""
        self.registry.counter(f"span.{name}.count").inc()
        self.registry.counter(f"span.{name}.seconds").inc(seconds)

    # -- counters ------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.registry.counter(name).inc(amount)

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Every counter, gauge and histogram (``span.*`` included) under
        ``metrics``."""
        return {"metrics": self.registry.snapshot()}

    def __repr__(self) -> str:
        return f"Telemetry({self.registry!r})"
