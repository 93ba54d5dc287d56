"""Unified telemetry: metrics registry, span tracer, exporters.

The observability layer behind every number the repo reports — §5's
measured behaviour (per-phase MR2 wall-clock, predicate-operation
counts, epoch lifecycle latency) flows through one
:class:`MetricsRegistry` so a single snapshot captures a full run.

Quick tour::

    from repro.telemetry import Telemetry

    tel = Telemetry()
    with tel.span("mr2.map"):
        ...                       # span.mr2.map.{count,seconds} recorded
    tel.registry.counter("predicate.ops.conjunction").inc()
    snap = tel.snapshot()         # one dict: counters+gauges+histograms+spans

See ``docs/telemetry.md`` for the metric-name catalogue and the JSON-lines
exporter.
"""

from .config import DISABLED, Telemetry, TelemetryConfig
from .exporters import JsonLinesExporter, read_jsonl
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracer import Span, Tracer
from .views import OpMetrics, OpSnapshot, PhaseBreakdown

__all__ = [
    "DISABLED",
    "Telemetry",
    "TelemetryConfig",
    "JsonLinesExporter",
    "read_jsonl",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "OpMetrics",
    "OpSnapshot",
    "PhaseBreakdown",
]
