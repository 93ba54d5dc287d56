"""The metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` is the single sink for everything the system
measures — BDD predicate operations, MR2 phase timings (recorded by
:meth:`~repro.telemetry.config.Telemetry.span` as ``span.*`` counters),
epoch lifecycle events and benchmark drive loops.  The design follows
the usual pull-model conventions:

* metrics are identified by dotted names (``predicate.ops.conjunction``);
  the full catalogue lives in ``docs/telemetry.md``;
* ``counter``/``gauge``/``histogram`` are get-or-create, so instrument
  sites never need existence checks;
* *collectors* are callbacks registered by components whose state is too
  hot to mirror on every mutation (e.g. the BDD cache statistics); they
  are invoked by :meth:`MetricsRegistry.collect` right before a snapshot.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds, tuned for span durations in
#: seconds (sub-millisecond through tens of seconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
)


class Counter:
    """A monotonically-increasing tally (ints or float seconds)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (table sizes, cache hit counts)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow bin.

    ``counts[i]`` tallies observations ``<= bounds[i]``; the final extra
    bin holds everything larger.  Bounds are fixed at creation so two
    histograms of the same metric merge bucket-wise.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if list(bounds) != sorted(bounds) or not bounds:
            raise ValueError("histogram bounds must be non-empty and sorted")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.6f})"


Collector = Callable[["MetricsRegistry"], None]


class MetricsRegistry:
    """Named counters/gauges/histograms with snapshot semantics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Collector] = []

    # -- get-or-create -------------------------------------------------
    # ``setdefault`` is one atomic step: two threads that both miss (the
    # serve readers) end up holding the same metric, not one each.
    def counter(self, name: str) -> Counter:
        got = self._counters.get(name)
        if got is None:
            got = self._counters.setdefault(name, Counter(name))
        return got

    def gauge(self, name: str) -> Gauge:
        got = self._gauges.get(name)
        if got is None:
            got = self._gauges.setdefault(name, Gauge(name))
        return got

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        got = self._histograms.get(name)
        if got is None:
            got = self._histograms.setdefault(name, Histogram(name, bounds))
        return got

    # -- reads ---------------------------------------------------------
    def value(self, name: str, default: float = 0) -> float:
        """The current value of a counter or gauge, ``default`` if absent."""
        got = self._counters.get(name)
        if got is not None:
            return got.value
        gauge = self._gauges.get(name)
        if gauge is not None:
            return gauge.value
        return default

    def counters_with_prefix(self, prefix: str) -> Iterator[Tuple[str, float]]:
        for name, counter in self._counters.items():
            if name.startswith(prefix):
                yield name, counter.value

    # -- collectors ----------------------------------------------------
    def add_collector(self, fn: Collector) -> None:
        """Register a callback run before every :meth:`snapshot`."""
        self._collectors.append(fn)

    @property
    def collectors(self) -> Tuple[Collector, ...]:
        """The registered collectors — how components that share this
        registry find the one collector that totals over all of them."""
        return tuple(self._collectors)

    def collect(self) -> None:
        for fn in self._collectors:
            fn(self)

    # -- snapshot ----------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A plain-dict, JSON-safe view of every metric."""
        self.collect()
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero every metric (the metric objects stay registered)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0
        for hist in self._histograms.values():
            hist.counts = [0] * (len(hist.bounds) + 1)
            hist.sum = 0.0
            hist.count = 0

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )
