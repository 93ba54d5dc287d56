"""Typed views over registry metrics.

The registry is a flat namespace of numbers; these classes give the two
call-site-facing shapes the rest of the repo (and its tests/benchmarks)
consume:

* :class:`OpMetrics` — the stable public accessor for predicate-operation
  counts (``engine.metrics``);
* :class:`PhaseBreakdown` — the Figure 11 MR2 phase decomposition,
  reimplemented as a snapshot over the ``span.mr2.*`` counters recorded
  by :class:`~repro.core.mr2.Mr2Pipeline` (it remains constructible by
  hand for tests and merging);
* :class:`BddEngineStats` — the BDD engine health view over the
  ``bdd.*`` gauges a :class:`~repro.bdd.predicate.PredicateEngine`
  publishes (op-cache effectiveness, node and unique-table sizes, GC
  activity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .registry import MetricsRegistry

#: Namespace for the Table-3 "#Predicate Operations" counters.
OPS_PREFIX = "predicate.ops"


class OpMetrics:
    """Stable accessor over a registry's predicate-operation counters.

    The three core tallies mirror Table 3's op-count column
    (conjunctions, disjunctions, negations); ``bump``/``extra`` cover
    system-specific work counted "through the same counter interface"
    (e.g. Delta-net*'s ``atom_ops``).
    """

    __slots__ = ("registry", "_conj", "_disj", "_neg")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._conj = registry.counter(f"{OPS_PREFIX}.conjunction")
        self._disj = registry.counter(f"{OPS_PREFIX}.disjunction")
        self._neg = registry.counter(f"{OPS_PREFIX}.negation")

    # -- reads ---------------------------------------------------------
    @property
    def conjunctions(self) -> int:
        return self._conj.value

    @property
    def disjunctions(self) -> int:
        return self._disj.value

    @property
    def negations(self) -> int:
        return self._neg.value

    @property
    def total(self) -> int:
        return self._conj.value + self._disj.value + self._neg.value

    @property
    def extra(self) -> Dict[str, int]:
        prefix = f"{OPS_PREFIX}.extra."
        return {
            name[len(prefix):]: value
            for name, value in self.registry.counters_with_prefix(prefix)
        }

    # -- writes (instrumentation sites) --------------------------------
    def record_conjunction(self, amount: int = 1) -> None:
        self._conj.value += amount

    def record_disjunction(self, amount: int = 1) -> None:
        self._disj.value += amount

    def record_negation(self, amount: int = 1) -> None:
        self._neg.value += amount

    def bump(self, name: str, amount: int = 1) -> None:
        self.registry.counter(f"{OPS_PREFIX}.extra.{name}").inc(amount)

    def reset(self) -> None:
        self._conj.value = 0
        self._disj.value = 0
        self._neg.value = 0
        prefix = f"{OPS_PREFIX}.extra."
        for name, _ in list(self.registry.counters_with_prefix(prefix)):
            self.registry.counter(name).value = 0

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> "OpSnapshot":
        return OpSnapshot(
            conjunctions=self.conjunctions,
            disjunctions=self.disjunctions,
            negations=self.negations,
            extra=self.extra,
        )

    def diff(self, earlier: "OpSnapshot") -> "OpSnapshot":
        return self.snapshot().diff(earlier)

    def as_dict(self) -> Dict[str, object]:
        return self.snapshot().as_dict()

    def __repr__(self) -> str:
        return (
            f"OpMetrics(∧={self.conjunctions}, ∨={self.disjunctions}, "
            f"¬={self.negations})"
        )


@dataclass
class OpSnapshot:
    """An immutable point-in-time copy of :class:`OpMetrics`."""

    conjunctions: int = 0
    disjunctions: int = 0
    negations: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Tolerate legacy callers that pass extra=None explicitly.
        if self.extra is None:
            self.extra = {}

    @property
    def total(self) -> int:
        return self.conjunctions + self.disjunctions + self.negations

    def diff(self, earlier: "OpSnapshot") -> "OpSnapshot":
        return OpSnapshot(
            conjunctions=self.conjunctions - earlier.conjunctions,
            disjunctions=self.disjunctions - earlier.disjunctions,
            negations=self.negations - earlier.negations,
            extra={
                k: self.extra.get(k, 0) - earlier.extra.get(k, 0)
                for k in set(self.extra) | set(earlier.extra)
            },
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "conjunctions": self.conjunctions,
            "disjunctions": self.disjunctions,
            "negations": self.negations,
            "total": self.total,
            "extra": dict(self.extra),
        }


@dataclass
class PhaseBreakdown:
    """Wall-clock per MR2 phase — the Figure 11 decomposition.

    * ``map_seconds`` — computing atomic overwrites (Alg. 1);
    * ``reduce_seconds`` — overwrite aggregation (Reduce I + II);
    * ``apply_seconds`` — applying overwrites to the inverse model.

    The pipeline records these as ``span.mr2.*`` / ``mr2.*`` registry
    metrics; :meth:`from_registry` materialises the classic view.
    """

    map_seconds: float = 0.0
    reduce_seconds: float = 0.0
    apply_seconds: float = 0.0
    blocks: int = 0
    updates: int = 0
    atomic_overwrites: int = 0
    aggregated_overwrites: int = 0

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "PhaseBreakdown":
        return cls(
            map_seconds=registry.value("span.mr2.map.seconds"),
            reduce_seconds=registry.value("span.mr2.reduce.seconds"),
            apply_seconds=registry.value("span.mr2.apply.seconds"),
            blocks=int(registry.value("mr2.blocks")),
            updates=int(registry.value("mr2.updates")),
            atomic_overwrites=int(registry.value("mr2.overwrites.atomic")),
            aggregated_overwrites=int(
                registry.value("mr2.overwrites.aggregated")
            ),
        )

    @property
    def total_seconds(self) -> float:
        return self.map_seconds + self.reduce_seconds + self.apply_seconds

    def merge(self, other: "PhaseBreakdown") -> None:
        self.map_seconds += other.map_seconds
        self.reduce_seconds += other.reduce_seconds
        self.apply_seconds += other.apply_seconds
        self.blocks += other.blocks
        self.updates += other.updates
        self.atomic_overwrites += other.atomic_overwrites
        self.aggregated_overwrites += other.aggregated_overwrites

    def as_dict(self) -> Dict[str, float]:
        return {
            "map_seconds": self.map_seconds,
            "reduce_seconds": self.reduce_seconds,
            "apply_seconds": self.apply_seconds,
            "total_seconds": self.total_seconds,
            "blocks": self.blocks,
            "updates": self.updates,
            "atomic_overwrites": self.atomic_overwrites,
            "aggregated_overwrites": self.aggregated_overwrites,
        }


@dataclass
class BddEngineStats:
    """Engine-health snapshot over the ``bdd.*`` gauges.

    Populated from any registry a :class:`~repro.bdd.predicate.
    PredicateEngine` publishes into (the publish happens in a snapshot
    collector, so call :meth:`from_registry` *after*
    ``registry.snapshot()`` or pass a registry and let this view trigger
    the collectors itself).  An engine wrapping a node store without an
    op cache or collector (the tests' reference oracle) leaves those
    fields zero.
    """

    ite_calls: int = 0
    apply_calls: int = 0
    split_calls: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    cache_evictions: int = 0
    cache_size: int = 0
    cache_limit: int = 0
    live_nodes: int = 0
    allocated_nodes: int = 0
    unique_used: int = 0
    gc_runs: int = 0
    gc_freed: int = 0
    gc_seconds: float = 0.0

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "BddEngineStats":
        registry.collect()  # run publishers so the gauges are current
        return cls(
            ite_calls=int(registry.value("bdd.ite.calls")),
            apply_calls=int(registry.value("bdd.apply.calls")),
            split_calls=int(registry.value("bdd.split.calls")),
            cache_hits=int(registry.value("bdd.cache.hits")),
            cache_lookups=int(registry.value("bdd.cache.lookups")),
            cache_evictions=int(registry.value("bdd.cache.evictions")),
            cache_size=int(registry.value("bdd.cache.size")),
            cache_limit=int(registry.value("bdd.cache.limit")),
            live_nodes=int(registry.value("bdd.nodes")),
            allocated_nodes=int(registry.value("bdd.nodes.allocated")),
            unique_used=int(registry.value("bdd.unique.size")),
            gc_runs=int(registry.value("bdd.gc.runs")),
            gc_freed=int(registry.value("bdd.gc.freed")),
            gc_seconds=registry.value("bdd.gc.seconds"),
        )

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "ite_calls": self.ite_calls,
            "apply_calls": self.apply_calls,
            "split_calls": self.split_calls,
            "cache_hits": self.cache_hits,
            "cache_lookups": self.cache_lookups,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_size": self.cache_size,
            "cache_limit": self.cache_limit,
            "live_nodes": self.live_nodes,
            "allocated_nodes": self.allocated_nodes,
            "unique_used": self.unique_used,
            "gc_runs": self.gc_runs,
            "gc_freed": self.gc_freed,
            "gc_seconds": self.gc_seconds,
        }
