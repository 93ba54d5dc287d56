"""Typed views over registry metrics.

The registry is a flat namespace of numbers; these classes give the two
call-site-facing shapes the rest of the repo (and its tests/benchmarks)
consume:

* :class:`OpMetrics` — the stable public accessor for predicate-operation
  counts (``engine.metrics``);
* :class:`PhaseBreakdown` — the Figure 11 MR2 phase decomposition,
  reimplemented as a snapshot over the ``span.mr2.*`` counters recorded
  by :class:`~repro.core.mr2.Mr2Pipeline` (it remains constructible by
  hand for tests and merging).
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
