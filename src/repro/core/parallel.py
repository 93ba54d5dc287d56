"""Parallel subspace verification (§7's "leverage parallelism" extension).

Subspace verifiers share nothing (each has its own engine, model and FIB
snapshot), so §3.4's input-space partition parallelises embarrassingly:
one worker process per subspace.  This module provides the §5.5 deployment
model in miniature — N subspaces over K workers — and is exercised by
``benchmarks/bench_parallel.py``.

Each worker runs with its own :class:`~repro.telemetry.Telemetry`
(reconstructed from the picklable :class:`~repro.telemetry.
TelemetryConfig`), snapshots its registry, and ships the plain dict back;
:func:`run_partitioned` merges the per-worker registries into one parent
registry so a single snapshot accounts for the whole partitioned run.

The pooled path runs on the persistent worker fleet (:mod:`repro.fleet`):
long-lived worker processes each own subspace shards with incremental
models, the supervisor routes epoch-tagged update blocks over per-worker
queues with heartbeat liveness and per-block acks, a crashed or wedged
worker is respawned from its last FSJ1 checkpoint and replays only the
journaled tail, and a shard that exhausts its respawn budget degrades
into an in-process fallback verifier.  Failures come back as
:class:`~repro.resilience.FailedSubspace` records on the result, never
as a pool-wide exception.

Updates, matches and layouts are plain picklable data; BDD predicates
cross process boundaries only as wire frames (:mod:`repro.bdd.wire`):
with ``collect_models=True`` each worker serialises its post-run EC table
as a frame chain — one full FBW1 blob, or an FBW2 delta against its last
checkpoint that the supervisor splices onto the chain it already holds —
and the parent folds every subspace's chain into a single merge engine;
no per-node Python objects ever pickle.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..bdd.predicate import Predicate, PredicateEngine
from ..dataplane.update import RuleUpdate
from ..headerspace.fields import HeaderLayout
from ..headerspace.match import Match
from ..resilience.supervisor import FailedSubspace, RetryPolicy, WorkerFaultSpec
from ..telemetry import MetricsRegistry, Telemetry, TelemetryConfig
from .model_manager import ModelWriter
from .subspace import SubspacePartition


@dataclass
class SubspaceRunStats:
    """One worker's result."""

    subspace: str
    seconds: float
    predicate_ops: int
    ecs: int
    updates: int


@dataclass(frozen=True)
class WorkerTask:
    """One subspace worker's self-contained payload.

    Replaces the historical positional 5-tuple — new knobs become fields
    here instead of tuple surgery at every call site.
    """

    devices: Tuple[int, ...]
    layout: HeaderLayout
    name: str
    subspace_match: Match
    updates: Tuple[RuleUpdate, ...]
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    fault: Optional[str] = None  # WorkerFaultSpec string, chaos drills only
    attempt: int = 0
    collect_model: bool = False


#: One subspace's shipped model: a chain of wire frames — one full FBW1
#: blob optionally followed by FBW2 deltas (``import_frames`` folds the
#: chain) — plus the matching per-EC ``{device: action}`` dicts, in the
#: final table's order.
ModelPayload = Tuple[Tuple[bytes, ...], Tuple[Dict[int, object], ...]]

WorkerOutcome = Tuple[SubspaceRunStats, dict, Optional[ModelPayload]]


def _run_one(task: WorkerTask) -> WorkerOutcome:
    """Verify one subspace; returns stats, a telemetry snapshot and —
    when requested — the EC table as one wire blob."""
    if task.fault:
        WorkerFaultSpec.parse(task.fault).trigger(task.attempt)
    telemetry = Telemetry.from_config(task.telemetry)
    manager = ModelWriter(
        list(task.devices),
        task.layout,
        subspace_match=task.subspace_match,
        telemetry=telemetry,
    )
    with telemetry.span("parallel.worker", subspace=task.name):
        manager.submit(task.updates)
        manager.flush()
    registry = telemetry.registry
    stats = SubspaceRunStats(
        subspace=task.name,
        seconds=registry.value("span.parallel.worker.seconds"),
        predicate_ops=manager.engine.metrics.total,
        ecs=manager.num_ecs(),
        updates=len(task.updates),
    )
    model: Optional[ModelPayload] = None
    if task.collect_model:
        entries = manager.model.entries()
        blob = manager.engine.export_bytes([pred for pred, _ in entries])
        actions = tuple(manager.store.to_dict(vec) for _, vec in entries)
        model = ((blob,), actions)
    return stats, registry.snapshot(), model


def _run_one_safe(task: WorkerTask):
    """Exception-capturing wrapper: tracebacks travel as data, not raises."""
    try:
        return ("ok", _run_one(task))
    except BaseException as exc:  # noqa: BLE001 - captured, not swallowed
        return ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())


@dataclass
class PartitionedRunResult:
    """The outcome of one partitioned run.

    Access results by attribute — :attr:`stats`, :attr:`wall_seconds`,
    :attr:`registry`; :attr:`failures` carries the
    :class:`~repro.resilience.FailedSubspace` supervision records.
    (The historical triple-unpacking shim is gone: this object no longer
    iterates as ``(stats, wall_seconds, registry)``.)

    With ``collect_models=True``, :attr:`models` maps each subspace name
    to its post-run EC table — ``(Predicate, {device: action})`` pairs —
    with every predicate imported into the shared :attr:`model_engine`,
    so cross-subspace predicates compare and combine directly.
    """

    stats: List[SubspaceRunStats]
    wall_seconds: float
    registry: MetricsRegistry
    failures: List[FailedSubspace] = field(default_factory=list)
    models: Dict[str, List[Tuple["Predicate", Dict[int, object]]]] = field(
        default_factory=dict
    )
    model_engine: Optional["PredicateEngine"] = None

    @property
    def ok(self) -> bool:
        return all(f.recovered for f in self.failures)

    def __repr__(self) -> str:
        return (
            f"PartitionedRunResult({len(self.stats)} subspaces, "
            f"{len(self.failures)} failures, {self.wall_seconds:.3f}s)"
        )


def run_partitioned(
    devices: Sequence[int],
    layout: HeaderLayout,
    partition: SubspacePartition,
    updates: Sequence[RuleUpdate],
    processes: Optional[int] = None,
    telemetry: Optional[TelemetryConfig] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[Mapping[str, str]] = None,
    mp_context: Optional[str] = None,
    collect_models: bool = False,
    block_size: Optional[int] = None,
    heartbeat_interval: float = 0.1,
    checkpoint_every: int = 4,
    compact_every: int = 4,
    fleet_seed: int = 0,
) -> PartitionedRunResult:
    """Run every subspace verifier, optionally across worker processes.

    Returns a :class:`PartitionedRunResult` with per-subspace stats, the
    fan-out wall-clock, and a merged registry.  ``processes=None`` or
    ``0`` runs sequentially in-process (the baseline); any other value
    fans subspaces out over the persistent worker fleet
    (:class:`repro.fleet.FleetSupervisor`).  The merged registry sums
    every worker's counters/gauges and adds a ``parallel.workers`` gauge
    plus a ``span.parallel.run`` aggregate for the whole fan-out.

    ``retry`` bounds per-block retries/backoff, ack resends, respawn
    attempts and the per-block ack watchdog; a subspace whose worker
    exhausts every recovery escalation degrades into the supervisor's
    in-process fallback verifier, and its history is recorded as a
    :class:`~repro.resilience.FailedSubspace` instead of aborting the
    run.  ``faults`` maps subspace names to
    :class:`~repro.resilience.WorkerFaultSpec` strings (chaos drills).
    ``block_size`` splits each shard's updates into blocks of that many
    updates (default: one block per shard per call),
    ``checkpoint_every`` controls worker snapshot cadence, and
    ``compact_every`` the full-frame compaction cadence of the delta
    checkpoint chain (``1`` ships a full frame every checkpoint).

    ``collect_models=True`` additionally ships every worker's post-run
    EC table back as one FBW1 wire blob each and imports them all into
    one fresh parent-side engine (:attr:`PartitionedRunResult.models` /
    :attr:`~PartitionedRunResult.model_engine`).
    """
    config = telemetry if telemetry is not None else TelemetryConfig()
    policy = retry if retry is not None else RetryPolicy()
    # The parent side always times the fan-out, even when worker-side
    # spans are disabled by the config.
    parent = Telemetry()
    outcomes: Dict[str, WorkerOutcome] = {}
    failures: List[FailedSubspace] = []
    tasks: List[WorkerTask] = []
    fleet_outcome = None
    with parent.span("parallel.run", workers=processes or 0):
        if not processes:
            routed = partition.route_updates(updates)
            tasks = [
                WorkerTask(
                    devices=tuple(devices),
                    layout=layout,
                    name=s.name,
                    subspace_match=s.match,
                    updates=tuple(routed[s.index]),
                    telemetry=config,
                    fault=(faults or {}).get(s.name),
                    collect_model=collect_models,
                )
                for s in partition
            ]
            _run_sequential(tasks, policy, parent, outcomes, failures)
        else:
            # Imported lazily: the fleet builds on this module's types
            # conceptually, and sequential users shouldn't pay for it.
            from ..fleet import FleetSupervisor

            fleet = FleetSupervisor(
                devices,
                layout,
                partition,
                processes=processes,
                telemetry=config,
                retry=policy,
                faults=faults,
                mp_context=mp_context,
                parent=parent,
                heartbeat_interval=heartbeat_interval,
                checkpoint_every=checkpoint_every,
                compact_every=compact_every,
                block_size=block_size,
                seed=fleet_seed,
            )
            try:
                fleet.submit(updates)
                fleet_outcome = fleet.finish(collect_models=collect_models)
            finally:
                fleet.close()
            failures.extend(fleet_outcome.failures)
    wall = parent.registry.value("span.parallel.run.seconds")
    results: List[SubspaceRunStats] = []
    models: Dict[str, List[Tuple[Predicate, Dict[int, object]]]] = {}
    model_engine = (
        PredicateEngine(layout.total_bits) if collect_models else None
    )
    if fleet_outcome is not None:
        for shard in fleet_outcome.shards.values():
            results.append(
                SubspaceRunStats(
                    subspace=shard.name,
                    seconds=shard.seconds,
                    predicate_ops=shard.predicate_ops,
                    ecs=shard.ecs,
                    updates=shard.updates,
                )
            )
            if shard.model is not None and model_engine is not None:
                frames, actions = shard.model
                preds = model_engine.import_frames(frames)
                models[shard.name] = list(zip(preds, actions))
    for task in tasks:
        outcome = outcomes.get(task.name)
        if outcome is None:
            continue
        stats, snapshot, model = outcome
        results.append(stats)
        parent.registry.merge_snapshot(snapshot)
        if model is not None and model_engine is not None:
            frames, actions = model
            preds = model_engine.import_frames(frames)
            models[task.name] = list(zip(preds, actions))
    parent.registry.gauge("parallel.workers").set(processes or 0)
    if failures:
        parent.registry.counter("resilience.subspace.failures").inc(
            sum(1 for f in failures if not f.recovered)
        )
        parent.registry.counter("resilience.subspace.recovered").inc(
            sum(1 for f in failures if f.recovered)
        )
    return PartitionedRunResult(
        results,
        wall,
        parent.registry,
        failures,
        models=models,
        model_engine=model_engine,
    )


def _attempt_sequential(
    task: WorkerTask,
    policy: RetryPolicy,
    parent: Telemetry,
    outcomes: Dict[str, WorkerOutcome],
    failures: List[FailedSubspace],
    history: Optional[List[str]] = None,
    base_attempt: int = 0,
) -> bool:
    """In-process attempts with bounded retry; records outcome/failure."""
    history = history if history is not None else []
    attempt = base_attempt
    for round_ in range(policy.max_retries + 1):
        if round_ > 0:
            parent.count("resilience.subspace.retries")
            time.sleep(policy.backoff_for(attempt))
        outcome = _run_one_safe(dataclasses.replace(task, attempt=attempt))
        attempt += 1
        if outcome[0] == "ok":
            outcomes[task.name] = outcome[1]
            if history:
                failures.append(
                    FailedSubspace(
                        subspace=task.name,
                        attempts=attempt,
                        error=history[-1],
                        recovered=True,
                        history=list(history),
                    )
                )
            return True
        history.append(outcome[1])
    failures.append(
        FailedSubspace(
            subspace=task.name,
            attempts=attempt,
            error=history[-1],
            traceback=outcome[2],
            recovered=False,
            history=list(history),
        )
    )
    return False


def _run_sequential(
    tasks: Sequence[WorkerTask],
    policy: RetryPolicy,
    parent: Telemetry,
    outcomes: Dict[str, WorkerOutcome],
    failures: List[FailedSubspace],
) -> None:
    for task in tasks:
        _attempt_sequential(task, policy, parent, outcomes, failures)
