"""Parallel subspace verification (§7's "leverage parallelism" extension).

Subspace verifiers share nothing (each has its own engine, model and FIB
snapshot), so §3.4's input-space partition parallelises embarrassingly.
This module is the §5.5 deployment model in miniature — N subspaces over
at most K concurrent processes (``benchmarks/bench_parallel.py``).

The pooled path is a supervised map: every subspace task runs to
completion in its own short-lived process, which takes the task from a
pipe and answers with one outcome — stats, the worker's telemetry registry
(merged into one parent registry, so a single snapshot accounts for the
whole run) and, with ``collect_models=True``, its EC table as one FBW1
blob (:mod:`repro.bdd.wire`) that the parent imports into a single merge
engine; no per-node Python objects ever pickle.  A task that raises is
retried in a fresh process; one whose process dies or outlives the
watchdog is re-executed in the parent.  Failures come back as
:class:`~repro.resilience.FailedSubspace` records, never as a pool-wide
exception, and no worker process outlives the call.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection
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
    """One subspace worker's self-contained, picklable payload."""

    devices: Tuple[int, ...]
    layout: HeaderLayout
    name: str
    subspace_match: Match
    updates: Tuple[RuleUpdate, ...]
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    fault: Optional[WorkerFaultSpec] = None  # chaos drills only
    attempt: int = 0
    collect_model: bool = False


#: One subspace's shipped model: the EC predicates as one FBW1 blob plus
#: the matching per-EC ``{device: action}`` dicts, in the table's order.
ModelPayload = Tuple[bytes, Tuple[Dict[int, object], ...]]

WorkerOutcome = Tuple[SubspaceRunStats, dict, Optional[ModelPayload]]


def _run_one(task: WorkerTask) -> WorkerOutcome:
    """Verify one subspace; returns stats, a telemetry snapshot and —
    when requested — the EC table as one wire blob."""
    if task.fault:
        task.fault.trigger(task.attempt)
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
        model = (blob, actions)
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

    With ``collect_models=True``, :attr:`models` maps each subspace name
    to its post-run EC table — ``(Predicate, {device: action})`` pairs —
    all in one shared :attr:`model_engine`, so they combine directly.
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


def _mp_context(name: Optional[str]):
    """An explicit forkserver/spawn context — never the bare fork default,
    which duplicates arbitrary parent state (locks, open BDD engines) into
    workers.  The fork server imports this module once, so each worker it
    forks starts in milliseconds."""
    if name is not None:
        return multiprocessing.get_context(name)
    try:
        context = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform without forkserver
        return multiprocessing.get_context("spawn")
    context.set_forkserver_preload([__name__])
    return context


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
) -> PartitionedRunResult:
    """Run every subspace verifier, optionally across worker processes.

    ``processes=None`` or ``0`` runs sequentially in-process (the
    baseline); any other value runs each subspace in its own worker
    process, at most that many at once.  The merged registry sums every
    worker's counters/gauges and adds a ``parallel.workers`` gauge plus a
    ``span.parallel.run`` aggregate for the whole fan-out.

    ``retry`` bounds per-task retries/backoff and the per-attempt
    watchdog; a subspace whose worker dies, hangs past the watchdog or
    exhausts its retries is re-executed sequentially in the parent, and
    its history becomes a :class:`~repro.resilience.FailedSubspace`
    record instead of aborting the run.  ``faults`` maps subspace names
    to :class:`~repro.resilience.WorkerFaultSpec` strings (chaos
    drills); an unknown kind or subspace name is a ``ValueError`` before
    any task runs.  ``collect_models=True`` imports every subspace's
    post-run EC table into one fresh parent-side engine
    (:attr:`PartitionedRunResult.models` / ``.model_engine``).
    """
    config = telemetry if telemetry is not None else TelemetryConfig()
    policy = retry if retry is not None else RetryPolicy()
    # A drill is validated where it enters: a typo is the caller's error,
    # not the subspace's, and a fault nobody would trigger is not a pass.
    drill = {name: WorkerFaultSpec.parse(f) for name, f in (faults or {}).items()}
    names = [s.name for s in partition]
    if not set(drill) <= set(names):
        raise ValueError(
            f"faults for {sorted(set(drill) - set(names))}, but the "
            f"partition's subspaces are {names}"
        )
    # The parent side always times the fan-out, even when worker-side
    # spans are disabled by the config.
    parent = Telemetry()
    outcomes: Dict[str, WorkerOutcome] = {}
    failures: List[FailedSubspace] = []
    with parent.span("parallel.run", workers=processes or 0):
        routed = partition.route_updates(updates)
        tasks = [
            WorkerTask(
                devices=tuple(devices),
                layout=layout,
                name=s.name,
                subspace_match=s.match,
                updates=tuple(routed[s.index]),
                telemetry=config,
                fault=drill.get(s.name),
                collect_model=collect_models,
            )
            for s in partition
        ]
        if not processes:
            for task in tasks:
                _attempt_sequential(task, policy, parent, outcomes, failures)
        else:
            _run_pool(
                tasks, processes, policy, parent, outcomes, failures,
                _mp_context(mp_context),
            )
    wall = parent.registry.value("span.parallel.run.seconds")
    results: List[SubspaceRunStats] = []
    models: Dict[str, List[Tuple[Predicate, Dict[int, object]]]] = {}
    model_engine = (
        PredicateEngine(layout.total_bits) if collect_models else None
    )
    for task in tasks:
        if task.name not in outcomes:
            continue
        stats, snapshot, model = outcomes[task.name]
        results.append(stats)
        parent.registry.merge_snapshot(snapshot)
        if model is not None:
            blob, actions = model
            preds = model_engine.import_bytes(blob)
            models[task.name] = list(zip(preds, actions))
    parent.registry.gauge("parallel.workers").set(processes or 0)
    if failures:
        recovered = sum(f.recovered for f in failures)
        parent.count("resilience.subspace.recovered", recovered)
        parent.count("resilience.subspace.failures", len(failures) - recovered)
    return PartitionedRunResult(
        results, wall, parent.registry, failures, models, model_engine
    )


def _attempt_sequential(
    task, policy, parent, outcomes, failures,
    history=(), base_attempt=0, timed_out=False,
):
    """In-process attempts with bounded retry; records outcome/failure."""
    history = list(history)
    for attempt in range(base_attempt, base_attempt + policy.max_retries + 1):
        if attempt > base_attempt:
            parent.count("resilience.subspace.retries")
            time.sleep(policy.backoff_for(attempt))
        outcome = _run_one_safe(dataclasses.replace(task, attempt=attempt))
        if outcome[0] == "ok":
            break
        history.append(outcome[1])
    _settle(task, outcome, attempt + 1, history, outcomes, failures, timed_out)


def _settle(task, outcome, attempts, history, outcomes, failures, timed_out=False):
    """Close a task on its last outcome, leaving a record of any trouble."""
    recovered = outcome[0] == "ok"
    if recovered:
        outcomes[task.name] = outcome[1]
    if history:
        failures.append(
            FailedSubspace(
                task.name, attempts, error=history[-1],
                traceback="" if recovered else outcome[2],
                timed_out=timed_out, recovered=recovered, history=history,
            )
        )


def _pool_worker(pipe) -> None:
    """Worker-process entry point: one task in, one outcome out."""
    with pipe:
        pipe.send(_run_one_safe(pipe.recv()))


def _collect(pipe, process, reported: bool, timeout: float) -> tuple:
    """One finished attempt's outcome; its process is reaped either way."""
    if not reported:
        process.kill()  # still silent at its deadline
        outcome = ("lost", f"TimeoutError: no result within {timeout}s (hung worker)")
    else:
        try:
            outcome = pipe.recv()
        except (EOFError, OSError):  # died: its pipe closed with nothing in it
            outcome = None
    pipe.close()
    process.join()
    died = ("lost", f"WorkerDied: exit code {process.exitcode}, no result")
    return outcome or died


def _run_pool(tasks, processes, policy, parent, outcomes, failures, context):
    """Supervised fan-out: one process per task attempt, ``processes`` at
    a time, each reporting over its own pipe.  A task whose worker raises
    is retried in a fresh process with backoff; one whose worker is lost
    (dead or hung) or that runs out of retries is re-executed once in the
    parent.  Whatever still runs when this returns or raises is killed."""
    timeout = math.inf if policy.task_timeout is None else policy.task_timeout
    waiting = [(task, 0, []) for task in tasks]  # task, attempt, history
    live: Dict[object, tuple] = {}  # pipe -> process, deadline, *waiting entry
    try:
        while waiting or live:
            while waiting and len(live) < processes:
                task, attempt, history = waiting.pop(0)
                pipe, worker_end = context.Pipe()
                process = context.Process(
                    target=_pool_worker, args=(worker_end,), daemon=True
                )
                process.start()
                worker_end.close()  # only the worker can answer (or EOF) now
                deadline = time.monotonic() + timeout
                live[pipe] = (process, deadline, task, attempt, history)
                try:
                    pipe.send(dataclasses.replace(task, attempt=attempt))
                except OSError:  # it died in bootstrap: the pipe reads EOF
                    pass
            patience = min(d for _, d, *_ in live.values()) - time.monotonic()
            patience = None if patience == math.inf else max(0.0, patience)
            ready = connection.wait(list(live), patience)
            for pipe, entry in list(live.items()):
                process, deadline, task, attempt, history = entry
                if pipe not in ready and time.monotonic() < deadline:
                    continue
                del live[pipe]
                outcome = _collect(pipe, process, pipe in ready, timeout)
                if outcome[0] == "ok":
                    _settle(
                        task, outcome, attempt + 1, history, outcomes, failures
                    )
                    continue
                history.append(outcome[1])
                if outcome[0] == "error" and attempt < policy.max_retries:
                    parent.count("resilience.subspace.retries")
                    time.sleep(policy.backoff_for(attempt + 1))
                    waiting.append((task, attempt + 1, history))
                    continue
                parent.count("resilience.subspace.sequential_reruns")
                _attempt_sequential(
                    task, dataclasses.replace(policy, max_retries=0), parent,
                    outcomes, failures, history, attempt + 1,
                    timed_out=outcome[0] == "lost",
                )
    finally:
        for process, *_ in live.values():
            process.kill()
            process.join()
