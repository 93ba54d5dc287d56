"""Shared benchmark runners: one verifier, one update stream, one report.

Every Table-3/Figure-6 style bench funnels through :func:`run_verifier`,
which enforces a cooperative wall-clock timeout (the paper killed the JVM
after 10 hours; we scale that down) and collects the three Table-3 columns:
model update time, memory estimate and #predicate operations.

All timing flows through :mod:`repro.telemetry`: each run drives the
update stream inside a ``bench.drive`` span and reads wall-clock seconds
and operation counts back out of the run's metrics registry, so a bench
row and a ``--telemetry`` JSONL export can never disagree.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.apkeep import APKeepVerifier
from repro.baselines.deltanet import DeltaNetVerifier
from repro.core.model_manager import ModelWriter
from repro.core.subspace import SubspacePartition
from repro.dataplane.update import RuleUpdate
from repro.telemetry import OpMetrics, Telemetry

from .settings import Setting

DEFAULT_TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "60"))
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Registry counter written by the ``bench.drive`` span in :func:`_drive`.
DRIVE_SECONDS = "span.bench.drive.seconds"


@dataclass
class RunResult:
    """One verifier run's Table-3 row fragment."""

    system: str
    setting: str
    seconds: float
    predicate_ops: int
    memory_bytes: int
    ecs: int
    updates_processed: int
    updates_total: int
    timed_out: bool = False
    metrics: Optional[Dict[str, object]] = None

    @property
    def finished(self) -> bool:
        return not self.timed_out

    def display_time(self) -> str:
        if self.timed_out:
            return f">{self.seconds:.0f}"
        return f"{self.seconds:.2f}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "system": self.system,
            "setting": self.setting,
            "seconds": self.seconds,
            "predicate_ops": self.predicate_ops,
            "memory_bytes": self.memory_bytes,
            "ecs": self.ecs,
            "updates_processed": self.updates_processed,
            "updates_total": self.updates_total,
            "timed_out": self.timed_out,
            "metrics": self.metrics,
        }


def run_flash(
    setting: Setting,
    updates: Sequence[RuleUpdate],
    block_threshold: Optional[int] = None,
    timeout: float = DEFAULT_TIMEOUT,
    aggregate: bool = True,
) -> RunResult:
    """Run the Fast IMT model manager over one subspace-less stream."""
    telemetry = Telemetry()
    manager = ModelWriter(
        setting.topology.switches(),
        setting.layout,
        block_threshold=block_threshold,
        aggregate=aggregate,
        telemetry=telemetry,
    )

    def feed(chunk: Sequence[RuleUpdate]) -> None:
        manager.submit(chunk)

    def finish() -> None:
        manager.flush()

    processed, seconds, timed_out = _drive(telemetry, updates, feed, finish, timeout)
    return RunResult(
        system="Flash",
        setting=setting.name,
        seconds=seconds,
        predicate_ops=manager.engine.metrics.total,
        memory_bytes=manager.memory_estimate_bytes(),
        ecs=manager.num_ecs(),
        updates_processed=processed,
        updates_total=len(updates),
        timed_out=timed_out,
        metrics=telemetry.registry.snapshot(),
    )


def run_flash_partitioned(
    setting: Setting,
    updates: Sequence[RuleUpdate],
    block_threshold: Optional[int] = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> RunResult:
    """Flash with the §3.4 input-space partition (one manager per subspace).

    Reported time is the summed single-core time; memory and ops are summed
    across subspaces.  All managers share one registry, so op counters
    aggregate automatically.
    """
    assert setting.partition is not None, f"{setting.name} has no partition"
    routed = setting.partition.route_updates(updates)
    telemetry = Telemetry()
    managers: Dict[int, ModelWriter] = {}
    for subspace in setting.partition:
        managers[subspace.index] = ModelWriter(
            setting.topology.switches(),
            setting.layout,
            block_threshold=block_threshold,
            subspace_match=subspace.match,
            telemetry=telemetry,
        )
    timed_out = False
    processed = 0
    start = time.perf_counter()
    with telemetry.span("bench.drive"):
        for subspace in setting.partition:
            manager = managers[subspace.index]
            stream = routed[subspace.index]
            for chunk_start in range(0, len(stream), 256):
                manager.submit(stream[chunk_start : chunk_start + 256])
                processed += min(256, len(stream) - chunk_start)
                if time.perf_counter() - start > timeout:
                    timed_out = True
                    break
            manager.flush()
            if timed_out:
                break
    seconds = telemetry.registry.value(DRIVE_SECONDS)
    return RunResult(
        system="Flash",
        setting=f"{setting.name} Subspace",
        seconds=seconds if not timed_out else timeout,
        predicate_ops=OpMetrics(telemetry.registry).total,
        memory_bytes=sum(m.memory_estimate_bytes() for m in managers.values()),
        ecs=sum(m.num_ecs() for m in managers.values()),
        updates_processed=processed,
        updates_total=sum(len(v) for v in routed.values()),
        timed_out=timed_out,
        metrics=telemetry.registry.snapshot(),
    )


def run_apkeep(
    setting: Setting,
    updates: Sequence[RuleUpdate],
    timeout: float = DEFAULT_TIMEOUT,
    subspace=None,
) -> RunResult:
    telemetry = Telemetry()
    verifier = APKeepVerifier(
        setting.topology.switches(), setting.layout, registry=telemetry.registry
    )
    if subspace is not None:
        universe = verifier.compiler.compile(subspace.match)
        verifier.universe = universe
        vector = verifier._ecs[0][0]
        verifier._ecs = [(vector, universe)]
        for device in verifier.devices:
            verifier._ppm[device] = {verifier.default_action: universe}

    def feed(chunk: Sequence[RuleUpdate]) -> None:
        verifier.process_updates(chunk)

    processed, seconds, timed_out = _drive(telemetry, updates, feed, None, timeout)
    return RunResult(
        system="APKeep*",
        setting=setting.name,
        seconds=seconds,
        predicate_ops=verifier.metrics.total,
        memory_bytes=verifier.memory_estimate_bytes()
        + verifier.engine.memory_estimate_bytes(),
        ecs=verifier.num_ecs(),
        updates_processed=processed,
        updates_total=len(updates),
        timed_out=timed_out,
        metrics=telemetry.registry.snapshot(),
    )


def run_apkeep_partitioned(
    setting: Setting,
    updates: Sequence[RuleUpdate],
    timeout: float = DEFAULT_TIMEOUT,
) -> RunResult:
    assert setting.partition is not None
    routed = setting.partition.route_updates(updates)
    total = RunResult("APKeep*", f"{setting.name} Subspace", 0.0, 0, 0, 0, 0, 0)
    budget = timeout
    for subspace in setting.partition:
        stream = routed[subspace.index]
        result = run_apkeep(setting, stream, timeout=budget, subspace=subspace)
        total.seconds += result.seconds
        total.predicate_ops += result.predicate_ops
        total.memory_bytes += result.memory_bytes
        total.ecs += result.ecs
        total.updates_processed += result.updates_processed
        total.updates_total += result.updates_total
        budget -= result.seconds
        if result.timed_out or budget <= 0:
            total.timed_out = True
            break
    return total


def run_deltanet(
    setting: Setting,
    updates: Sequence[RuleUpdate],
    timeout: float = DEFAULT_TIMEOUT,
) -> RunResult:
    telemetry = Telemetry()
    verifier = DeltaNetVerifier(
        setting.topology.switches(), setting.layout, registry=telemetry.registry
    )

    def feed(chunk: Sequence[RuleUpdate]) -> None:
        verifier.process_updates(chunk)

    processed, seconds, timed_out = _drive(telemetry, updates, feed, None, timeout)
    return RunResult(
        system="Delta-net*",
        setting=setting.name,
        seconds=seconds,
        predicate_ops=verifier.metrics.extra.get("atom_ops", 0),
        memory_bytes=verifier.memory_estimate_bytes(),
        ecs=verifier.num_atoms,
        updates_processed=processed,
        updates_total=len(updates),
        timed_out=timed_out,
        metrics=telemetry.registry.snapshot(),
    )


def _drive(
    telemetry: Telemetry,
    updates: Sequence[RuleUpdate],
    feed: Callable[[Sequence[RuleUpdate]], None],
    finish: Optional[Callable[[], None]],
    timeout: float,
    chunk_size: int = 128,
) -> Tuple[int, float, bool]:
    """Feed ``updates`` in chunks inside a ``bench.drive`` span.

    Returns (processed, seconds, timed_out); seconds is read back from the
    registry so callers and exporters see the same number.
    """
    processed = 0
    timed_out = False
    start = time.perf_counter()
    with telemetry.span("bench.drive"):
        for chunk_start in range(0, len(updates), chunk_size):
            chunk = updates[chunk_start : chunk_start + chunk_size]
            feed(chunk)
            processed += len(chunk)
            if time.perf_counter() - start > timeout:
                timed_out = processed < len(updates)
                break
        if finish is not None and not timed_out:
            finish()
    return processed, telemetry.registry.value(DRIVE_SECONDS), timed_out


# ----------------------------------------------------------------------
# Reporting helpers
# ----------------------------------------------------------------------

def print_table(title: str, rows: Sequence[RunResult]) -> None:
    print(f"\n=== {title} ===")
    header = (
        f"{'setting':<24} {'system':<12} {'time(s)':>9} {'#ops':>12} "
        f"{'mem(MB)':>9} {'ECs/atoms':>10} {'updates':>12}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        progress = f"{r.updates_processed}/{r.updates_total}"
        print(
            f"{r.setting:<24} {r.system:<12} {r.display_time():>9} "
            f"{r.predicate_ops:>12} {r.memory_bytes / 1e6:>9.1f} "
            f"{r.ecs:>10} {progress:>12}"
        )


def save_results(name: str, rows: Sequence[RunResult]) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump([r.as_dict() for r in rows], f, indent=2)
    return path


def save_json(name: str, payload: object) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
    return path
