"""Chaos-fleet differential testing: storms through a faulty fleet.

The chaos runner (:mod:`repro.difftest.chaos`) corrupts the *data* and
asserts supervised ingestion heals it.  This module corrupts the
*processes*: each scenario's update stream is dispatched as an
epoch-tagged block storm through a real multi-process
:class:`~repro.fleet.FleetSupervisor` while seeded process-level faults
(kill-worker, hang-worker, slow-worker, drop-ack) fire mid-storm, and
the merged shard models must still converge to the clean single-process
:class:`~repro.difftest.oracle.ReferenceOracle` — verdict for verdict,
EC table for EC table.

Every fault kind is recoverable by construction: kills and hangs are
healed by checkpoint-chain + journal-tail replay on respawn (or by
graceful degradation into the supervisor's in-process fallback once
respawns exhaust), slow workers by watchdog redelivery, dropped acks by
idempotent redelivery against the worker-side watermark.  Any
divergence is therefore a genuine recovery bug — lost blocks, double
applies, stale-generation confusion — exactly the code paths a clean
run never exercises.

Determinism: the fault recipe is a pure function of ``(seed,
scenario.name, fault kinds)``, so a divergent scenario replays (and
shrinks) with the identical storm.

Entry point: ``repro fuzz --fleet``.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, Optional, Sequence, Tuple

from ..bdd.predicate import PredicateEngine
from ..core.subspace import SubspacePartition
from ..fleet import FleetSupervisor
from ..headerspace.match import MatchCompiler
from ..resilience import RetryPolicy
from ..telemetry import Telemetry
from .chaos import ChaosRunner
from .compare import ModelView, view_from_oracle
from .oracle import ReferenceOracle
from .runner import DiffResult, Divergence, _EngineRun, derive_verdicts, diff_views
from .scenario import Scenario

#: Process-fault kinds a fleet storm cycles through by default.  ``raise``
#: is covered by the ordinary supervised-pool tests; the fleet gate
#: focuses on the kinds that need liveness detection and replay.
FLEET_FAULT_KINDS: Tuple[str, ...] = (
    "kill",
    "hang",
    "slow",
    "drop-ack",
)

#: Roughly one scenario in this many runs an unkillable ``kill@99`` shard
#: so the degraded in-process fallback is exercised continuously.
DEGRADE_EVERY = 8


class FleetChaosRunner:
    """Replay scenarios as faulty block storms through a worker fleet.

    ``run(scenario)`` is deterministic in ``(seed, fault kinds,
    scenario)`` and exposes the same ``run() -> DiffResult`` interface
    as the other difftest runners, so the shrinker and the fuzz loop
    work unchanged.
    """

    def __init__(
        self,
        seed: int = 0,
        kinds: Sequence[str] = FLEET_FAULT_KINDS,
        processes: int = 2,
        shards: int = 2,
        block_size: int = 4,
        telemetry: Optional[Telemetry] = None,
        heartbeat_interval: float = 0.05,
        ack_timeout: float = 0.75,
    ) -> None:
        self.seed = seed
        self.kinds = tuple(kinds) or FLEET_FAULT_KINDS
        unknown = [k for k in self.kinds if k not in FLEET_FAULT_KINDS]
        if unknown:
            # An unknown kind would kill every worker at spawn and the
            # storm would pass on the degraded fallback, testing nothing.
            raise ValueError(
                f"unknown fleet fault kind(s) {', '.join(unknown)}; "
                f"valid kinds: {', '.join(FLEET_FAULT_KINDS)}"
            )
        self.processes = processes
        self.shards = max(1, shards)
        self.block_size = block_size
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.heartbeat_interval = heartbeat_interval
        self.ack_timeout = ack_timeout

    # ------------------------------------------------------------------
    def faults_for(self, scenario: Scenario) -> Dict[str, str]:
        """The deterministic per-shard fault recipe for one scenario."""
        mix = zlib.crc32(scenario.name.encode("utf-8"))
        rng = random.Random((self.seed << 8) ^ mix)
        names = [f"sub{i}" for i in range(self.shards)]
        faults: Dict[str, str] = {}
        victim = rng.choice(names)
        if rng.randrange(DEGRADE_EVERY) == 0:
            # Unkillable worker: exhausts the respawn budget and lands in
            # the degraded in-process fallback.
            faults[victim] = "kill@99"
            return faults
        for name in names:
            if name != victim and rng.random() >= 0.25:
                continue  # one guaranteed victim; others fault 1-in-4
            kind = rng.choice(self.kinds)
            attempts = 1 if kind in ("hang", "kill") else rng.choice((1, 2))
            after = rng.randrange(0, 4)
            faults[name] = f"{kind}@{attempts}#{after}"
        return faults

    def _partition(self, layout) -> SubspacePartition:
        dst_bits = layout.field("dst").width
        prefix_len = max(1, (self.shards - 1).bit_length())
        count = 1 << prefix_len
        prefixes = [
            (i << (dst_bits - prefix_len), prefix_len) for i in range(count)
        ]
        return SubspacePartition.dst_prefix_partition(layout, prefixes)

    # ------------------------------------------------------------------
    def run(self, scenario: Scenario) -> DiffResult:
        result = DiffResult(scenario)
        with self.telemetry.span("difftest.fleet.run", scenario=scenario.name):
            self._run_inner(scenario, result)
        self.telemetry.count("difftest.fleet.scenarios")
        if result.divergences:
            self.telemetry.count(
                "difftest.fleet.divergences", len(result.divergences)
            )
        return result

    def _run_inner(self, scenario: Scenario, result: DiffResult) -> None:
        layout = scenario.build_layout()
        topology = scenario.build_topology()
        switches = sorted(topology.switches())
        comparison = PredicateEngine(layout.total_bits)
        compiler = MatchCompiler(comparison, layout)
        requirements = scenario.build_requirements(topology, layout)

        # Reference: the brute-force oracle on the clean, single-process
        # stream — no partitioning, no processes, no faults.
        oracle = ReferenceOracle(topology, layout)
        oracle.process_updates(scenario.updates)
        reference = _EngineRun("oracle")
        reference.view = view_from_oracle("oracle", comparison, oracle)
        reference.loop_verdict, reference.verdicts = derive_verdicts(
            reference.view, topology, compiler, requirements
        )

        faults = self.faults_for(scenario)
        result.stats["fleet_faults"] = dict(faults)
        run = _EngineRun("fleet")
        try:
            outcome, counters = self._storm(scenario, switches, layout, faults)
            entries = []
            for shard in outcome.shards.values():
                if shard.model is None:
                    raise RuntimeError(f"shard {shard.name} shipped no model")
                frames, actions = shard.model
                entries.extend(zip(comparison.import_frames(frames), actions))
            run.view = ModelView("fleet", comparison, switches, entries)
            run.loop_verdict, run.verdicts = derive_verdicts(
                run.view, topology, compiler, requirements
            )
            result.stats["fleet"] = {
                "degraded": sum(
                    1 for s in outcome.shards.values() if s.degraded
                ),
                "respawns": counters.get("fleet.respawns", 0),
                "replayed": counters.get("fleet.blocks.replayed", 0),
                "resent": counters.get("fleet.blocks.resent", 0),
                "acked": counters.get("fleet.blocks.acked", 0),
                "rejected": counters.get("fleet.checkpoints.rejected", 0),
                "failures": len(outcome.failures),
            }
            if not outcome.ok:
                raise RuntimeError(
                    f"unrecovered fleet failures: {outcome.failures}"
                )
        except Exception as exc:  # noqa: BLE001 - crash = divergence
            run.error = f"{type(exc).__name__}: {exc}"
            self.telemetry.count("difftest.fleet.engine_errors")
            result.divergences.append(
                Divergence("error", ("fleet", "oracle"), detail=run.error)
            )
            result.stats["comparison_nodes_freed"] = comparison.collect()
            return
        diff_views(topology, layout, switches, run, reference, result)
        ChaosRunner._diff_verdicts(requirements, run, reference, result)
        result.stats["comparison_nodes_freed"] = comparison.collect()

    def _storm(
        self,
        scenario: Scenario,
        switches,
        layout,
        faults: Dict[str, str],
    ):
        """One faulty block storm; returns (FleetOutcome, counters)."""
        partition = self._partition(layout)
        fleet = FleetSupervisor(
            switches,
            layout,
            partition,
            processes=self.processes,
            faults=faults,
            retry=RetryPolicy(
                max_retries=1,
                backoff_seconds=0.01,
                task_timeout=self.ack_timeout,
                jitter=0.2,
                max_respawns=2,
                ack_resends=1,
            ),
            heartbeat_interval=self.heartbeat_interval,
            checkpoint_every=2,
            # Delta chains under chaos: every third checkpoint compacts,
            # so restores and harvests routinely cross FBW2 frames.
            compact_every=3,
            block_size=self.block_size,
            seed=(self.seed << 8) ^ zlib.crc32(scenario.name.encode()),
        )
        try:
            fleet.submit(scenario.updates, epoch=scenario.epoch)
            outcome = fleet.finish(collect_models=True, timeout=120.0)
        finally:
            fleet.close()
        counters = fleet.parent.registry.snapshot()["counters"]
        self.telemetry.registry.merge_snapshot(
            {"counters": {
                k: v for k, v in counters.items() if k.startswith("fleet.")
            }}
        )
        return outcome, counters

    def __repr__(self) -> str:
        return (
            f"FleetChaosRunner(seed={self.seed}, kinds={self.kinds}, "
            f"shards={self.shards}, block_size={self.block_size})"
        )
