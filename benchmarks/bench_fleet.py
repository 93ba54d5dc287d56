"""Fleet resilience and shipping-cost benchmarks.

Two suites share this file:

**Crash recovery** (``bench_fleet_crash_recovery``, pytest-benchmark):
the persistent worker fleet (``repro.fleet``) buys §5.5-style
parallelism *plus* fault tolerance: workers checkpoint their shard
model (FSJ1 snapshot + applied-block journal) every few blocks, and a
killed worker restores the snapshot and replays only the journaled
tail.  The same storm is verified by a crash-free fleet run and a run
where one worker is killed mid-storm; both must agree exactly with the
sequential baseline, and the crashed run must finish within ``2x`` of
the crash-free run.

**Skewed storm** (``run_skewed_storm``, ``__main__`` with
``--quick --check --output``): prices the FBW2 delta-shipping tentpole
under update skew — ~90% of the stream lands in one hot shard.  Two
fleet configurations verify the identical stream:

* ``full_frame``   — ``compact_every=1``: every checkpoint ships a full
  FBW1 table (the historical wire cost);
* ``delta``        — ``compact_every=8``: checkpoints between
  compactions ship FBW2 deltas + journal diffs.

Both must match the sequential baseline model-for-model.  The
gated quantity is hardware-transferable: bytes shipped over the
supervisor queues (``fleet.checkpoint.bytes`` + ``fleet.ship.bytes``)
must drop >= ``BYTES_REDUCTION_FLOOR``x from ``full_frame`` to
``delta``.  Wall-clock ratios are reported — ``delta`` against
``full_frame`` (asserted only in full mode, where the workload is big
enough to be stable) and ``delta`` against the one-process sequential
run, the distributed-vs-central number ROADMAP item 2 is about.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_fleet.py              # full
    PYTHONPATH=src python benchmarks/bench_fleet.py --quick      # CI smoke
    PYTHONPATH=src python benchmarks/bench_fleet.py --check      # gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.parallel import run_partitioned
from repro.resilience import RetryPolicy

try:
    from .harness import save_json
    from .settings import lnet_ecmp
except ImportError:  # executed as a script: python benchmarks/bench_fleet.py
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from benchmarks.harness import save_json
    from benchmarks.settings import lnet_ecmp

PROCESSES = int(os.environ.get("REPRO_BENCH_PROCESSES", "4"))
BLOCK_SIZE = int(os.environ.get("REPRO_BENCH_FLEET_BLOCK", "64"))
CRASH_RATIO_BOUND = 2.0

#: Tight watchdog so the injected death is noticed promptly; generous
#: enough that slow CI machines don't trip it on healthy workers.
RETRY = RetryPolicy(
    max_retries=1,
    backoff_seconds=0.02,
    task_timeout=30.0,
    jitter=0.1,
    max_respawns=2,
    ack_resends=1,
)


def _fleet_run(setting, updates, faults=None):
    return run_partitioned(
        setting.topology.switches(),
        setting.layout,
        setting.partition,
        updates,
        processes=PROCESSES,
        retry=RETRY,
        faults=faults,
        block_size=BLOCK_SIZE,
        checkpoint_every=2,
        heartbeat_interval=0.05,
    )


def bench_fleet_crash_recovery(benchmark):
    setting = lnet_ecmp()
    updates = setting.storm_updates()
    victim = setting.partition.subspaces[0].name
    # Die once, mid-shard: after two checkpointed block pairs, so the
    # respawned worker restores a snapshot and replays a short tail
    # instead of the whole storm.
    faults = {victim: "kill@1#5"}
    result = {}

    def run():
        baseline = run_partitioned(
            setting.topology.switches(),
            setting.layout,
            setting.partition,
            updates,
            processes=None,
        )
        clean = _fleet_run(setting, updates)
        crashed = _fleet_run(setting, updates, faults=faults)
        reg = crashed.registry
        by_name = lambda r: {s.subspace: s for s in r.stats}  # noqa: E731
        base_stats = by_name(baseline)
        agree = all(
            by_name(r)[n].ecs == base_stats[n].ecs
            and by_name(r)[n].updates == base_stats[n].updates
            for r in (clean, crashed)
            for n in base_stats
        )
        result.update(
            {
                "setting": setting.name,
                "updates": len(updates),
                "workers": PROCESSES,
                "block_size": BLOCK_SIZE,
                "victim": victim,
                "sequential_wall": baseline.wall_seconds,
                "clean_wall": clean.wall_seconds,
                "crashed_wall": crashed.wall_seconds,
                "crash_ratio": crashed.wall_seconds / clean.wall_seconds,
                "workers_lost": reg.value("fleet.workers.lost"),
                "respawns": reg.value("fleet.respawns"),
                "blocks_replayed": reg.value("fleet.blocks.replayed"),
                "blocks_dispatched": reg.value("fleet.blocks.dispatched"),
                "checkpoints": reg.value("fleet.checkpoints"),
                "degraded": reg.value("fleet.degraded"),
                "recovered_failures": sum(
                    1 for f in crashed.failures if f.recovered
                ),
                "agree": agree,
            }
        )
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== fleet crash recovery overhead ===")
    print(
        f"{result['setting']}: {result['updates']} updates over "
        f"{result['workers']} workers (blocks of {result['block_size']})"
    )
    print(
        f"sequential {result['sequential_wall']:.3f}s | fleet clean "
        f"{result['clean_wall']:.3f}s | fleet crashed "
        f"{result['crashed_wall']:.3f}s "
        f"(ratio {result['crash_ratio']:.2f}x)"
    )
    print(
        f"kill of {result['victim']!r}: {result['respawns']:.0f} respawn(s), "
        f"{result['blocks_replayed']:.0f} of "
        f"{result['blocks_dispatched']:.0f} blocks replayed from the "
        f"journal tail, {result['checkpoints']:.0f} checkpoints"
    )
    save_json("fleet_crash_recovery", result)
    assert result["agree"], "fleet runs must agree with the sequential run"
    assert result["workers_lost"] >= 1, "the injected kill must land"
    assert result["degraded"] == 0, "recovery must not fall back"
    assert result["crash_ratio"] < CRASH_RATIO_BOUND, (
        f"crash recovery cost {result['crash_ratio']:.2f}x, "
        f"bound {CRASH_RATIO_BOUND}x"
    )


# ----------------------------------------------------------------------
# Skewed storm: delta shipping vs full-frame checkpoints
# ----------------------------------------------------------------------

#: ``full_frame`` bytes must exceed ``delta`` bytes by at least this.
BYTES_REDUCTION_FLOOR = 3.0
#: Reported-only in quick mode; asserted in full runs.
DELTA_WALL_BOUND = 1.05

SKEW_RETRY = RetryPolicy(
    max_retries=1,
    backoff_seconds=0.02,
    task_timeout=30.0,
    jitter=0.1,
    max_respawns=2,
    ack_resends=1,
)


def build_skewed_storm(setting, hot_index: int = 0, hot_share: float = 0.9):
    """A stream where ``hot_share`` of the updates touch one shard.

    Keeps every update routed to the hot subspace (in original order —
    trace streams delete after inserting, so order is semantic) and
    thins the rest until the hot shard carries ~``hot_share`` of the
    stream.  Cold thinning drops whole ``(device, rule)`` insert/delete
    pairs: keeping a delete whose insert was thinned away would fault
    the shard with ``RuleNotFoundError``.
    """
    updates = setting.trace_updates()
    routed = setting.partition.route_updates(updates)
    hot_ids = {id(u) for u in routed[hot_index]}
    hot = [u for u in updates if id(u) in hot_ids]
    cold = [u for u in updates if id(u) not in hot_ids]
    cold_keys: List[tuple] = []
    seen = set()
    for u in cold:
        key = (u.device, u.rule)
        if key not in seen:
            seen.add(key)
            cold_keys.append(key)
    want_cold = int(len(hot) * (1.0 - hot_share) / hot_share)
    step = max(1, (2 * len(cold_keys)) // max(1, want_cold))
    keep = set(cold_keys[::step])
    return [
        u
        for u in updates
        if id(u) in hot_ids or (u.device, u.rule) in keep
    ]


def _canonical(models) -> Dict[str, Dict[tuple, int]]:
    """Comparison key: per shard, the map ``sorted action dict ->
    covered headers`` (EC granularity may differ, coverage may not)."""
    out: Dict[str, Dict[tuple, int]] = {}
    for name, pairs in models.items():
        base = out.setdefault(name, {})
        for pred, actions in pairs:
            key = tuple(sorted(actions.items()))
            base[key] = base.get(key, 0) + pred.sat_count()
    return out


def _skew_run(setting, updates, compact_every):
    result = run_partitioned(
        setting.topology.switches(),
        setting.layout,
        setting.partition,
        updates,
        processes=PROCESSES,
        retry=SKEW_RETRY,
        block_size=8,
        checkpoint_every=2,
        compact_every=compact_every,
        heartbeat_interval=0.05,
        collect_models=True,
    )
    reg = result.registry
    bytes_shipped = reg.value("fleet.checkpoint.bytes") + reg.value(
        "fleet.ship.bytes"
    )
    return result, {
        "wall": result.wall_seconds,
        "bytes": bytes_shipped,
        "checkpoint_bytes": reg.value("fleet.checkpoint.bytes"),
        "ship_bytes": reg.value("fleet.ship.bytes"),
        "checkpoints": reg.value("fleet.checkpoints"),
        "checkpoints_rejected": reg.value("fleet.checkpoints.rejected"),
        "degraded": reg.value("fleet.degraded"),
    }


def run_skewed_storm(quick: bool) -> Dict[str, object]:
    setting = lnet_ecmp()
    updates = build_skewed_storm(setting)
    if quick:
        updates = updates[: len(updates) // 2]
    hot_name = setting.partition.subspaces[0].name
    sequential = run_partitioned(
        setting.topology.switches(),
        setting.layout,
        setting.partition,
        updates,
        processes=None,
        collect_models=True,
    )
    oracle = _canonical(sequential.models)
    report: Dict[str, object] = {
        "setting": setting.name,
        "mode": "quick" if quick else "full",
        "updates": len(updates),
        "hot_shard": hot_name,
        "workers": PROCESSES,
        "block_size": 8,
        "checkpoint_every": 2,
        "sequential_wall": sequential.wall_seconds,
        "runs": {},
    }
    for name, compact_every in (("full_frame", 1), ("delta", 8)):
        result, row = _skew_run(setting, updates, compact_every)
        row["compact_every"] = compact_every
        row["ok"] = bool(result.ok)
        row["agree"] = _canonical(result.models) == oracle
        report["runs"][name] = row
        print(
            f"{name:<16} wall={row['wall']:7.3f}s "
            f"bytes={row['bytes']:>12,} "
            f"(ckpt {row['checkpoint_bytes']:,} + ship {row['ship_bytes']:,}) "
            f"checkpoints={row['checkpoints']:.0f} agree={row['agree']}"
        )
    full = report["runs"]["full_frame"]
    delta = report["runs"]["delta"]
    report["bytes_reduction"] = (
        full["bytes"] / delta["bytes"] if delta["bytes"] else float("inf")
    )
    report["delta_wall_ratio"] = delta["wall"] / full["wall"]
    report["delta_vs_sequential_wall"] = (
        delta["wall"] / sequential.wall_seconds
    )
    print(
        f"bytes reduction {report['bytes_reduction']:.2f}x | "
        f"delta wall {report['delta_wall_ratio']:.2f}x of full | "
        f"delta wall {report['delta_vs_sequential_wall']:.1f}x of "
        f"sequential ({sequential.wall_seconds:.4f}s)"
    )
    return report


def check_skewed_storm(report: Dict[str, object]) -> List[str]:
    failures: List[str] = []
    for name, row in report["runs"].items():
        if not row["ok"]:
            failures.append(f"{name}: fleet run reported failures")
        if not row["agree"]:
            failures.append(f"{name}: models diverged from sequential")
        if row["checkpoints_rejected"]:
            failures.append(
                f"{name}: {row['checkpoints_rejected']:.0f} checkpoints "
                "rejected — the delta chain broke mid-run"
            )
    if report["bytes_reduction"] < BYTES_REDUCTION_FLOOR:
        failures.append(
            f"delta checkpoints shipped only "
            f"{report['bytes_reduction']:.2f}x fewer bytes than full "
            f"frames (floor {BYTES_REDUCTION_FLOOR}x)"
        )
    if report["mode"] == "full":
        # Wall ratios are only stable enough to gate at full size.
        if report["delta_wall_ratio"] > DELTA_WALL_BOUND:
            failures.append(
                f"delta shipping cost {report['delta_wall_ratio']:.2f}x "
                f"wall vs full frames (bound {DELTA_WALL_BOUND}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Skewed-storm fleet shipping benchmark"
    )
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate: model agreement, zero rejected checkpoints, "
        f">={BYTES_REDUCTION_FLOOR}x bytes reduction, and (full mode) "
        "wall-clock bounds",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also write the JSON report to this path (the run always "
        "saves benchmarks/results/fleet_skewed_storm.json)",
    )
    args = parser.parse_args(argv)

    report = run_skewed_storm(args.quick)
    path = save_json("fleet_skewed_storm", report)
    print(f"wrote {path}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.output}")

    if args.check:
        failures = check_skewed_storm(report)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("fleet skewed-storm gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
