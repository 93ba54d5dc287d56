"""§7 extension — parallel subspace verification.

The paper runs one subspace verifier per vCPU (§5.5's 112-vCPU deployment);
this bench reproduces the deployment model in miniature: the same storm
verified by the same per-subspace verifiers, sequentially vs across worker
processes.  Results must agree exactly.  The wall-clock ratio is reported,
not asserted — on the two-core sandbox the process map loses to one
process at ``small`` (start-up dwarfs 15 ms subspaces) and wins by about
a fifth, warm, from ``medium`` up — together with the transport stack
that bounds it: routing, pickling the per-subspace tasks out and
unpickling them in, the verification itself, collecting models.

Every cell is measured in a fresh interpreter: *cold* is its first
``run_partitioned`` call (a pooled cell pays the fork-server start there),
*warm* the median of its later calls.  One row per ``REPRO_SCALE`` is kept
in ``benchmarks/results/parallel_subspaces.json``.
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import subprocess
import sys
import time

from repro.bdd.predicate import PredicateEngine
from repro.core.parallel import WorkerTask, run_partitioned

from .harness import RESULTS_DIR, save_json
from .settings import SCALE, lnet_ecmp

#: Worker counts to measure, comma-separated.
PROCESSES = [
    int(n) for n in os.environ.get("REPRO_BENCH_PROCESSES", "2,4").split(",")
]
WARM_CALLS = 3


def measure_cell(processes: int) -> dict:
    """One worker count (0 = sequential) in this interpreter, run via
    :func:`_fresh_cell`: one cold call, then the warm ones."""
    setting = lnet_ecmp()
    updates = setting.storm_updates()

    walls, results = [], []
    for _ in range(1 + WARM_CALLS):
        # Timed from outside: the whole call, registry merge included.
        start = time.perf_counter()
        results.append(
            run_partitioned(
                setting.topology.switches(),
                setting.layout,
                setting.partition,
                updates,
                processes=processes or None,
            )
        )
        walls.append(time.perf_counter() - start)
    stats = results[-1].stats
    return {
        "cold_wall": walls[0],
        "warm_wall": statistics.median(walls[1:]),
        "worker_seconds": sum(s.seconds for s in stats),
        "failures": sum(len(r.failures) for r in results),
        "stats": [[s.subspace, s.ecs, s.predicate_ops, s.updates] for s in stats],
    }


def _fresh_cell(processes: int) -> dict:
    # ``-c`` leaves no main module for worker processes to re-import.
    code = (
        "import json; from benchmarks.bench_parallel import measure_cell; "
        f"print(json.dumps(measure_cell({processes})))"
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join([repo, *(p for p in sys.path if p)])
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(out.stdout)


def measure_transport() -> dict:
    """What crossing the process boundary costs, measured in one process:
    routing the storm, pickling / unpickling the subspace tasks on the way
    out and, on the way back, each subspace's model (FBW1 export, pickle,
    unpickle, import into the shared engine)."""
    setting = lnet_ecmp()
    updates = setting.storm_updates()
    start = time.perf_counter()
    routed = setting.partition.route_updates(updates)
    route_seconds = time.perf_counter() - start
    tasks = [
        WorkerTask(
            devices=tuple(setting.topology.switches()),
            layout=setting.layout,
            name=s.name,
            subspace_match=s.match,
            updates=tuple(routed[s.index]),
        )
        for s in setting.partition
    ]
    start = time.perf_counter()
    blobs = [pickle.dumps(task) for task in tasks]
    pickle_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for blob in blobs:
        pickle.loads(blob)
    unpickle_seconds = time.perf_counter() - start
    collected = run_partitioned(
        setting.topology.switches(),
        setting.layout,
        setting.partition,
        updates,
        collect_models=True,
    )
    merge_engine = PredicateEngine(setting.layout.total_bits)
    model_bytes = 0
    start = time.perf_counter()
    for table in collected.models.values():
        blob = collected.model_engine.export_bytes([pred for pred, _ in table])
        payload = pickle.dumps((blob, tuple(acts for _, acts in table)))
        model_bytes += len(payload)
        merge_engine.import_bytes(pickle.loads(payload)[0])
    model_collect_seconds = time.perf_counter() - start
    return {
        "updates": len(updates),
        "subspaces": len(tasks),
        "route_seconds": route_seconds,
        "task_bytes": sum(len(blob) for blob in blobs),
        "pickle_seconds": pickle_seconds,
        "unpickle_seconds": unpickle_seconds,
        "model_bytes": model_bytes,
        "model_collect_seconds": model_collect_seconds,
    }


def bench_parallel_subspaces(benchmark):
    row = {"scale": SCALE}

    def run():
        row["transport"] = measure_transport()
        row["sequential"] = _fresh_cell(0)
        row["pool"] = {str(n): _fresh_cell(n) for n in PROCESSES}
        cells = [row["sequential"], *row["pool"].values()]
        stats = [cell.pop("stats") for cell in cells]
        row["subspace_stats"] = stats[0]
        row["agree"] = all(s == stats[0] for s in stats) and not any(
            cell["failures"] for cell in cells
        )
        return row

    benchmark.pedantic(run, rounds=1, iterations=1)
    transport, seq = row["transport"], row["sequential"]
    print(f"\n=== §7 — parallel subspace verification ({SCALE}) ===")
    print(
        f"{transport['updates']} updates over {transport['subspaces']} "
        f"subspaces: route {transport['route_seconds']:.3f}s, tasks "
        f"{transport['task_bytes'] / 1e6:.2f} MB "
        f"(pickle {transport['pickle_seconds']:.3f}s, "
        f"unpickle {transport['unpickle_seconds']:.3f}s), models back "
        f"{transport['model_bytes'] / 1e6:.2f} MB in "
        f"{transport['model_collect_seconds']:.3f}s"
    )
    print(
        f"  sequential     cold {seq['cold_wall']:.3f}s  "
        f"warm {seq['warm_wall']:.3f}s"
    )
    for n, cell in row["pool"].items():
        print(
            f"  {n:>2} processes   cold {cell['cold_wall']:.3f}s  "
            f"warm {cell['warm_wall']:.3f}s  "
            f"({seq['warm_wall'] / cell['warm_wall']:.2f}x warm)  "
            f"workers {cell['worker_seconds']:.3f}s"
        )
    path = os.path.join(RESULTS_DIR, "parallel_subspaces.json")
    rows = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            rows = json.load(f).get("rows", {})
    rows[SCALE] = row
    save_json("parallel_subspaces", {"rows": rows})
    assert row["agree"], "parallel and sequential verifiers must agree"
