"""Command line of the ledger benchmark.

Three ways in:

* the ``BENCHMARK.json`` contract —
  ``run.py --workload W --seed N --seconds S --trace 0|1`` measures for
  about ``S`` seconds and prints one JSON object as its last line;
* the ledger itself —
  ``python -m benchmarks.ledger [--workload W] [--seed N] [--rounds R]
  [--traced] [--quick] [--out FILE]`` prints every metric by name with
  its unit, writes one result JSON and appends one line to
  ``results/history.jsonl``;
* ``--compare A.json B.json`` classifies every (metric, workload) pair.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.util
import json
import os
import platform
import signal
import subprocess
import sys
from typing import Dict, List, Optional

from . import runner, stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DEFAULT_SEED = 7
DEFAULT_ROUNDS = 5
WORKLOAD_NAMES = ("storm", "churn", "epochs", "serve")


def load_contract() -> Dict[str, object]:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        return json.load(f)


def load_golden(workload: str, quick: bool, seed: int) -> Optional[Dict[str, str]]:
    """Committed digests for the default seed (``golden/make_golden.py``)."""
    if seed != DEFAULT_SEED:
        return None
    path = os.path.join(HERE, "golden", f"{workload}.json")
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f).get("quick" if quick else "full")
    except FileNotFoundError:
        return None


def provenance() -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "time_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


# ----------------------------------------------------------------------
# Contract mode
# ----------------------------------------------------------------------

def run_contract(args) -> int:
    contract = load_contract()
    traced = bool(args.trace)
    rounds = runner.run_rounds(
        args.workload, args.seed, args.quick, traced, seconds=args.seconds
    )
    summary = runner.aggregate(
        rounds, load_golden(args.workload, args.quick, args.seed)
    )
    for problem in summary["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    if traced:
        specs, values = contract["per_layer"], summary.get("per_layer")
        # The contract wants every per-layer metric on every workload; a
        # layer that did not run on this one reads 0.
        metrics = None if values is None else {
            s["name"]: {"value": float(values.get(s["name"], 0.0)), "unit": s["unit"]}
            for s in specs
        }
    else:
        specs, values = contract["end_to_end"], summary["end_to_end"]
        metrics = None if not values else {
            s["name"]: {"value": values[s["name"]]["median"], "unit": s["unit"]}
            for s in specs
        }
    if metrics is None:
        print("no round completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# Ledger mode
# ----------------------------------------------------------------------

def run_ledger(args) -> int:
    contract = load_contract()
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    rounds = args.rounds or (2 if args.quick else DEFAULT_ROUNDS)
    result: Dict[str, object] = {
        "schema": "ledger/1",
        "mode": "quick" if args.quick else "full",
        "seed": args.seed,
        "rounds": rounds,
        "traced": args.traced,
        "provenance": provenance(),
        "workloads": {},
    }
    for name in names:
        trace_out = (
            os.path.join(runner.RESULTS_DIR, f"trace-{name}.jsonl")
            if args.traced else None
        )
        rows = runner.run_rounds(
            name, args.seed, args.quick, args.traced, rounds=rounds,
            trace_out=trace_out,
        )
        summary = runner.aggregate(rows, load_golden(name, args.quick, args.seed))
        result["workloads"][name] = summary
        print_workload(name, summary, contract)
    out = args.out or os.path.join(runner.RESULTS_DIR, "latest.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    with open(os.path.join(runner.RESULTS_DIR, "history.jsonl"), "a",
              encoding="utf-8") as f:
        f.write(json.dumps(history_line(result), sort_keys=True) + "\n")
    print(f"\nresult written to {os.path.relpath(out)}")
    return 0 if all(w["failed"] == 0 for w in result["workloads"].values()) else 1


def history_line(result: Dict[str, object]) -> Dict[str, object]:
    """The trajectory entry: provenance plus every median, no raw rounds."""
    return {
        "schema": result["schema"], "mode": result["mode"],
        "seed": result["seed"], "rounds": result["rounds"],
        "provenance": result["provenance"],
        "workloads": {
            name: {
                "failed_share": w["failed_share"],
                "input_digest": w["input_digest"],
                "end_to_end": {k: v["median"] for k, v in w["end_to_end"].items()},
                "per_layer": w.get("per_layer", {}),
            }
            for name, w in result["workloads"].items()
        },
    }


def print_workload(name: str, summary: Dict[str, object], contract) -> None:
    n = summary["samples_per_round"]
    print(f"\n== {name}: {summary['rounds_run']} rounds "
          f"(+{summary['traced_rounds_run']} traced), {n} latency samples "
          f"per round, failed {summary['failed']}/{summary['attempted']}, "
          f"golden {summary['golden']}")
    for problem in summary["problems"]:
        print(f"   problem: {problem}")
    units = {s["name"]: s for s in contract["end_to_end"]}
    for metric, row in summary["end_to_end"].items():
        spec = units.get(metric, {})
        note = ""
        if metric.startswith("verdict_ms_p"):
            p = float(metric.rsplit("p", 1)[1])
            beyond = stats.samples_beyond(n, p) * len(row["rounds"])
            note = f"  [{beyond} samples beyond over all rounds]"
        print(f"   {metric:<18} {row['median']:>12.4f} {spec.get('unit', ''):<5}"
              f" q1 {row['q1']:.4f} q3 {row['q3']:.4f}"
              f" spread {row['spread'] * 100:5.2f} %"
              f" (bound {spec.get('bound', 0) * 100:.0f} %){note}")
    print(f"   {'failed_share':<18} {summary['failed_share']:>12.4f} ratio")
    best = stats.highest_percentile(n * summary["rounds_run"])
    print(f"   highest percentile with ten samples beyond it: "
          f"p{best:g}" if best else "   too few samples for any percentile")
    layer = summary.get("per_layer")
    if layer:
        units = {s["name"]: s["unit"] for s in contract["per_layer"]}
        print(f"   -- traced round (wall {summary['traced_wall_s']:.3f} s) --")
        for metric, value in layer.items():
            print(f"   {metric:<36} {value:>14.6g} {units.get(metric, '')}")
        wall = summary["traced_wall_s"]
        print("   -- cost stack: self time by span, share of traced wall --")
        for span_name, seconds in sorted(
            summary["self_time_s"].items(), key=lambda kv: -kv[1]
        ):
            if span_name.startswith("bench."):
                continue  # the benchmark's own loop: see bench.unattributed_share
            print(f"   {span_name:<28} {seconds:>9.4f} s {seconds / wall * 100:6.1f} %")


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------

def run_compare(path_a: str, path_b: str) -> int:
    with open(path_a, "r", encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, "r", encoding="utf-8") as f:
        b = json.load(f)
    rows = stats.compare_results(a, b, load_contract()["end_to_end"])
    print(f"{'workload':<8} {'metric':<18} {'status':<11} {'A median':>12} {'B median':>12}")
    for workload, metric, status, med_a, med_b in rows:
        print(f"{workload:<8} {metric:<18} {status:<11} {med_a:>12.4f} {med_b:>12.4f}")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            continue
        status = "unchanged" if wb["failed_share"] <= wa["failed_share"] else "regressed"
        print(f"{name:<8} {'failed_share':<18} {status:<11} "
              f"{wa['failed_share']:>12.4f} {wb['failed_share']:>12.4f}")
        rows.append((name, "failed_share", status, 0, 0))
    return 1 if any(r[2] in ("regressed", "unresolved") for r in rows) else 0


# ----------------------------------------------------------------------

def main(argv: List[str], started: float) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--rounds", type=int, help="rounds per workload (ledger mode)")
    parser.add_argument("--traced", action="store_true",
                        help="add a traced round per round: per-layer table + trace file")
    parser.add_argument("--quick", action="store_true",
                        help="same code paths at sizes that finish in < 30 s in all")
    parser.add_argument("--out", help="result JSON (default results/latest.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--seconds", type=float,
                        help="contract mode: measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 0 = end-to-end metrics, 1 = per-layer")
    parser.add_argument("--round", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run unwinds through spawn_round's finally, which kills
    # the round's process group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.compare:
        return run_compare(*args.compare)
    if importlib.util.find_spec("repro") is None:
        print("the 'repro' package is not importable: run from a full checkout "
              "(run.py adds <checkout>/src itself)", file=sys.stderr)
        return 2
    if args.round:
        return runner.child_main(args.round, started)
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        return run_contract(args)
    return run_ledger(args)
