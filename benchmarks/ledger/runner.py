"""Rounds: one fresh interpreter each, in its own process group, on a deadline.

The parent (:func:`spawn_round`) starts ``run.py --round <spec>`` as a
session leader, waits for its one JSON line and kills the whole group if
the deadline passes — a wedged round is reported as failed, never waited
for.  The child (:func:`child_main`) runs set-up → timed region →
correctness checks for one workload and, when asked, installs the span
wrappers around the timed region.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import calibration, stats

HERE = os.path.dirname(os.path.abspath(__file__))
ENTRY = os.path.join(HERE, "run.py")
WORK_ROOT = os.path.join(HERE, ".work")
RESULTS_DIR = os.path.join(HERE, "results")

#: Expected seconds of one whole round (start-up + set-up + timed region +
#: checks) on the 2-core sandbox; the deadline is ten times this.
EXPECTED_ROUND_S = {"storm": 4.0, "churn": 4.5, "epochs": 4.5, "serve": 6.5}
DEADLINE_FACTOR = 10.0


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------

def child_main(spec_json: str, started: float) -> int:
    """Run one round and print its result as one JSON line."""
    spec = json.loads(spec_json)
    result = run_round(spec, started)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


def run_round(spec: Dict[str, object], started: float) -> Dict[str, object]:
    setup_calibrator = calibration.Calibrator()
    setup_calibrator.sample(passes=3)
    from . import layers, spans, workloads  # imports repro: part of set-up

    traced = bool(spec["traced"])
    recorder = spans.Recorder() if traced else None
    counts = layers.install(recorder) if traced else None
    cls = workloads.WORKLOADS[spec["workload"]]
    workload = cls(spec["seed"], bool(spec["quick"]), spec["workdir"], recorder)
    try:
        workload.setup()
        gc.collect()
        if traced:
            counters_before = workload.counters()
            engines_before = counts.engine_totals()
            counts.counting = recorder.enabled = True
        setup_calibrator.sample(passes=5)
        region = workload.calibrator
        region.seed(setup_calibrator.samples[-1])
        t0 = time.perf_counter()
        if traced:
            with recorder.span("bench.timed"):
                workload.timed()
        else:
            workload.timed()
        t1 = time.perf_counter()
        wall = workload.wall_seconds(t1 - t0)
        region.sample(passes=5)
        if traced:
            counts.counting = recorder.enabled = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, problems = workload.verify()
        result: Dict[str, object] = {
            "workload": workload.name,
            "seed": workload.seed,
            "traced": traced,
            "setup_s": t0 - started - setup_calibrator.spent,
            "setup_pass_s": setup_calibrator.pass_seconds(),
            "wall_s": wall,
            "region_pass_s": region.pass_seconds(),
            "updates": workload.updates,
            "latencies_ms": [s * 1e3 for s in workload.latencies],
            "peak_rss_mb": peak_rss_mb,
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:20],
            "input_digest": workload.input_digest,
            "output_digest": workload.output_digest,
        }
        if traced:
            after = workload.counters()
            delta = {k: v - counters_before.get(k, 0) for k, v in after.items()}
            scale = calibration.scale(region.pass_seconds())
            self_time = spans.self_time_by_name(recorder.spans)
            result["per_layer"] = {
                name: value * scale if name.endswith("_s") else value
                for name, value in layers.layer_metrics(
                    recorder.spans, self_time, t0, t1, engines_before,
                    counts.engine_totals(), delta, counts, workload.facts(),
                ).items()
            }
            result["self_time_s"] = {
                name: seconds * scale for name, seconds in self_time.items()
            }
            if spec.get("trace_out"):
                write_trace(spec["trace_out"], spec, recorder.spans, t0, result)
        return result
    finally:
        workload.close()
        if recorder is not None:
            recorder.unpatch()


def write_trace(path: str, spec, span_list, t0: float, result) -> None:
    """One header line, then one ``[id, parent, name, thread, op, start, end]``
    line per span (seconds since the timed region began)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({
            "workload": spec["workload"], "seed": spec["seed"],
            "quick": spec["quick"], "wall_s": result["wall_s"],
            "speed_scale": calibration.scale(result["region_pass_s"]),
            "columns": ["id", "parent", "name", "thread", "op", "start_s", "end_s"],
            "per_layer": result["per_layer"],
        }) + "\n")
        for s in span_list:
            f.write(json.dumps(
                [s.id, s.parent, s.name, s.thread, s.op,
                 round(s.start - t0, 7), round(s.end - t0, 7)]
            ) + "\n")


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

_round_serial = 0


def spawn_round(
    workload: str, seed: int, quick: bool, traced: bool,
    deadline_s: Optional[float] = None, trace_out: Optional[str] = None,
) -> Dict[str, object]:
    """One round in a fresh interpreter; never raises, never hangs.

    A failed round (non-zero exit, no JSON, deadline) comes back as
    ``{"error": ...}``.
    """
    global _round_serial
    _round_serial += 1
    if deadline_s is None:
        deadline_s = DEADLINE_FACTOR * EXPECTED_ROUND_S[workload]
    workdir = os.path.join(WORK_ROOT, f"{os.getpid()}-{_round_serial}")
    os.makedirs(workdir, exist_ok=True)
    spec = json.dumps({
        "workload": workload, "seed": seed, "quick": quick, "traced": traced,
        "workdir": workdir, "trace_out": trace_out,
    })
    proc = subprocess.Popen(
        [sys.executable, ENTRY, "--round", spec],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # own process group: kill reaches grandchildren
    )
    try:
        try:
            out, err = proc.communicate(timeout=deadline_s)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            proc.communicate()
            return {"error": f"deadline of {deadline_s:.0f} s passed; group killed"}
        if proc.returncode != 0:
            _kill_group(proc)  # the leader is gone; reap any stragglers
            return {"error": f"exit {proc.returncode}: {err.strip()[-400:]}"}
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return {"error": f"no result line; stderr: {err.strip()[-400:]}"}
    finally:
        if proc.poll() is None:  # interrupted while waiting: leave no orphan
            _kill_group(proc)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # other rounds' directories are still there


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_rounds(
    workload: str, seed: int, quick: bool, traced: bool,
    rounds: Optional[int] = None, seconds: Optional[float] = None,
    trace_out: Optional[str] = None,
) -> List[Dict[str, object]]:
    """``rounds`` rounds, or as many as fit in ``seconds`` (at least one).

    With ``traced`` every iteration is a pair — one untraced round, then
    one traced — so the tracing overhead is a ratio of like with like.
    """
    began = time.perf_counter()
    out: List[Dict[str, object]] = []
    iteration_costs: List[float] = []
    while True:
        t = time.perf_counter()
        out.append(spawn_round(workload, seed, quick, traced=False))
        if traced:
            out.append(spawn_round(workload, seed, quick, traced=True,
                                   trace_out=trace_out))
        iteration_costs.append(time.perf_counter() - t)
        if rounds is not None:
            if len(iteration_costs) >= rounds:
                return out
        else:
            elapsed = time.perf_counter() - began
            if elapsed + statistics.median(iteration_costs) > seconds:
                return out


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def round_metrics(r: Dict[str, object]) -> Dict[str, float]:
    """The end-to-end values of one successful untraced round, every time
    scaled to the reference speed (see :mod:`calibration`)."""
    lat = r["latencies_ms"]
    scale = calibration.scale(r["region_pass_s"])
    wall = r["wall_s"] * scale
    return {
        "setup_s": r["setup_s"] * calibration.scale(r["setup_pass_s"]),
        "wall_s": wall,
        "updates_per_s": r["updates"] / wall,
        "verdicts_per_s": len(lat) / wall,
        "verdict_ms_p50": stats.percentile(lat, 50) * scale,
        "verdict_ms_p90": stats.percentile(lat, 90) * scale,
        "peak_rss_mb": r["peak_rss_mb"],
    }


def aggregate(
    rounds: List[Dict[str, object]], golden: Optional[Dict[str, str]] = None
) -> Dict[str, object]:
    """Fold one workload's rounds into medians, failures and the layer table.

    End-to-end values come from untraced rounds only.  ``golden`` (input
    and output digests for this seed and mode) turns a silent change of
    the generated inputs or of the verified outputs into failures.
    """
    ok = [r for r in rounds if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    problems: List[str] = [r["error"] for r in rounds if "error" in r]
    typical = int(statistics.median(r["attempted"] for r in ok)) if ok else 1
    attempted = failed = 0
    digests = {(r["input_digest"], r["output_digest"]) for r in ok}
    consistent = len(digests) <= 1
    if not consistent:
        problems.append(f"rounds disagree on their digests: {sorted(digests)}")
    golden_state = "absent"
    if golden is not None and ok:
        golden_state = "match"
        for key in ("input_digest", "output_digest"):
            if any(r[key] != golden[key] for r in ok):
                golden_state = "MISMATCH"
                problems.append(f"{key} differs from the golden value {golden[key]}")
    for r in rounds:
        if "error" in r:
            attempted += typical
            failed += typical
            continue
        attempted += r["attempted"]
        bad = not consistent or golden_state == "MISMATCH"
        failed += r["attempted"] if bad else r["failed"]
        problems += r["problems"]
    out: Dict[str, object] = {
        "rounds_run": len(rounds) - len(traced),
        "traced_rounds_run": len(traced),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "golden": golden_state,
        "problems": problems[:20],
        "input_digest": ok[0]["input_digest"] if ok else None,
        "output_digest": ok[0]["output_digest"] if ok else None,
        "samples_per_round": len(plain[0]["latencies_ms"]) if plain else 0,
        "end_to_end": {},
    }
    if plain:
        per_round = [round_metrics(r) for r in plain]
        out["end_to_end"] = {
            name: stats.summarize([m[name] for m in per_round])
            for name in per_round[0]
        }
    if traced:
        layer: Dict[str, float] = {}
        names = sorted({n for r in traced for n in r["per_layer"]})
        for name in names:
            values = [r["per_layer"][name] for r in traced if name in r["per_layer"]]
            layer[name] = statistics.median(values)
        lat = [
            v * calibration.scale(r["region_pass_s"])
            for r in traced for v in r["latencies_ms"]
        ]
        if stats.samples_beyond(len(lat), 99) >= stats.MIN_SAMPLES_BEYOND:
            layer["bench.verdict_ms_p99"] = stats.percentile(lat, 99)
        traced_wall = statistics.median(round_metrics(r)["wall_s"] for r in traced)
        if plain:
            layer["bench.trace_overhead_ratio"] = (
                traced_wall / out["end_to_end"]["wall_s"]["median"]
            )
        out["per_layer"] = layer
        stack_names = sorted({n for r in traced for n in r["self_time_s"]})
        out["self_time_s"] = {
            n: statistics.median(r["self_time_s"].get(n, 0.0) for r in traced)
            for n in stack_names
        }
        out["traced_wall_s"] = traced_wall
    return out
