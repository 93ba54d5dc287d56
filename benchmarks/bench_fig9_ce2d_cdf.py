"""Figure 9 — CE2D report time under long-tail arrivals (CDF over trials).

Two settings with loops:

* **I2-OpenR/1buggy-loop-lt** — one random switch runs a buggy OpenR
  decision module; one random switch dampens its FIB updates by 60 s;
* **I2-trace-loop-lt** — a crafted loop in the update trace itself, again
  with one dampened switch.

The paper's result: Flash detects the loop consistently in well under a
second for most trials — two orders of magnitude before the 60 s baseline
of waiting for the dampened switch.
"""

from __future__ import annotations

import random
from typing import List, Optional

import pytest

from repro.results import Verdict
from repro.flash import Flash
from repro.headerspace.fields import dst_only_layout
from repro.network.generators import internet2
from repro.routing.openr import OpenRSimulation

from .harness import save_json

LAYOUT = dst_only_layout(8)
TRIALS = 20
DAMPEN_SECONDS = 60.0


def run_openr_buggy_trial(seed: int) -> Optional[float]:
    """One I2-OpenR/1buggy-loop-lt trial; returns the loop report time."""
    topo = internet2()
    rng = random.Random(seed)
    switches = topo.switches()
    buggy = rng.choice(switches)
    dampened = rng.choice([s for s in switches if s != buggy])
    sim = OpenRSimulation(
        topo,
        LAYOUT,
        buggy_nodes=[buggy],
        dampening={dampened: DAMPEN_SECONDS},
        seed=seed,
    )
    flash = Flash(topo, LAYOUT, check_loops=True)
    reports = []
    sim.add_collector(
        lambda when, device, tag, updates: reports.extend(
            flash.receive(device, tag, updates, now=when)
        )
    )
    sim.bootstrap()
    sim.run()
    loops = [r for r in reports if r.verdict is Verdict.VIOLATED]
    return min(r.time for r in loops) if loops else None


def run_trace_trial(seed: int) -> Optional[float]:
    """One I2-trace-loop-lt trial: a loop injected into a correct trace.

    A random victim switch has one rule corrupted to point at a neighbor
    whose own (correct) route for that prefix points back at the victim —
    a deterministic 2-loop.  One random switch is dampened by 60 s.
    """
    topo = internet2()
    rng = random.Random(seed ^ 0xF00D)
    switches = topo.switches()
    sim = OpenRSimulation(topo, LAYOUT, seed=seed)
    sim.bootstrap()
    sim.run()
    batches = list(sim.batches)
    # Find a (victim, dest, neighbor) triple where neighbor routes the dest
    # through the victim; corrupt the victim's rule to point at neighbor.
    candidates = []
    for victim in switches:
        for dest, rule in sim.nodes[victim].fib.items():
            for neighbor in topo.neighbors(victim):
                if topo.device(neighbor).is_external:
                    continue
                back = sim.nodes[neighbor].fib.get(dest)
                if back is not None and back.action == victim:
                    candidates.append((victim, dest, neighbor))
    victim, dest, neighbor = candidates[rng.randrange(len(candidates))]
    dampened = rng.choice([s for s in switches if s != victim])
    corrupted = []
    for b in batches:
        updates = list(b.updates)
        if b.device == victim:
            for i, u in enumerate(updates):
                if u.is_insert and u.rule == sim.nodes[victim].fib[dest]:
                    bad = type(u.rule)(u.rule.priority, u.rule.match, neighbor)
                    updates[i] = type(u)(u.op, u.device, bad, u.epoch)
        corrupted.append((b.device, b.tag, updates))
    flash = Flash(topo, LAYOUT, check_loops=True)
    reports = []
    for i, (device, tag, updates) in enumerate(corrupted):
        when = i * 0.01 + (DAMPEN_SECONDS if device == dampened else 0.0)
        reports += flash.receive(device, tag, updates, now=when)
    loops = [r for r in reports if r.verdict is Verdict.VIOLATED]
    return min(r.time for r in loops) if loops else None


EARLY_CUTOFF = 1.0  # seconds; far below the 60 s dampening baseline


def _cdf_summary(times: List[Optional[float]]) -> dict:
    detected = sorted(t for t in times if t is not None)
    early = [t for t in detected if t < EARLY_CUTOFF]
    return {
        "trials": len(times),
        "detected": len(detected),
        "early_detected": len(early),
        "fraction_early": len(early) / len(times) if times else 0.0,
        "times": detected,
        "median_early": early[len(early) // 2] if early else None,
    }


def bench_fig9_ce2d_report_time(benchmark):
    results = {}

    def run():
        results["openr"] = _cdf_summary(
            [run_openr_buggy_trial(seed) for seed in range(TRIALS)]
        )
        results["trace"] = _cdf_summary(
            [run_trace_trial(seed) for seed in range(TRIALS)]
        )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Figure 9 — CE2D report time CDF (long-tail, 60 s dampening) ===")
    for name, summary in results.items():
        label = (
            "I2-OpenR/1buggy-loop-lt" if name == "openr" else "I2-trace-loop-lt"
        )
        print(
            f"{label}: {summary['early_detected']}/{summary['trials']} trials "
            f"detected early (fraction {summary['fraction_early']:.2f}), "
            f"median early time {summary['median_early']}"
        )
    save_json("fig9_cdf", results)
    # Paper shape: a large fraction of trials (68%/100% in the paper) detect
    # the loop far below the 60 s dampening baseline.
    assert results["openr"]["fraction_early"] >= 0.5
    assert results["trace"]["fraction_early"] >= 0.5
    if results["openr"]["median_early"] is not None:
        assert results["openr"]["median_early"] < DAMPEN_SECONDS / 60
