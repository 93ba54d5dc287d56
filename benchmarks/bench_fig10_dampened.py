"""Figure 10 — early loop detection vs number of dampened switches.

The I2-trace-loop-lt setting with D ∈ {1..7} dampened devices, multiple
random trials per D.  The paper's shape: early detection stays likely
(>90%) for D ≤ 3 and degrades as most of the network goes dark (~20% at
D = 7, i.e. 7/9 of the switches dampened).
"""

from __future__ import annotations

import random
from typing import Optional

import pytest

from repro.results import Verdict
from repro.flash import Flash
from repro.headerspace.fields import dst_only_layout
from repro.network.generators import internet2
from repro.routing.openr import OpenRSimulation

from .harness import save_json

LAYOUT = dst_only_layout(8)
TRIALS_PER_D = 12
DAMPEN_SECONDS = 60.0
EARLY_CUTOFF = 1.0  # anything below this is "early" vs the 60 s tail


def run_trial(seed: int, num_dampened: int) -> Optional[float]:
    topo = internet2()
    rng = random.Random(seed)
    switches = topo.switches()
    # Deterministically corrupt one switch into a 2-loop (see Figure 9).
    sim = OpenRSimulation(topo, LAYOUT, seed=seed)
    sim.bootstrap()
    sim.run()
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
    dampened = set(
        rng.sample([s for s in switches if s != victim], num_dampened)
    )
    flash = Flash(topo, LAYOUT, check_loops=True)
    reports = []
    for i, b in enumerate(sim.batches):
        updates = list(b.updates)
        if b.device == victim:
            for j, u in enumerate(updates):
                if u.is_insert and u.rule == sim.nodes[victim].fib[dest]:
                    bad = type(u.rule)(u.rule.priority, u.rule.match, neighbor)
                    updates[j] = type(u)(u.op, u.device, bad, u.epoch)
        when = i * 0.01 + (DAMPEN_SECONDS if b.device in dampened else 0.0)
        reports += flash.receive(b.device, b.tag, updates, now=when)
    loops = [r for r in reports if r.verdict is Verdict.VIOLATED]
    return min(r.time for r in loops) if loops else None


def bench_fig10_dampened_switches(benchmark):
    series = {}

    def run():
        series.clear()
        for d in range(1, 8):
            times = [
                run_trial(seed * 31 + d, d) for seed in range(TRIALS_PER_D)
            ]
            early = [t for t in times if t is not None and t < EARLY_CUTOFF]
            series[d] = {
                "trials": len(times),
                "early": len(early),
                "fraction": len(early) / len(times),
            }
        return series

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Figure 10 — early detection vs dampened switches D ===")
    print(f"{'D':>3} {'early/trials':>14} {'fraction':>9}")
    for d, row in series.items():
        print(f"{d:>3} {row['early']}/{row['trials']:>10} {row['fraction']:>9.2f}")
    save_json("fig10_dampened", series)
    # Shape assertions: detection probability decreases with D, and few
    # dampened switches rarely block early detection.
    assert series[1]["fraction"] >= series[7]["fraction"]
    assert series[1]["fraction"] >= 0.5
