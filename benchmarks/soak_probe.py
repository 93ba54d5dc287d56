#!/usr/bin/env python3
"""Soak probe: does a long-lived verifier's memory track the rules installed?

``churn``'s recipe (``benchmarks/ledger/workloads.py``: APSP base FIB on
``fabric(4,4,2,2)``, a 384-rule overlay, then steady-state blocks of 2
inserts + 2 withdrawals) driven through ``Flash.ingest`` for 3,000 blocks
instead of 30.  The EC table stays flat, so everything that grows with the
block number is a leak.  Prints, at every 100th block, the writer engine's
node slots (allocated / live / live after the last sweep), sweeps so far,
the action-tree store's nodes, the reports ``deterministic_reports()`` holds,
``ru_maxrss`` and wall; then the share of wall spent sweeping and a digest
of the per-block verdict lines + final model, which must not differ
between two commits.

    python benchmarks/soak_probe.py [--blocks 3000] [--seed 7] [--every 100]

Not a test (≈ 12 s for 3,000 blocks, ≈ 3.5 s for 1,000, on a 2-core
Xeon) and not a ledger row: it is the recipe ROADMAP item
7(b)'s ``soak`` row can adopt.  ``tests/test_soak.py`` holds a tier-1-sized
version of the same run.  Runs unchanged on any commit that has the ledger.
"""

import argparse
import os
import resource
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from benchmarks.ledger.workloads import (  # noqa: E402 - needs the paths above
    FULL,
    churn_inputs,
    digest,
    group_per_device,
    model_lines,
    verdict_line,
)
from repro.flash import Flash  # noqa: E402
from repro.headerspace.fields import dst_only_layout  # noqa: E402
from repro.network import generators  # noqa: E402


def soak(seed, fabric, dst, overlay, blocks, per_block):
    """Run ``churn``'s recipe at the given sizes (the keys of a ledger size
    row); after each steady-state block yield ``(block number, the Flash,
    its writer engine's node store, that block's reports)``."""
    topology = generators.fabric(*fabric)
    layout = dst_only_layout(dst)
    base, fill, stream = churn_inputs(
        seed, topology, layout, overlay, blocks, per_block
    )
    flash = Flash(topology, layout, check_loops=True)

    def feed(updates):
        reports = []
        for device, batch in group_per_device(updates).items():
            reports = flash.ingest(device, batch, epoch="churn")
        return reports

    flash.verify_offline(base, epoch="churn")
    feed(fill)
    bdd = flash.trunk.members[0].manager.engine.bdd
    for i, block in enumerate(stream, 1):
        yield i, flash, bdd, feed(block)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--blocks", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--every", type=int, default=100)
    args = parser.parse_args(argv)
    size = {**FULL["churn"], "blocks": args.blocks}

    print(f"# seed {args.seed}, {args.blocks} blocks of "
          f"{2 * size['per_block']} updates, {size['overlay']} overlay rules")
    print("block  ecs  slots  live  live_after_sweep  sweeps  pat_nodes  "
          "reports_held  rss_mb  wall_s")
    verdicts = []
    worst_ratio = 0.0
    started = time.perf_counter()
    for i, flash, bdd, reports in soak(args.seed, **size):
        verdicts.append(verdict_line(reports))
        if i % args.every == 0 or i == args.blocks:
            stats = bdd.stats
            store = flash.trunk.members[0].manager.store
            if stats.gc_runs:
                worst_ratio = max(worst_ratio, bdd.num_nodes / stats.gc_last_live)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"{i:5d}  {flash.read_view().num_ecs():3d}  {bdd.num_nodes:6d}  "
                  f"{bdd.live_node_count:6d}  {stats.gc_last_live:6d}  "
                  f"{stats.gc_runs:4d}  {store.num_nodes:7d}  "
                  f"{len(flash.deterministic_reports()):6d}  {rss:6.1f}  "
                  f"{time.perf_counter() - started:6.1f}")
    wall = time.perf_counter() - started
    stats = bdd.stats
    print(f"# sweeps {stats.gc_runs}, freed {stats.gc_freed}, "
          f"gc_s {stats.gc_seconds:.3f} = {100 * stats.gc_seconds / wall:.2f} % "
          f"of {wall:.1f} s wall; worst slots / live-after-sweep "
          f"{worst_ratio:.2f}")
    print(f"# output digest {digest(verdicts + model_lines([flash.read_view()]))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
