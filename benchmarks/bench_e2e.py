"""End-to-end model-update benchmark and regression gate (``BENCH_flash.json``).

This harness gates what the paper actually reports: *model update* time
through the whole Fast IMT stack — map → reduce → apply on a real
:class:`~repro.core.model_manager.ModelWriter` — comparing the
support-pruned single-traversal apply path against the retained reference
cross product (``InverseModel.fast_apply = False``).

Settings
--------
* ``fattree_churn`` — the headline: a fat-tree fabric with its full APSP
  FIB installed, then a long stream of churn blocks, each installing and
  withdrawing bursts of more-specific prefixes with alternate next hops.
  Each block touches a handful of prefixes while the EC table carries
  the accumulated state of every earlier block, so most ECs are disjoint
  from each block's support — exactly the Delta-net-style locality the
  fast path exploits (watch ``mr2.apply.ecs_skipped``).
* ``lnet_block_storm`` — an LNet-like suffix-routing FIB driven in as
  fixed-size update blocks (the paper's Figure-6 storm shape): fewer,
  fatter blocks whose supports are wide, so the win comes mostly from
  the single-traversal ``split`` rather than pruning.
* ``per_update`` — ``block_threshold=1`` with aggregation off (the
  paper's per-update mode).  Single-overwrite blocks can't be pruned,
  so this setting is the honesty guard: the fast path must not regress
  where its optimisations have nothing to bite on.

Methodology
-----------
Reference and fast paths run *interleaved* within each round on CPU time
(``time.process_time``); the reported speedup is the median of per-round
ratios.  The timed region covers churn/storm processing only (the
identical base-FIB install is untimed).  Every round also extracts both
final models into a semantic canonical form — sorted (EC cardinality,
action map) pairs — and asserts they are identical, so each measurement
doubles as an equivalence check.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_e2e.py              # full run
    PYTHONPATH=src python benchmarks/bench_e2e.py --quick      # CI smoke
    PYTHONPATH=src python benchmarks/bench_e2e.py --check      # regression gate

``--check`` compares against the committed ``BENCH_flash.json``: any
setting dropping more than 25% below its baseline speedup fails, and on
full runs ``fattree_churn`` must clear the 1.5x acceptance floor while no
setting may fall below 0.9x (a >10% end-to-end regression).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.model_manager import ModelWriter
from repro.dataplane.rule import Rule
from repro.dataplane.trace import inserts_only
from repro.dataplane.update import RuleUpdate, delete, insert
from repro.fibgen.shortest_path import std_fib
from repro.fibgen.suffix import std_fib_suffix
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match
from repro.network.generators import fabric

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_flash.json"
)

#: Per-setting speedup must stay above ``baseline * (1 - TOLERANCE)``.
TOLERANCE = 0.25
#: Acceptance floor for the headline churn setting (full runs).
HEADLINE = "fattree_churn"
HEADLINE_FLOOR = 1.5
#: No setting may regress the end-to-end path by more than 10% (full runs).
ABSOLUTE_FLOOR = 0.9


# ----------------------------------------------------------------------
# Workload construction.  Each setting builds (devices, layout, base
# updates, churn blocks, manager kwargs) once per (seed, mode); both the
# reference and the fast run then replay identical streams.
# ----------------------------------------------------------------------

class Workload:
    def __init__(
        self,
        devices: Sequence[int],
        layout,
        base: Sequence[RuleUpdate],
        blocks: Sequence[Sequence[RuleUpdate]],
        manager_kwargs: Dict[str, object],
    ) -> None:
        self.devices = list(devices)
        self.layout = layout
        self.base = list(base)
        self.blocks = [list(b) for b in blocks]
        self.manager_kwargs = dict(manager_kwargs)

    @property
    def num_updates(self) -> int:
        return sum(len(b) for b in self.blocks)


def _churn_blocks(
    rng: random.Random,
    devices: Sequence[int],
    layout,
    n_blocks: int,
    inserts_per_block: int,
    overlay_cap: int,
) -> List[List[RuleUpdate]]:
    """Install-and-withdraw bursts of more-specific prefixes.

    Each block inserts ``inserts_per_block`` fresh high-priority rules on
    random switches; once more than ``overlay_cap`` overlay rules are
    live, the oldest are withdrawn in the same block — steady-state
    churn over a bounded but sizeable live overlay, which is what keeps
    the EC table large enough to resemble a real network's.
    """
    width = layout.field("dst").width
    installed: List[Tuple[int, Rule]] = []
    blocks: List[List[RuleUpdate]] = []
    for _ in range(n_blocks):
        block: List[RuleUpdate] = []
        for _ in range(inserts_per_block):
            plen = rng.randint(width - 4, width)
            value = rng.getrandbits(width)
            match = Match.dst_prefix(value, plen, layout)
            dev = rng.choice(devices)
            action = rng.choice(devices)
            rule = Rule(10_000 + plen, match, action)
            block.append(insert(dev, rule))
            installed.append((dev, rule))
        while len(installed) > overlay_cap:
            dev, rule = installed.pop(0)
            block.append(delete(dev, rule))
        blocks.append(block)
    return blocks


def _wl_fattree_churn(seed: int, quick: bool) -> Workload:
    rng = random.Random(seed)
    topo = fabric(4, 4, 2, 2)
    layout = dst_only_layout(12)
    base = inserts_only(std_fib(topo, layout))
    devices = topo.switches()
    n_blocks = 10 if quick else 20
    per_block = 16 if quick else 24
    blocks = _churn_blocks(
        rng, devices, layout, n_blocks, per_block, per_block * 16
    )
    return Workload(devices, layout, base, blocks, {})


def _wl_lnet_block_storm(seed: int, quick: bool) -> Workload:
    rng = random.Random(seed)
    topo = fabric(4, 4, 2, 2)
    layout = dst_only_layout(10)
    storm = inserts_only(std_fib_suffix(topo, layout, suffix_bits=2))
    rng.shuffle(storm)
    if quick:
        storm = storm[: len(storm) // 2]
    block_size = 256
    blocks = [
        storm[i: i + block_size] for i in range(0, len(storm), block_size)
    ]
    return Workload(topo.switches(), layout, [], blocks, {})


def _wl_per_update(seed: int, quick: bool) -> Workload:
    rng = random.Random(seed)
    topo = fabric(2, 2, 2, 2)
    layout = dst_only_layout(8)
    base = inserts_only(std_fib(topo, layout))
    devices = topo.switches()
    n_blocks = 40 if quick else 120
    blocks = _churn_blocks(rng, devices, layout, n_blocks, 1, 4)
    return Workload(
        devices,
        layout,
        base,
        blocks,
        {"block_threshold": 1, "aggregate": False},
    )


SETTINGS = {
    HEADLINE: _wl_fattree_churn,
    "lnet_block_storm": _wl_lnet_block_storm,
    "per_update": _wl_per_update,
}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def _canonical_model(manager: ModelWriter) -> List[Tuple[int, str]]:
    """Engine-independent semantic form of the final EC table."""
    rows = []
    for pred, vec in manager.model.entries():
        actions = sorted(manager.store.to_dict(vec).items())
        rows.append((pred.sat_count(), repr(actions)))
    rows.sort()
    return rows


def _run_once(workload: Workload, fast: bool):
    manager = ModelWriter(
        workload.devices, workload.layout, **workload.manager_kwargs
    )
    manager.model.fast_apply = fast
    if workload.base:
        manager.submit(workload.base)
        manager.flush()
    t0 = time.process_time()
    for block in workload.blocks:
        manager.submit(block)
        manager.flush()
    dt = time.process_time() - t0
    return dt, _canonical_model(manager), manager


def bench_setting(
    name: str, seed: int, quick: bool, rounds: int
) -> Dict[str, object]:
    workload = SETTINGS[name](seed, quick)
    ratios: List[float] = []
    ref_times: List[float] = []
    fast_times: List[float] = []
    fast_manager = None
    for _ in range(rounds):
        ref_dt, ref_model, _ = _run_once(workload, fast=False)
        fast_dt, fast_model, fast_manager = _run_once(workload, fast=True)
        if ref_model != fast_model:
            raise AssertionError(
                f"{name}: reference and fast apply paths diverge "
                f"({len(ref_model)} vs {len(fast_model)} ECs)"
            )
        ref_times.append(ref_dt)
        fast_times.append(fast_dt)
        ratios.append(ref_dt / fast_dt if fast_dt else float("inf"))
    registry = fast_manager.telemetry.registry
    registry.collect()
    return {
        "rounds": rounds,
        "devices": len(workload.devices),
        "blocks": len(workload.blocks),
        "updates": workload.num_updates,
        "final_ecs": fast_manager.num_ecs(),
        "ref_seconds_median": statistics.median(ref_times),
        "fast_seconds_median": statistics.median(fast_times),
        "speedup": statistics.median(ratios),
        "ecs_skipped": int(registry.value("mr2.apply.ecs_skipped")),
        "split_calls": int(registry.value("bdd.split.calls")),
        "split_cache_hits": int(registry.value("bdd.split.cache_hits")),
        "apply_seconds": registry.value("span.mr2.apply.seconds"),
        "predicate_ops": fast_manager.engine.metrics.total,
    }


def run_suite(quick: bool, seed: int) -> Dict[str, object]:
    rounds = 3 if quick else 5
    report: Dict[str, object] = {
        "seed": seed,
        "mode": "quick" if quick else "full",
        "python": sys.version.split()[0],
        "settings": {},
    }
    for name in SETTINGS:
        row = bench_setting(name, seed, quick, rounds)
        report["settings"][name] = row
        print(
            f"{name:<18} blocks={row['blocks']:<4} "
            f"updates={row['updates']:<6} ecs={row['final_ecs']:<5} "
            f"ref={row['ref_seconds_median']*1e3:8.1f}ms "
            f"fast={row['fast_seconds_median']*1e3:8.1f}ms "
            f"speedup={row['speedup']:5.2f}x "
            f"skipped={row['ecs_skipped']}"
        )
    return report


def check_against_baseline(
    report: Dict[str, object], baseline_path: str
) -> List[str]:
    """Failures comparing ``report`` against its mode's committed section.

    Like the micro gate, what is gated is the reference/fast ratio
    measured in one process on one machine, so the check transfers
    across runner hardware.  The 1.5x headline floor and the 0.9x
    no-regression floor apply to full-size runs only; quick/CI sizes
    gate relative drift against the quick baseline.
    """
    failures: List[str] = []
    try:
        with open(baseline_path, "r", encoding="utf-8") as f:
            baseline = json.load(f)
    except FileNotFoundError:
        return [f"baseline file not found: {baseline_path}"]
    mode = report["mode"]
    base_section = baseline.get("modes", {}).get(mode)
    if base_section is None:
        return [f"baseline has no {mode!r} section: {baseline_path}"]
    base_settings = base_section.get("settings", {})
    for name, row in report["settings"].items():
        base = base_settings.get(name)
        if base is None:
            continue
        current = row["speedup"]
        floor = base["speedup"] * (1.0 - TOLERANCE)
        if current < floor:
            failures.append(
                f"{name}: speedup {current:.2f}x regressed >25% below "
                f"baseline {base['speedup']:.2f}x (floor {floor:.2f}x)"
            )
    if mode == "full":
        headline = report["settings"].get(HEADLINE)
        if headline and headline["speedup"] < HEADLINE_FLOOR:
            failures.append(
                f"{HEADLINE}: speedup {headline['speedup']:.2f}x is below "
                f"the {HEADLINE_FLOOR:.1f}x acceptance floor"
            )
        for name, row in report["settings"].items():
            if row["speedup"] < ABSOLUTE_FLOOR:
                failures.append(
                    f"{name}: fast path is {row['speedup']:.2f}x — an "
                    f"end-to-end regression beyond the "
                    f"{ABSOLUTE_FLOOR:.1f}x floor"
                )
    return failures


def merge_into_baseline(report: Dict[str, object], path: str) -> None:
    """Write ``report`` under its mode key, preserving the other mode."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except (FileNotFoundError, ValueError):
        payload = {}
    payload.setdefault("schema", "bench_flash/1")
    payload.setdefault("modes", {})[report["mode"]] = report
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument(
        "--output",
        default=None,
        help="merge the JSON report into this baseline file (default: "
        "BENCH_flash.json at the repo root when not in --check mode)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline and exit 1 on >25% "
        "speedup regression (plus 1.5x headline / 0.9x absolute floors "
        "on full runs)",
    )
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    args = parser.parse_args(argv)

    report = run_suite(args.quick, args.seed)

    output = args.output
    if output is None and not args.check:
        output = DEFAULT_BASELINE
    if output:
        merge_into_baseline(report, output)
        print(f"wrote {output}")

    if args.check:
        failures = check_against_baseline(report, args.baseline)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("regression check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
