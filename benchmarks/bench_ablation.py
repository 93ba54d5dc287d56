"""Ablation studies for the design choices DESIGN.md calls out.

1. **PAT vs array vectors** — §3.4/§5.4: hash-consed persistent treap
   vectors vs interned O(N)-copy tuples, isolated inside the same Fast IMT
   pipeline.
2. **MR2 aggregation on/off** — Reduce I/II vs applying atomic overwrites
   one by one (the "Flash (per-update mode)" of Figure 11, here on a storm).
3. **Overlapped-rule trie on/off** — APKeep*'s per-update change
   computation with the §3.4 prefix trie vs a full-table scan.  Flash
   has no such switch: its one Map path skips non-overlapping rules by
   cofactor signature (``repro.core.imt._carve``).
"""

from __future__ import annotations

import time

import pytest

from repro.baselines.apkeep import APKeepVerifier
from repro.core.arraystore import ArrayActionStore
from repro.core.model_manager import ModelWriter

from .harness import save_json
from .settings import lnet_apsp, lnet_ecmp


def bench_ablation_pat_vs_array(benchmark):
    """PAT's structural sharing vs O(N) tuple copies, same pipeline."""
    setting = lnet_apsp()
    updates = setting.storm_updates()
    results = {}

    def run():
        for label, store in (("pat", None), ("array", ArrayActionStore())):
            manager = ModelWriter(
                setting.topology.switches(), setting.layout, store=store
            )
            start = time.perf_counter()
            manager.submit(updates)
            manager.flush()
            results[label] = {
                "seconds": time.perf_counter() - start,
                "store_nodes": manager.store.num_nodes,
                "ecs": manager.num_ecs(),
            }
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Ablation — PAT vs array action vectors ===")
    for label, r in results.items():
        print(
            f"{label:<7} {r['seconds']:.3f}s  store nodes {r['store_nodes']:>7}  "
            f"ECs {r['ecs']}"
        )
    save_json("ablation_pat", results)
    # Same semantics either way.
    assert results["pat"]["ecs"] == results["array"]["ecs"]
    # PAT's node count grows with touched paths, the array store's with
    # whole-vector copies; at equal semantics PAT shares more.
    devices = len(setting.topology.switches())
    assert results["pat"]["store_nodes"] <= results["array"]["store_nodes"] * devices


def bench_ablation_pat_scaling(benchmark):
    """Store-level scaling: single-device overwrites on N-device vectors.

    This isolates §3.4's complexity claim — O(‖y*‖·lg N) per overwrite for
    PAT vs O(N) for arrays — without the pipeline around it.  The paper's
    §5.4 observes the effect only on large networks; the measured crossover
    confirms why.
    """
    import random

    from repro.core.actiontree import ActionTreeStore

    OVERWRITES = 2000
    sizes = [32, 256, 2048]
    table = {}

    def run():
        for n in sizes:
            devices = list(range(n))
            rng = random.Random(7)
            ops = [(rng.randrange(n), rng.randrange(8)) for _ in range(OVERWRITES)]
            row = {}
            for label, store in (
                ("pat", ActionTreeStore()),
                ("array", ArrayActionStore()),
            ):
                root = store.uniform(devices, 0)
                start = time.perf_counter()
                for device, action in ops:
                    root = store.overwrite(root, {device: action})
                row[label] = time.perf_counter() - start
            table[n] = row
        return table

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Ablation — PAT vs array overwrite scaling ===")
    print(f"{'N devices':>10} {'PAT(s)':>9} {'array(s)':>9} {'array/PAT':>10}")
    for n, row in table.items():
        print(
            f"{n:>10} {row['pat']:>9.3f} {row['array']:>9.3f} "
            f"{row['array'] / row['pat']:>10.2f}"
        )
    save_json("ablation_pat_scaling", {str(k): v for k, v in table.items()})
    # The array store degrades with N; PAT stays ~logarithmic.  At the
    # largest size PAT must win.
    assert table[sizes[-1]]["pat"] < table[sizes[-1]]["array"]
    growth_pat = table[sizes[-1]]["pat"] / table[sizes[0]]["pat"]
    growth_array = table[sizes[-1]]["array"] / table[sizes[0]]["array"]
    assert growth_array > growth_pat


def bench_ablation_aggregation(benchmark):
    """Reduce I/II on vs off for a storm (predicate-op and apply savings)."""
    setting = lnet_ecmp()
    updates = setting.storm_updates()
    results = {}

    def run():
        for label, aggregate in (("mr2", True), ("no-reduce", False)):
            manager = ModelWriter(
                setting.topology.switches(), setting.layout, aggregate=aggregate
            )
            manager.submit(updates)
            manager.flush()
            b = manager.breakdown
            results[label] = {
                "ops": manager.engine.metrics.total,
                "apply_seconds": b.apply_seconds,
                "applied_overwrites": b.aggregated_overwrites,
                "ecs": manager.num_ecs(),
            }
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Ablation — MR2 aggregation on/off (LNet-ecmp storm) ===")
    for label, r in results.items():
        print(
            f"{label:<10} ops {r['ops']:>8}  apply {r['apply_seconds']:.3f}s  "
            f"overwrites applied {r['applied_overwrites']:>6}  ECs {r['ecs']}"
        )
    save_json("ablation_aggregation", results)
    assert results["mr2"]["ecs"] == results["no-reduce"]["ecs"]
    assert (
        results["mr2"]["applied_overwrites"]
        < results["no-reduce"]["applied_overwrites"]
    )
    assert results["mr2"]["ops"] <= results["no-reduce"]["ops"]


def bench_ablation_rule_trie(benchmark):
    """APKeep*'s per-update eff computation with vs without the trie."""
    setting = lnet_apsp()
    updates = setting.storm_updates()
    results = {}

    def run():
        for label, use_index in (("trie", True), ("scan", False)):
            verifier = APKeepVerifier(
                setting.topology.switches(), setting.layout, use_index=use_index
            )
            start = time.perf_counter()
            verifier.process_updates(updates)
            results[label] = {
                "seconds": time.perf_counter() - start,
                "ops": verifier.metrics.total,
                "ecs": verifier.num_ecs(),
            }
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Ablation — overlapped-rule trie vs full scan (APKeep*) ===")
    for label, r in results.items():
        print(f"{label:<6} {r['seconds']:.3f}s  ops {r['ops']:>8}  ECs {r['ecs']}")
    save_json("ablation_trie", results)
    assert results["trie"]["ecs"] == results["scan"]["ecs"]
    # The trie prunes non-overlapping rules, so it can only reduce BDD work.
    assert results["trie"]["ops"] <= results["scan"]["ops"]

