"""Table 3 — overall performance of Delta-net*, APKeep* and Flash.

Reproduces the three column groups for all six settings: total model update
time, memory usage, and #predicate operations.  LNet settings run with the
subspace partition (the "... Subspace" rows); trace settings run flat.

Run: ``pytest benchmarks/bench_table3.py --benchmark-only -s``
"""

from __future__ import annotations

import pytest

from .harness import (
    DEFAULT_TIMEOUT,
    check_op_columns,
    print_table,
    run_apkeep,
    run_apkeep_partitioned,
    run_deltanet,
    run_flash,
    run_flash_partitioned,
    save_results,
)
from .settings import (
    airtel_trace,
    i2_trace,
    lnet_apsp,
    lnet_ecmp,
    lnet_smr,
    stanford_trace,
)

_LNET = [lnet_apsp, lnet_ecmp, lnet_smr]
_TRACES = [airtel_trace, stanford_trace, i2_trace]


@pytest.mark.parametrize("maker", _LNET, ids=lambda m: m.__name__)
def bench_table3_lnet_subspace(benchmark, maker):
    setting = maker()
    updates = setting.trace_updates()
    # Flash flushes at the Figure-7 sweet spot (~4% of the FIB scale) so
    # the insert-then-delete trace is processed incrementally rather than
    # annihilated by cancelling-update removal in one giant block.
    threshold = max(1, setting.fib_scale // 25)
    rows = []

    def run():
        rows.clear()
        rows.append(run_deltanet(setting, updates))
        rows.append(run_apkeep_partitioned(setting, updates))
        rows.append(run_flash_partitioned(setting, updates, block_threshold=threshold))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows[0].setting = f"{setting.name} Subspace"  # Delta-net* runs flat but
    # is reported in the same row group as the paper does.
    print_table(f"Table 3 — {setting.name} Subspace", rows)
    check_op_columns(f"table3_{setting.name}", rows)
    save_results(f"table3_{setting.name}", rows)
    flash = rows[-1]
    assert flash.finished, "Flash must finish within the bench timeout"


@pytest.mark.parametrize("maker", _TRACES, ids=lambda m: m.__name__)
def bench_table3_traces(benchmark, maker):
    setting = maker()
    updates = setting.trace_updates()
    threshold = max(1, setting.fib_scale // 25)
    rows = []

    def run():
        rows.clear()
        rows.append(run_deltanet(setting, updates))
        rows.append(run_apkeep(setting, updates))
        rows.append(run_flash(setting, updates, block_threshold=threshold))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(f"Table 3 — {setting.name}", rows)
    check_op_columns(f"table3_{setting.name}", rows)
    save_results(f"table3_{setting.name}", rows)
    flash = rows[-1]
    apkeep = rows[1]
    assert flash.finished
    if apkeep.finished and flash.predicate_ops:
        ratio = apkeep.predicate_ops / max(1, flash.predicate_ops)
        print(f"APKeep*/Flash predicate-op ratio: {ratio:.1f}x")
