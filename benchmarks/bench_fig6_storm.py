"""Figure 6 — update storms in the baseline (no-partition) setting.

All rule insertions of every switch burst into the verifier as one
sequence; Flash processes the storm as one block while Delta-net* and
APKeep* grind through it per update (the paper kills them at 10 hours; we
scale the timeout down and report ">timeout" the same way).
"""

from __future__ import annotations

import os

import pytest

from .harness import (
    check_op_columns,
    print_table,
    run_apkeep,
    run_deltanet,
    run_flash,
    save_results,
)
from .settings import lnet_ecmp, lnet_smr

STORM_TIMEOUT = float(os.environ.get("REPRO_STORM_TIMEOUT", "20"))


@pytest.mark.parametrize("maker", [lnet_ecmp, lnet_smr], ids=lambda m: m.__name__)
def bench_fig6_update_storm(benchmark, maker):
    setting = maker()
    updates = setting.storm_updates()
    rows = []

    def run():
        rows.clear()
        rows.append(run_deltanet(setting, updates, timeout=STORM_TIMEOUT))
        rows.append(run_apkeep(setting, updates, timeout=STORM_TIMEOUT))
        rows.append(run_flash(setting, updates, timeout=STORM_TIMEOUT))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(f"Figure 6 — {setting.name} storm", rows)
    check_op_columns(f"fig6_{setting.name}", rows)
    save_results(f"fig6_{setting.name}", rows)

    deltanet, apkeep, flash = rows
    assert flash.finished, "Flash must absorb the storm within the timeout"
    # The paper's qualitative claims: Flash is the fastest of the three and
    # at least as memory-frugal as the losers.
    if apkeep.finished:
        assert flash.seconds <= apkeep.seconds
        assert flash.predicate_ops <= apkeep.predicate_ops
    if deltanet.finished:
        assert flash.predicate_ops <= deltanet.predicate_ops
