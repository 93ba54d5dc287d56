"""Tier-1-sized soak: a steady stream must not grow the writer's node store.

``benchmarks/soak_probe.py`` runs ``churn``'s recipe for 3,000 blocks
(≈ 70 s); this is the same stream on ``fabric(2,2,2,2)`` for 300.  The EC
table is flat, so the live nodes are too — what the engine allocates
beyond them is garbage, and the sweep rule bounds it by a factor of what
survived the last sweep.  Sweeping must change nothing anyone can read:
the run is compared, verdict by verdict and EC by EC, with one whose rule
is patched to "never".  Neither do the verdicts accumulate: one live epoch
with one checker holds one report, whatever the block number.
"""

import gc

from benchmarks.ledger.workloads import canonical_model, verdict_line
from benchmarks.soak_probe import soak
from repro.bdd.engine import SWEEP_FLOOR
from repro.bdd.predicate import PredicateEngine
from repro.results import LoopReport

SIZE = dict(fabric=(2, 2, 2, 2), dst=20, overlay=48, blocks=300, per_block=2)


def _loop_reports_alive():
    return sum(isinstance(o, LoopReport) for o in gc.get_objects())


def _run(check_bounds: bool):
    verdicts = []
    gc.collect()
    before = _loop_reports_alive()  # other tests' leftovers, if any
    for i, flash, bdd, reports in soak(7, **SIZE):
        verdicts.append(verdict_line(reports))
        if not check_bounds:
            continue
        survived = bdd.stats.gc_last_live
        # The rule itself, at every block boundary.
        assert bdd.live_node_count < max(SWEEP_FLOOR, 2 * survived), i
        if i % 25 == 0 and survived:  # before the first sweep: under the floor
            assert bdd.num_nodes <= 3 * survived, (i, bdd.num_nodes, survived)
        if i % 25 == 0:
            assert len(flash.deterministic_reports()) == 1, i
            # The held one and this block's, with slack for a batch split
            # over several devices; a transcript would be ≈ 4 a block.
            alive = _loop_reports_alive() - before
            assert alive <= 8, (i, alive)
    return verdicts, canonical_model(flash.read_view()), bdd


def test_steady_stream_keeps_the_node_store_bounded(monkeypatch):
    verdicts, model, bdd = _run(check_bounds=True)
    assert bdd.stats.gc_runs >= 2
    assert bdd.stats.gc_freed > 0

    monkeypatch.setattr(PredicateEngine, "collect_if_grown", lambda self: 0)
    unswept_verdicts, unswept_model, unswept = _run(check_bounds=False)
    assert unswept.stats.gc_runs == 0
    assert unswept.num_nodes > bdd.num_nodes  # what the rule is for
    assert verdicts == unswept_verdicts
    assert model == unswept_model
