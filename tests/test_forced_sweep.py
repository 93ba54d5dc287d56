"""The aliasing audit: everything still holds with a sweep after every block.

A writer's engine sweeps itself at the end of ``ModelWriter.flush`` and
reuses the node ids it frees, so a bare ``pred.node`` that outlives a
block may name another predicate afterwards.  The product sweeps on a
growth rule, which small scenarios never reach; the ``always_sweep``
fixture (``conftest.py``) patches that rule to "always", the most hostile
schedule there is, and these tests run the gates that would notice an
alias under it.  There is no such switch in ``src/``.
"""

import random

import pytest

from repro.ce2d.verifier import Checker
from repro.dataplane.update import delete, insert
from repro.difftest import (
    ChaosRunner,
    DifferentialRunner,
    InterleaveRunner,
    ScenarioGenerator,
)
from repro.flash import Flash
from repro.results import Verdict, VerificationReport
from repro.serve import build_workload, run_load

from . import test_dispatcher_properties as dispatcher_props
from .conftest import base_seed

SCENARIOS = 150


@pytest.mark.fuzz
@pytest.mark.parametrize(
    "make_runner",
    [
        pytest.param(DifferentialRunner, id="diff"),
        pytest.param(lambda: ChaosRunner(profile="mixed", seed=base_seed()), id="chaos"),
        # --block-tail 4's shape; one order per scenario and no POR
        # self-check (an oracle-side walk no sweep can reach) keep 150
        # scenarios inside tier-1's budget.
        pytest.param(
            lambda: InterleaveRunner(block_tail=4, max_orders=1, self_check=False),
            id="interleave",
        ),
    ],
)
def test_fuzz_gates_hold_with_a_sweep_after_every_block(always_sweep, make_runner):
    runner = make_runner()
    scenarios = ScenarioGenerator(seed=base_seed() + 22, profile="smoke")
    for scenario in scenarios.stream(SCENARIOS):
        result = runner.run(scenario)
        assert result.ok, (scenario.name, result.divergences)
    assert always_sweep() >= SCENARIOS


def test_serve_race_with_a_sweep_after_every_block(always_sweep):
    """Readers on snapshots that share the writer's store while the
    writer sweeps and reuses ids after every batch: every served answer
    must equal the batch oracle's at its pinned epoch."""
    workload = build_workload(seed=base_seed() + 35, quick=False)
    # Sized so most answers are pinned while the storm is still running.
    workload.clients, workload.queries_per_client = 3, 15
    result = run_load(workload, seed=base_seed(), workers=2)
    assert result.ok, result.divergences
    assert result.queries == workload.clients * workload.queries_per_client
    assert always_sweep() >= len(workload.blocks) + 1


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_live_epochs_keyed_on_lineage(always_sweep, seed):
    """Several live epochs, each re-keying checker state along
    ``delta.origin`` while the trunk's engine recycles ids under them."""
    dispatcher_props.TestTrunkMatchesReplay().test_every_live_epoch_after_every_batch(
        seed, cap=8, partitioned=True
    )
    assert always_sweep() > 0


class LineageChecker(Checker):
    """A §5.1 checker holding nothing but what the lineage hands it: per-EC
    ancestry (the header counts of every predicate it descends from),
    keyed by handle, carried over for the ECs an update left alone and
    looked up through ``delta.origin`` for the ones it changed."""

    def __init__(self):
        self.ancestry = {}

    def on_model_update(self, lineage, new_synced, model):
        before = self.ancestry
        self.ancestry = dict(before)
        for pred in lineage.removed:
            self.ancestry.pop(pred, None)
        for d in lineage.changed:
            self.ancestry[d.predicate] = before.get(d.origin, ()) + (
                d.origin.sat_count(),
            )
        return VerificationReport("lineage", Verdict.SATISFIED, "")

    def lines(self):
        return sorted((p.sat_count(), chain) for p, chain in self.ancestry.items())


def _splitting_run(seed):
    """Blocks of inserts and withdrawals at prefix lengths 0-2 against two
    regex requirements, one over the low half of the space: most blocks
    split or merge an EC inside a requirement's packet space."""
    rng = random.Random(seed)
    topo = dispatcher_props.random_topology(rng)
    flash = Flash(
        topo, dispatcher_props.LAYOUT, check_loops=True,
        requirements=dispatcher_props.TestTrunkMatchesReplay()._requirements(topo),
    )
    lineage = LineageChecker()
    make = flash.dispatcher.factory

    def with_checker(tag):  # attached before the epoch opens on the trunk
        group = make(tag)
        for member in group.members:
            member.add_checker(lineage)
        return group

    flash.dispatcher.factory = with_checker
    switches = topo.switches()
    installed = {d: {} for d in switches}
    lines = []
    for step in range(40):
        device = rng.choice(switches)
        updates = []
        for pri in rng.sample(range(1, 6), rng.randint(1, 3)):
            old = installed[device].pop(pri, None)
            if old is not None:
                updates.append(delete(device, old))
                continue
            rule = dispatcher_props.random_rule(topo, device, pri, rng)
            if rule is not None:
                installed[device][pri] = rule
                updates.append(insert(device, rule))
        reports = flash.ingest(device, updates, epoch="one")
        lines.append(",".join(r.verdict.value for r in reports))
    return lines, lineage.lines()


@pytest.mark.parametrize("seed", range(3))
def test_splitting_updates_give_the_unforced_verdicts(request, seed):
    unforced = _splitting_run(seed)
    sweeps = request.getfixturevalue("always_sweep")
    assert _splitting_run(seed) == unforced
    assert sweeps() > 0
