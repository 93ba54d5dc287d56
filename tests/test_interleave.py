"""The interleaving explorer: POR enumeration, per-step invariants,
epoch-machinery races, and joint (trace, order) shrinking.

The centerpiece fixture is a handcrafted *transient loop*: a two-switch
chain where deleting the forward rule races an insert of a higher-
priority backward rule.  One interleaving visits a looping intermediate
state, the other never does — final states are identical, so only a
checker that asserts invariants in **every intermediate state** can tell
the orders apart.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import find_blackholes
from repro.bdd import PredicateEngine
from repro.core import CommutativityAnalyzer, ModelWriter
from repro.dataplane import DROP, Rule, delete, insert
from repro.difftest import (
    InterleaveCase,
    InterleaveRunner,
    InterleaveShrinker,
    InterleavingExplorer,
    ReferenceOracle,
    RequirementSpec,
    Scenario,
    ScenarioGenerator,
)
from repro.difftest.compare import derive_verdicts, model_entries
from repro.difftest.runner import DiffResult, Divergence
from repro.core.inverse_model import InverseModel
from repro.errors import ModelInvariantError, ReproError
from repro.flash import Flash
from repro.headerspace import HeaderLayout, Match, Pattern
from repro.resilience import EpochGate
from repro.results import LoopReport, Verdict

SRC = Path(__file__).resolve().parent.parent / "src"
LAYOUT_FIELDS = (("dst", 2),)

# The three rules of the transient-loop story (devices: s0=0, s1=1, x=2).
R_FWD0 = Rule(1, Match.wildcard(), 1)  # s0 -> s1
R_FWD1 = Rule(1, Match.wildcard(), 2)  # s1 -> x (external sink)
R_BACK = Rule(2, Match.wildcard(), 0)  # s1 -> s0, shadows R_FWD1


def transient_loop_scenario() -> Scenario:
    """Prefix installs s0->s1->x; the 2-update block races a delete of
    s0's forward rule against an insert of a backward rule on s1.

    Block order [insert, delete] forwards s0->s1->s0 for one step — a
    transient loop.  Block order [delete, insert] never loops.  Both
    orders converge to the same final tables.
    """
    epoch = "e-transient"
    return Scenario(
        name="transient_loop",
        seed=0,
        layout_fields=LAYOUT_FIELDS,
        devices=(
            {"name": "s0", "kind": "switch"},
            {"name": "s1", "kind": "switch"},
            {"name": "x", "kind": "external", "prefixes": [[0, 0]]},
        ),
        links=((0, 1), (1, 2)),
        epoch=epoch,
        order=(0, 1),
        updates=(
            insert(0, R_FWD0, epoch),
            insert(1, R_FWD1, epoch),
            delete(0, R_FWD0, epoch),  # block index 0
            insert(1, R_BACK, epoch),  # block index 1
        ),
        requirements=(
            RequirementSpec(
                name="reach-0-s0", sources=("s0",), expression="s0 .* >"
            ),
        ),
        description="delete of the forward rule races a higher-priority "
        "backward insert; one interleaving loops transiently",
    )


def _analyzer(layout: HeaderLayout) -> CommutativityAnalyzer:
    return CommutativityAnalyzer(PredicateEngine(layout.total_bits), layout)


def _exact_insert(device: int, value: int, action) -> "object":
    return insert(
        device, Rule(1, Match({"dst": Pattern.exact(value, 2)}), action)
    )


# ---------------------------------------------------------------------------
# the explorer: enumeration counts and reduction
# ---------------------------------------------------------------------------
class TestInterleavingExplorer:
    def test_all_commuting_block_explores_exactly_one_order(self):
        """Three cross-device updates with disjoint footprints: 3! valid
        orders, one Mazurkiewicz trace — POR keeps a single order."""
        layout = HeaderLayout(list(LAYOUT_FIELDS))
        block = [
            _exact_insert(0, 0, DROP),
            _exact_insert(1, 1, DROP),
            _exact_insert(2, 2, DROP),
        ]
        explorer = InterleavingExplorer(block, _analyzer(layout).commutes)
        assert explorer.possible_orders() == 6
        reduced = list(explorer.reduced())
        assert len(reduced) == 1
        assert explorer.sleep_prunes > 0
        assert len(list(explorer.exhaustive())) == 6

    def test_dependent_pair_explores_both_orders(self):
        layout = HeaderLayout(list(LAYOUT_FIELDS))
        scenario = transient_loop_scenario()
        block = list(scenario.updates[2:])
        explorer = InterleavingExplorer(block, _analyzer(layout).commutes)
        assert explorer.possible_orders() == 2
        assert sorted(explorer.reduced()) == [(0, 1), (1, 0)]

    def test_possible_orders_is_multinomial(self):
        """Two updates on one device, one on another: 3!/2! = 3 orders,
        and every one preserves the per-device sub-sequence."""
        layout = HeaderLayout(list(LAYOUT_FIELDS))
        block = [
            _exact_insert(0, 0, DROP),
            _exact_insert(0, 1, DROP),
            _exact_insert(1, 2, DROP),
        ]
        explorer = InterleavingExplorer(block, _analyzer(layout).commutes)
        assert explorer.possible_orders() == 3
        orders = list(explorer.exhaustive())
        assert len(orders) == 3
        for order in orders:
            assert order.index(0) < order.index(1)  # device 0's chain

    def test_reduced_is_subset_of_exhaustive(self):
        layout = HeaderLayout(list(LAYOUT_FIELDS))
        block = [
            _exact_insert(0, 0, DROP),
            _exact_insert(0, 1, DROP),
            _exact_insert(1, 0, DROP),  # overlaps block[0]
            _exact_insert(2, 2, DROP),
        ]
        explorer = InterleavingExplorer(block, _analyzer(layout).commutes)
        exhaustive = set(explorer.exhaustive())
        reduced = set(explorer.reduced())
        assert reduced <= exhaustive
        assert 0 < len(reduced) < len(exhaustive)

    def test_explorer_imports_without_the_verifier(self):
        """The explorer stands alone: importing it loads neither the
        Flash facade nor the model manager."""
        code = (
            "import sys, repro.difftest.explore; "
            "print(sorted(m for m in ('repro.flash', "
            "'repro.core.model_manager') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the runner: seeded scenarios, order dependence, POR self-check
# ---------------------------------------------------------------------------
class TestInterleaveRunner:
    def test_seeded_scenarios_replay_clean(self):
        """Generated blocks: every intermediate state of every explored
        order agrees with the oracle, and the self-check passes."""
        runner = InterleaveRunner(block_tail=4)
        explored = possible = 0
        for scenario in ScenarioGenerator(seed=11, profile="smoke").stream(3):
            result = runner.run(scenario)
            assert result.ok, (scenario.name, result.divergences)
            report = runner.last_report
            assert report.self_check in ("passed", "skipped")
            assert report.states_checked > 0
            explored += report.orders_explored
            possible += report.orders_possible
        # POR must have measurably pruned somewhere in the sample.
        assert explored < possible

    def test_transient_loop_is_order_dependent_but_not_divergent(self):
        runner = InterleaveRunner(block_tail=2)
        result = runner.run(transient_loop_scenario())
        assert result.ok, result.divergences
        report = runner.last_report
        assert report.orders_explored == 2
        assert report.order_dependent is True
        assert report.self_check == "passed"
        # Every intermediate state of every order was checked — the
        # shared pre-block state plus one per update, per order.
        assert report.states_checked == 2 * (2 + 1)

    def test_preexisting_loop_fact_needs_the_preblock_state(self):
        """Fuzzer-found POR subtlety, pinned: the prefix leaves dst=1
        looping; block index 0 (delete s0's forward rule) fixes it and
        index 1 is a commuting bystander on another header and device.
        The DFS explores device 0's chain first, so the single reduced
        representative (0, 1) kills the loop with its first move and
        the pre-existing loop fact is only observable at step 0 — while
        the pruned order (1, 0) re-observes it at step 1.  Unless the
        shared pre-block state is part of the fact union, the soundness
        self-check flags this sound reduction as unsound."""
        epoch = "e-preloop"
        fwd = Rule(1, Match({"dst": Pattern.exact(1, 2)}), 1)
        back = Rule(1, Match({"dst": Pattern.exact(1, 2)}), 0)
        scenario = Scenario(
            name="preexisting_loop",
            seed=0,
            layout_fields=LAYOUT_FIELDS,
            devices=(
                {"name": "s0", "kind": "switch"},
                {"name": "s1", "kind": "switch"},
                {"name": "x", "kind": "external", "prefixes": [[0, 0]]},
            ),
            links=((0, 1), (1, 2)),
            epoch=epoch,
            order=(0, 1),
            updates=(
                insert(0, fwd, epoch),  # s0 -> s1 for dst=1
                insert(1, back, epoch),  # s1 -> s0: loop
                delete(0, fwd, epoch),  # block index 0: fixes the loop
                # block index 1: commuting bystander on dst=2
                insert(
                    1,
                    Rule(1, Match({"dst": Pattern.exact(2, 2)}), DROP),
                    epoch,
                ),
            ),
            requirements=(),
            description="pre-block state loops on dst=1; the reduced "
            "representative fixes it at step 1",
        )
        # The pre-block state really does loop (the fact at stake).
        layout = scenario.build_layout()
        topology = scenario.build_topology()
        writer = ModelWriter(sorted(topology.switches()), layout)
        writer.submit(scenario.updates[:2])
        writer.flush()
        loop_verdict, _ = derive_verdicts(
            model_entries(writer.model), topology, (), ()
        )
        assert loop_verdict is Verdict.VIOLATED
        runner = InterleaveRunner(block_tail=2)
        result = runner.run(scenario)
        assert result.ok, result.divergences
        report = runner.last_report
        assert report.orders_possible == 2
        assert report.orders_explored == 1  # one trace class
        assert report.self_check == "passed"

    def test_forced_misclassification_is_caught_by_self_check(self):
        """Injecting a deliberate commutativity misclassification prunes
        the looping order; the POR soundness self-check must notice the
        missing violation facts."""
        runner = InterleaveRunner(
            block_tail=2, force_commute=lambda a, b: True
        )
        result = runner.run(transient_loop_scenario())
        assert not result.ok
        assert "por-unsound" in result.kinds
        report = runner.last_report
        assert report.self_check == "failed"
        assert report.orders_explored == 1  # the loop-free order only
        assert report.commute["forced"] > 0
        registry = runner.telemetry.registry
        assert registry.value("difftest.interleave.selfcheck.failures") == 1

    def test_dispatcher_replay_checks_model_invariants(self, monkeypatch):
        """The dispatcher replay runs Definition 6 on every trunk member,
        like the other Flash replays: a broken EC table is an error."""

        def broken(self):
            raise ModelInvariantError("EC table broken")

        monkeypatch.setattr(InverseModel, "check_invariants", broken)
        result = InterleaveRunner(block_tail=2).run(transient_loop_scenario())
        errors = {d.engines for d in result.divergences if d.kind == "error"}
        assert ("dispatcher", "oracle") in errors

    def test_pinned_order_replay(self):
        runner = InterleaveRunner(block_tail=2)
        scenario = transient_loop_scenario()
        result = runner.run_order(scenario, (1, 0))
        assert result.ok, result.divergences
        assert result.stats["orders_explored"] == 1
        assert runner.last_report.self_check == "skipped"

    def test_case_round_trip(self):
        runner = InterleaveRunner(block_tail=2)
        scenario = transient_loop_scenario()
        result = DiffResult(scenario)
        result.stats["minimized_order"] = [1, 0]
        case = runner.case_for(scenario, result)
        assert case.orders == ((1, 0),)
        data = case.as_dict()
        assert data["kind"] == "interleave"
        rebuilt = InterleaveCase.from_dict(data)
        assert rebuilt.as_dict() == data
        replay = runner.run_case(rebuilt)
        assert replay.ok, replay.divergences

    def test_case_from_dict_rejects_wrong_kind(self):
        case = InterleaveCase(scenario=transient_loop_scenario())
        data = case.as_dict()
        data["kind"] = "chaos"
        with pytest.raises(ReproError):
            InterleaveCase.from_dict(data)

    def test_interleave_report_round_trip(self):
        runner = InterleaveRunner(block_tail=2)
        runner.run(transient_loop_scenario())
        report = runner.last_report
        data = report.as_dict()
        assert json.loads(json.dumps(data)) == data  # as --telemetry writes it
        assert data["kind"] == "interleave" and data["divergences"] == 0
        assert report.verdict is Verdict.SATISFIED


# ---------------------------------------------------------------------------
# intermediate-state invariants: model and epoch machinery (regression)
# ---------------------------------------------------------------------------
class TestIntermediateStateInvariants:
    def test_loop_and_blackhole_invariants_at_every_step(self):
        """Walk the looping order by hand and pin the invariant values
        of each intermediate state: loop appears after the backward
        insert, blackhole appears after the delete."""
        scenario = transient_loop_scenario()
        layout = scenario.build_layout()
        topology = scenario.build_topology()
        requirements = scenario.build_requirements(topology, layout)
        prefix, block = scenario.updates[:2], scenario.updates[2:]

        manager = ModelWriter(
            sorted(topology.switches()), layout, block_threshold=1
        )
        manager.submit(prefix)
        manager.flush()
        spaces = [
            manager.compiler.compile(r.packet_space) for r in requirements
        ]
        assert find_blackholes(manager, topology) == []

        # Step 1 of order [insert R_BACK, delete R_FWD0]: transient loop,
        # still no blackhole.
        manager.submit([block[1]])
        manager.flush()
        loop_verdict, _ = derive_verdicts(
            model_entries(manager.model), topology, requirements, spaces
        )
        assert loop_verdict is Verdict.VIOLATED
        assert find_blackholes(manager, topology) == []

        # Step 2: the delete lands; loop gone, s0 now blackholes all
        # traffic (empty table).
        manager.submit([block[0]])
        manager.flush()
        loop_verdict, req_verdicts = derive_verdicts(
            model_entries(manager.model), topology, requirements, spaces
        )
        assert loop_verdict is Verdict.SATISFIED
        assert req_verdicts == (Verdict.VIOLATED,)
        holes = find_blackholes(manager, topology)
        assert [b.device for b in holes] == [0]

        # The oracle agrees with the model on the final state.
        oracle = ReferenceOracle(topology, layout)
        oracle.process_updates(scenario.updates)
        for header in range(layout.universe_size):
            values = layout.unflatten(header)
            assert oracle.snapshot.behavior(values)[0] == DROP

    def test_epoch_gate_with_order_rejects_regression(self):
        gate = EpochGate(order=["e1", "e2"])
        r = Rule(1, Match.wildcard(), 1)
        assert gate.classify(insert(0, r, "e2")) is None
        assert gate.classify(insert(0, r, "e1")) is not None
        assert gate.classify(insert(0, r, "bogus")) is not None

    def test_dispatcher_never_resurrects_superseded_epoch(self):
        """Out-of-epoch delivery: once a device moves past a tag, a
        stale re-delivery of that tag must not reopen its verifier."""
        scenario = transient_loop_scenario()
        layout = scenario.build_layout()
        topology = scenario.build_topology()
        requirements = scenario.build_requirements(topology, layout)
        flash = Flash(
            topology, layout, requirements=requirements, check_loops=True
        )
        flash.ingest(0, [insert(0, R_FWD0, "a")], epoch="a")
        reports = flash.ingest(1, [insert(1, R_FWD1, "a")], epoch="a")
        loops = [r for r in reports if isinstance(r, LoopReport)]
        assert loops and loops[-1].verdict is Verdict.SATISFIED

        # Epoch b: the backward rule lands; once both devices report it,
        # the loop is detected and epoch a is retired.
        flash.ingest(1, [insert(1, R_BACK, "b")], epoch="b")
        reports = flash.ingest(0, [], epoch="b")
        loops = [r for r in reports if isinstance(r, LoopReport)]
        assert loops and loops[-1].verdict is Verdict.VIOLATED
        assert flash.dispatcher.tracker.is_inactive("a")
        assert flash.dispatcher.verifier_for("a") is None

        # Stale re-delivery of epoch a: no reports, no resurrection.
        stale = flash.ingest(0, [delete(0, R_FWD0, "a")], epoch="a")
        assert stale == []
        assert flash.dispatcher.tracker.is_inactive("a")
        assert flash.dispatcher.verifier_for("a") is None


# ---------------------------------------------------------------------------
# joint (trace, interleaving) shrinking
# ---------------------------------------------------------------------------
class _MarkerRunner(InterleaveRunner):
    """Deterministic stand-in for shrinker mechanics: a scenario
    diverges iff it still contains both the marker (priority 7) and the
    anchor (priority 3) update, and a pinned order diverges iff the
    marker executes *before* the anchor."""

    def _indices(self, scenario):
        marker = [
            i for i, u in enumerate(scenario.updates) if u.rule.priority == 7
        ]
        anchor = [
            i for i, u in enumerate(scenario.updates) if u.rule.priority == 3
        ]
        return marker, anchor

    def run(self, scenario, *, orders=None, **kwargs):
        result = DiffResult(scenario)
        marker, anchor = self._indices(scenario)
        if not marker or not anchor:
            return result
        if orders is not None:
            order = tuple(orders[0])
            if order.index(marker[0]) < order.index(anchor[0]):
                result.divergences.append(
                    Divergence("step-verdict", ("flash-incr", "oracle"))
                )
            return result
        bad = tuple(reversed(range(len(scenario.updates))))
        result.divergences.append(
            Divergence("step-verdict", ("flash-incr", "oracle"))
        )
        result.stats["divergent_orders"] = [list(bad)]
        return result


class TestInterleaveShrinker:
    def _scenario(self) -> Scenario:
        epoch = "e-shrink"
        updates = [insert(0, Rule(3, Match.wildcard(), 1), epoch)]  # anchor
        for value in range(3):  # filler the shrinker should drop
            updates.append(
                insert(
                    0,
                    Rule(1, Match({"dst": Pattern.exact(value, 2)}), 1),
                    epoch,
                )
            )
        updates.append(insert(1, Rule(7, Match.wildcard(), 0), epoch))  # marker
        return Scenario(
            name="shrink_me",
            seed=0,
            layout_fields=LAYOUT_FIELDS,
            devices=(
                {"name": "s0", "kind": "switch"},
                {"name": "s1", "kind": "switch"},
            ),
            links=((0, 1),),
            epoch=epoch,
            order=(0, 1),
            updates=tuple(updates),
        )

    def test_minimises_updates_and_order_jointly(self):
        shrinker = InterleaveShrinker(runner=_MarkerRunner())
        minimised, result = shrinker.shrink(self._scenario())
        assert not result.ok
        # ddmin kept exactly the two interacting updates...
        assert len(minimised.updates) == 2
        assert {u.rule.priority for u in minimised.updates} == {3, 7}
        # ...and the order pass reduced the interleaving to the single
        # necessary inversion (marker right before anchor).
        assert result.stats["minimized_order"] == [1, 0]

    def test_clean_scenario_is_left_alone(self):
        runner = InterleaveRunner(block_tail=2)
        shrinker = InterleaveShrinker(runner=runner)
        scenario = transient_loop_scenario()
        minimised, result = shrinker.shrink(scenario)
        assert result.ok
        assert minimised.updates == scenario.updates
        assert "minimized_order" not in result.stats
