"""Tests for the differential-fuzzing subsystem (repro.difftest)."""

import json

import pytest

from repro.cli import main
from repro.core.inverse_model import InverseModel
from repro.difftest import (
    ChaosRunner,
    DifferentialRunner,
    InterleaveRunner,
    Scenario,
    ScenarioGenerator,
    Shrinker,
)
from repro.difftest.compare import ModelView
from repro.difftest.shrink import repair_updates
from repro.dataplane.rule import DROP, Rule
from repro.dataplane.update import delete, insert
from repro.errors import ModelInvariantError
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match
from repro.telemetry import Telemetry

LAYOUT = dst_only_layout(4)


class TestScenarioGenerator:
    def test_same_seed_same_stream(self):
        """The acceptance contract: one seed, one scenario stream."""
        a = [s.as_dict() for s in ScenarioGenerator(seed=1234).stream(10)]
        b = [s.as_dict() for s in ScenarioGenerator(seed=1234).stream(10)]
        assert a == b

    def test_index_access_is_pure(self):
        gen = ScenarioGenerator(seed=7)
        streamed = [s.as_dict() for s in gen.stream(5)]
        direct = [gen.scenario(i).as_dict() for i in range(5)]
        assert streamed == direct
        assert gen.scenario(3).as_dict() == gen.scenario(3).as_dict()

    def test_different_seeds_differ(self):
        a = [s.as_dict() for s in ScenarioGenerator(seed=1).stream(5)]
        b = [s.as_dict() for s in ScenarioGenerator(seed=2).stream(5)]
        assert a != b

    def test_scenarios_json_round_trip(self):
        for scenario in ScenarioGenerator(seed=42).stream(8):
            data = json.loads(json.dumps(scenario.as_dict()))
            rebuilt = Scenario.from_dict(data)
            assert rebuilt.as_dict() == scenario.as_dict()
            assert rebuilt.updates == scenario.updates

    def test_generated_scenarios_build(self):
        for scenario in ScenarioGenerator(seed=9).stream(5):
            topo = scenario.build_topology()
            layout = scenario.build_layout()
            assert topo.externals(), "every scenario needs a sink"
            for update in scenario.updates:
                assert update.device in set(topo.switches())
                assert update.epoch == scenario.epoch
            for req in scenario.build_requirements(topo, layout):
                assert req.sources


@pytest.mark.fuzz
class TestDifferentialRunner:
    def test_smoke_profile_has_no_divergences(self):
        """repro fuzz --seed 1234 --iterations 50 --profile smoke is clean."""
        runner = DifferentialRunner()
        for scenario in ScenarioGenerator(seed=1234, profile="smoke").stream(50):
            result = runner.run(scenario)
            assert result.ok, (scenario.name, result.divergences)

    @pytest.mark.slow
    def test_deep_profile_has_no_divergences(self):
        runner = DifferentialRunner()
        for scenario in ScenarioGenerator(seed=1234, profile="deep").stream(25):
            result = runner.run(scenario)
            assert result.ok, (scenario.name, result.divergences)

    def test_telemetry_counters(self):
        telemetry = Telemetry()
        runner = DifferentialRunner(telemetry=telemetry)
        for scenario in ScenarioGenerator(seed=3).stream(4):
            runner.run(scenario)
        registry = telemetry.registry
        assert registry.value("difftest.scenarios") == 4
        assert registry.value("difftest.divergences") == 0
        assert registry.value("span.difftest.run.count") == 4

    def test_broken_engine_is_caught(self, monkeypatch):
        """A deliberately corrupted engine must produce divergences."""
        import repro.difftest.runner as runner_mod

        original = runner_mod.view_from_deltanet

        def corrupted(name, engine, verifier, layout):
            view = original(name, engine, verifier, layout)
            broken = [
                (pred, {d: DROP for d in actions})
                for pred, actions in view.entries
            ]
            return ModelView(name, engine, view.devices, broken)

        monkeypatch.setattr(runner_mod, "view_from_deltanet", corrupted)
        runner = DifferentialRunner()
        found = False
        for scenario in ScenarioGenerator(seed=1234).stream(10):
            result = runner.run(scenario)
            if result.ok:
                continue
            found = True
            assert all(d.engines[0] == "deltanet" for d in result.divergences)
            assert "behavior" in result.kinds
        assert found, "an all-DROP deltanet model should diverge somewhere"

    def test_crashing_engine_reports_error_divergence(self, monkeypatch):
        import repro.difftest.runner as runner_mod

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(runner_mod, "view_from_apkeep", boom)
        runner = DifferentialRunner()
        result = runner.run(ScenarioGenerator(seed=1).scenario(0))
        errors = [d for d in result.divergences if d.kind == "error"]
        assert errors and errors[0].engines[0] == "apkeep"
        assert "engine exploded" in errors[0].detail


@pytest.mark.fuzz
class TestModelInvariantsInTheGates:
    """Every runner calls ``InverseModel.check_invariants`` inside its
    crash-is-a-divergence ``try``, so a Definition-6 violation the
    behaviour / reachability / loop diffs cannot see still fails the gate."""

    @pytest.fixture
    def empty_ec_left_behind(self, monkeypatch):
        original = InverseModel.apply_overwrites

        def leaky(model, overwrites):
            deltas = original(model, overwrites)
            phantom = model.store.uniform(model.devices, 4242)
            model._entries.setdefault(phantom, model.engine.false)
            return deltas

        monkeypatch.setattr(InverseModel, "apply_overwrites", leaky)

    @pytest.mark.parametrize(
        "make_runner, rows",
        [
            (DifferentialRunner, {"flash-batch", "flash-incr"}),
            (ChaosRunner, {"flash-supervised"}),
            (lambda: InterleaveRunner(block_tail=2), {"flash-incr", "dispatcher"}),
        ],
        ids=["differential", "chaos", "interleave"],
    )
    def test_empty_ec_is_an_error_divergence(
        self, empty_ec_left_behind, make_runner, rows
    ):
        result = make_runner().run(ScenarioGenerator(seed=1234).scenario(0))
        assert {d.engines[0] for d in result.divergences} == rows
        for divergence in result.divergences:
            assert divergence.kind == "error"
            assert "ModelInvariantError" in divergence.detail
            assert "empty EC" in divergence.detail

    @pytest.mark.chaos
    def test_pipeline_crash_is_an_error_divergence(self, monkeypatch):
        """Every injected fault is repairable by validation, so the
        writer must never raise: one raise of the pipeline is an
        ``error`` divergence naming the exception."""

        def raises(model, overwrites):
            raise ModelInvariantError("injected")

        monkeypatch.setattr(InverseModel, "apply_overwrites", raises)
        result = ChaosRunner().run(ScenarioGenerator(seed=1234).scenario(0))
        assert {d.engines[0] for d in result.divergences} == {"flash-supervised"}
        for divergence in result.divergences:
            assert divergence.kind == "error"
            assert "ModelInvariantError: injected" in divergence.detail


class TestShrinker:
    def test_repair_drops_dangling_operations(self):
        rule_a = Rule(1, Match.dst_prefix(0, 1, LAYOUT), 1)
        rule_b = Rule(2, Match.dst_prefix(8, 1, LAYOUT), DROP)
        repaired = repair_updates([
            delete(0, rule_a),       # dangling: never inserted
            insert(0, rule_b),
            insert(0, rule_b),       # duplicate insert
            delete(0, rule_b),
            delete(0, rule_b),       # dangling: already deleted
            insert(1, rule_a),
        ])
        assert repaired == [insert(0, rule_b), delete(0, rule_b), insert(1, rule_a)]

    @pytest.mark.fuzz
    def test_shrinks_divergent_scenario(self, monkeypatch):
        """With a corrupted engine, shrinking yields a smaller reproducer."""
        import repro.difftest.runner as runner_mod

        original = runner_mod.view_from_deltanet

        def corrupted(name, engine, verifier, layout):
            view = original(name, engine, verifier, layout)
            broken = [
                (pred, {d: DROP for d in actions})
                for pred, actions in view.entries
            ]
            return ModelView(name, engine, view.devices, broken)

        monkeypatch.setattr(runner_mod, "view_from_deltanet", corrupted)
        runner = DifferentialRunner()
        scenario = next(
            s
            for s in ScenarioGenerator(seed=1234).stream(20)
            if len(s.updates) >= 6 and not runner.run(s).ok
        )
        shrunk, shrunk_result = Shrinker(runner).shrink(scenario)
        assert not shrunk_result.ok
        assert set(shrunk_result.kinds) & set(runner.run(scenario).kinds)
        assert len(shrunk.updates) < len(scenario.updates)
        assert shrunk.name == scenario.name + "-min"
        # The shrunk scenario must still be a valid, replayable case.
        replay = DifferentialRunner().run(shrunk)
        assert not any(d.kind == "error" for d in replay.divergences)


class TestFuzzCli:
    def test_cli_smoke_run(self, capsys):
        code = main(["fuzz", "--seed", "5", "--iterations", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 divergent" in out

    def test_cli_time_budget(self, capsys):
        code = main([
            "fuzz", "--seed", "5", "--iterations", "100000",
            "--time-budget", "0.000001",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "time budget" in out
