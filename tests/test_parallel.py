"""Tests for parallel subspace verification (repro.core.parallel)."""

import multiprocessing
import random
import time

import pytest

from repro.core.parallel import PartitionedRunResult, run_partitioned
from repro.core.subspace import SubspacePartition
from repro.dataplane.rule import Rule
from repro.dataplane.update import insert
from repro.difftest import DiffResult, ReferenceOracle, ScenarioGenerator
from repro.difftest.compare import ModelView, derive_verdicts, view_from_oracle
from repro.difftest.runner import diff_views
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match, MatchCompiler
from repro.network.generators import ring
from repro.resilience import RetryPolicy

LAYOUT = dst_only_layout(6)


def setup_workload():
    topo = ring(4)
    partition = SubspacePartition.dst_prefix_partition(
        LAYOUT, [(0x00, 1), (0x20, 1)]
    )
    updates = [
        insert(0, Rule(1, Match.dst_prefix(0x00, 1, LAYOUT), 1)),
        insert(1, Rule(1, Match.dst_prefix(0x20, 1, LAYOUT), 2)),
        insert(2, Rule(1, Match.wildcard(), 3)),
    ]
    return topo, partition, updates


class TestSequential:
    def test_routes_and_stats(self):
        topo, partition, updates = setup_workload()
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates, processes=None
        )
        results, registry = result.stats, result.registry
        assert len(results) == 2
        assert result.wall_seconds >= 0
        # The merged registry aggregates worker telemetry: one worker span
        # per subspace plus the predicate-op counters each worker tallied.
        assert registry.value("span.parallel.worker.count") == 2
        assert registry.value("parallel.workers") == 0  # sequential run
        total_ops = sum(r.predicate_ops for r in results)
        snap = registry.snapshot()
        merged_ops = sum(
            v
            for n, v in snap["counters"].items()
            if n.startswith("predicate.ops.")
        )
        assert merged_ops == total_ops
        by_name = {r.subspace: r for r in results}
        assert by_name["sub0"].updates == 2  # low-prefix rule + wildcard
        assert by_name["sub1"].updates == 2
        assert all(r.ecs >= 1 for r in results)

    def test_zero_processes_means_sequential(self):
        topo, partition, updates = setup_workload()
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates, processes=0
        )
        assert len(result.stats) == 2


class TestParallelPool:
    def test_pool_matches_sequential(self):
        topo, partition, updates = setup_workload()
        seq_result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates, processes=None
        )
        par_result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates, processes=2
        )
        seq, reg_seq = seq_result.stats, seq_result.registry
        par, reg_par = par_result.stats, par_result.registry
        for s, p in zip(seq, par):
            assert s.subspace == p.subspace
            assert s.ecs == p.ecs
            assert s.predicate_ops == p.predicate_ops
            assert s.updates == p.updates
        # Worker telemetry crosses the process boundary as snapshots and
        # merges into the parent registry identically either way.
        assert reg_par.value("parallel.workers") == 2
        seq_counters = reg_seq.snapshot()["counters"]
        par_counters = reg_par.snapshot()["counters"]
        for name in seq_counters:
            if name.startswith("predicate.ops."):
                assert par_counters.get(name) == seq_counters[name]


class TestSupervision:
    """Hardened-pool behaviour: per-task failure capture and recovery."""

    def test_result_object_is_not_iterable(self):
        """The PR-4 triple-unpacking shim is gone: results are accessed
        by attribute, and accidental tuple unpacking fails loudly."""
        topo, partition, updates = setup_workload()
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates, processes=None
        )
        assert isinstance(result, PartitionedRunResult)
        assert result.stats and result.wall_seconds >= 0
        assert result.registry is not None
        with pytest.raises(TypeError):
            iter(result)
        assert result.ok and result.failures == []

    def test_worker_raise_does_not_lose_other_subspaces(self):
        """Regression: one worker raising mid-task used to abort the whole
        pool; now every other subspace's result survives and the failing
        one recovers via retry."""
        topo, partition, updates = setup_workload()
        clean = run_partitioned(
            topo.switches(), LAYOUT, partition, updates, processes=None
        )
        result = run_partitioned(
            topo.switches(),
            LAYOUT,
            partition,
            updates,
            processes=2,
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.01),
            faults={"sub0": "raise"},  # raise on attempt 0, succeed after
        )
        assert result.ok
        assert {s.subspace for s in result.stats} == {"sub0", "sub1"}
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.subspace == "sub0" and failure.recovered
        assert "InjectedWorkerFault" in failure.error
        by_name = {s.subspace: s for s in result.stats}
        clean_by_name = {s.subspace: s for s in clean.stats}
        for name in by_name:
            assert by_name[name].ecs == clean_by_name[name].ecs
            assert by_name[name].updates == clean_by_name[name].updates
        assert result.registry.value("resilience.subspace.recovered") == 1
        assert result.registry.value("resilience.subspace.failures") == 0

    def test_exhausted_pool_retries_fall_back_to_sequential(self):
        topo, partition, updates = setup_workload()
        result = run_partitioned(
            topo.switches(),
            LAYOUT,
            partition,
            updates,
            processes=2,
            # The fault outlives the single pool attempt (max_retries=0)
            # but not the sequential re-execution's higher attempt index.
            retry=RetryPolicy(max_retries=0, backoff_seconds=0.01),
            faults={"sub1": "raise"},
        )
        assert result.ok
        assert {s.subspace for s in result.stats} == {"sub0", "sub1"}
        reg = result.registry
        assert reg.value("resilience.subspace.sequential_reruns") == 1
        assert result.failures[0].recovered

    def test_unrecoverable_fault_is_reported_not_raised(self):
        topo, partition, updates = setup_workload()
        result = run_partitioned(
            topo.switches(),
            LAYOUT,
            partition,
            updates,
            processes=None,
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
            faults={"sub0": "raise@99"},  # never stops failing
        )
        assert not result.ok
        assert {s.subspace for s in result.stats} == {"sub1"}
        failure = result.failures[0]
        assert failure.subspace == "sub0" and not failure.recovered
        assert failure.attempts == 2 and len(failure.history) == 2
        assert "InjectedWorkerFault" in failure.traceback

    @pytest.mark.slow
    def test_hard_worker_death_caught_by_watchdog(self):
        """A worker dying via os._exit never reports back; the per-task
        watchdog reaps it and the subspace recovers sequentially."""
        topo, partition, updates = setup_workload()
        result = run_partitioned(
            topo.switches(),
            LAYOUT,
            partition,
            updates,
            processes=2,
            retry=RetryPolicy(
                max_retries=0, backoff_seconds=0.01, task_timeout=15.0
            ),
            faults={"sub0": "exit"},
        )
        assert result.ok
        assert {s.subspace for s in result.stats} == {"sub0", "sub1"}
        failure = result.failures[0]
        assert failure.subspace == "sub0"
        assert failure.timed_out and failure.recovered


class TestFaultDrillValidation:
    """A fault drill is checked where it enters, before any task runs."""

    @pytest.mark.parametrize("processes", [None, 2])
    def test_unknown_fault_kind_is_the_callers_error(self, processes):
        """Regression: the spec used to be parsed inside the worker, so a
        typo came back as a FailedSubspace blaming sub0, result dropped."""
        topo, partition, updates = setup_workload()
        with pytest.raises(ValueError, match="explode.*raise, exit, hang"):
            run_partitioned(
                topo.switches(), LAYOUT, partition, updates,
                processes=processes, faults={"sub0": "explode"},
            )
        assert multiprocessing.active_children() == []

    def test_fault_on_a_subspace_the_partition_lacks_is_refused(self):
        """Regression: a drill naming no subspace of the partition used
        to be ignored — ok == True having tested nothing."""
        topo, partition, updates = setup_workload()
        with pytest.raises(ValueError, match="pod0.*sub0.*sub1"):
            run_partitioned(
                topo.switches(), LAYOUT, partition, updates,
                processes=None, faults={"pod0": "raise@99"},
            )


class TestPoolLiveness:
    """Dead and hung workers are bounded; none outlives the call."""

    def test_dead_worker_is_noticed_without_a_task_timeout(self):
        """An earlier pool blocked forever here: it only noticed a
        dead worker through task_timeout, which defaults to None."""
        topo, partition, updates = setup_workload()
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=2, faults={"sub0": "exit"},
        )
        assert result.ok
        assert {s.subspace for s in result.stats} == {"sub0", "sub1"}
        (failure,) = result.failures
        assert failure.subspace == "sub0"
        assert failure.timed_out and failure.recovered
        assert "exit code 3" in failure.error
        assert result.registry.value("resilience.subspace.sequential_reruns") == 1
        assert multiprocessing.active_children() == []

    def test_hung_worker_is_killed_at_task_timeout(self):
        topo, partition, updates = setup_workload()
        start = time.monotonic()
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=2,
            retry=RetryPolicy(task_timeout=1.0),
            faults={"sub0": "hang"},  # sleeps an hour if left alone
        )
        assert time.monotonic() - start < 5.0
        assert result.ok
        assert {s.subspace for s in result.stats} == {"sub0", "sub1"}
        (failure,) = result.failures
        assert failure.subspace == "sub0"
        assert failure.timed_out and failure.recovered
        assert "hung worker" in failure.error
        assert multiprocessing.active_children() == []

    def test_worker_lost_before_it_read_its_task_is_not_a_pool_error(
        self, monkeypatch
    ):
        """A worker that dies in bootstrap (here: its main module cannot
        be re-imported) never reads its task; with a task larger than the
        pipe buffer the parent's send breaks.  Neither may escape."""
        from multiprocessing import spawn

        real = spawn.get_preparation_data

        def unimportable_main(name):
            data = real(name)
            data.pop("init_main_from_name", None)
            data["init_main_from_path"] = "/nonexistent/main.py"
            return data

        monkeypatch.setattr(spawn, "get_preparation_data", unimportable_main)
        topo, partition, _ = setup_workload()
        updates = [  # ~1 MB pickled per subspace
            insert(0, Rule(p, Match.dst_prefix(0x20 * (p % 2), 1, LAYOUT), 1))
            for p in range(1, 6001)
        ]
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates, processes=2
        )
        assert result.ok
        assert {s.subspace for s in result.stats} == {"sub0", "sub1"}
        assert [f.subspace for f in result.failures] == ["sub0", "sub1"]
        for failure in result.failures:
            assert failure.timed_out and failure.recovered
            assert "WorkerDied: exit code 1" in failure.error
        assert multiprocessing.active_children() == []

    def test_unrecoverable_pool_task_keeps_every_other_subspace(self):
        topo, partition, updates = setup_workload()
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=2,
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
            faults={"sub0": "raise@99"},
            collect_models=True,
        )
        assert not result.ok
        assert {s.subspace for s in result.stats} == {"sub1"}
        assert set(result.models) == {"sub1"}
        (failure,) = result.failures
        assert failure.subspace == "sub0" and not failure.recovered
        # two pool attempts, then the one sequential re-execution
        assert failure.attempts == 3 and len(failure.history) == 3
        assert "InjectedWorkerFault" in failure.traceback


def _partition_vs_oracle(scenario, processes=None, faults=None):
    """Verify ``scenario`` as two dst-prefix subspaces, merge the shipped
    shard models into one view and diff it against the brute-force
    oracle on the unpartitioned stream."""
    layout = scenario.build_layout()
    topology = scenario.build_topology()
    switches = sorted(topology.switches())
    top_bit = 1 << (layout.field("dst").width - 1)
    partition = SubspacePartition.dst_prefix_partition(
        layout, [(0, 1), (top_bit, 1)]
    )
    run = run_partitioned(
        switches, layout, partition, scenario.updates,
        processes=processes,
        retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
        faults=faults,
        collect_models=True,
    )
    assert run.ok and set(run.models) == {"sub0", "sub1"}
    assert [f.subspace for f in run.failures] == sorted(faults or ())

    comparison = run.model_engine  # every shard's predicates already share it
    entries = [entry for table in run.models.values() for entry in table]
    merged = ModelView("partitioned", comparison, switches, entries)
    oracle = ReferenceOracle(topology, layout)
    oracle.process_updates(scenario.updates)
    reference = view_from_oracle("oracle", comparison, oracle)
    result = DiffResult(scenario)
    result.divergences += diff_views(topology, layout, switches, merged, reference)
    compiler = MatchCompiler(comparison, layout)
    requirements = scenario.build_requirements(topology, layout)
    spaces = [compiler.compile(req.packet_space) for req in requirements]
    assert derive_verdicts(
        merged.action_entries(), topology, requirements, spaces
    ) == derive_verdicts(reference.action_entries(), topology, requirements, spaces)
    return result


class TestPartitionedModelsMatchOracle:
    """Shard models merged across subspaces — and across processes, with
    a worker failing on the way — equal the brute-force oracle."""

    def test_sequential_shards_merge_to_the_oracle(self):
        generator = ScenarioGenerator(seed=1717, profile="smoke")
        for scenario in generator.stream(40):
            result = _partition_vs_oracle(scenario)
            assert result.ok, (scenario.name, result.divergences)

    def test_pool_shards_merge_to_the_oracle_despite_a_victim(self):
        generator = ScenarioGenerator(seed=2929, profile="smoke")
        for index, scenario in enumerate(generator.stream(8)):
            rng = random.Random(2929 + index)
            faults = {
                rng.choice(["sub0", "sub1"]): rng.choice(["raise", "exit"])
            }
            result = _partition_vs_oracle(scenario, 2, faults)
            assert result.ok, (scenario.name, faults, result.divergences)


class TestModelCollection:
    """collect_models ships worker EC tables home as FBW1 wire blobs."""

    def test_models_arrive_in_one_shared_engine(self):
        topo, partition, updates = setup_workload()
        result = run_partitioned(
            topo.switches(),
            LAYOUT,
            partition,
            updates,
            processes=None,
            collect_models=True,
        )
        assert set(result.models) == {"sub0", "sub1"}
        assert result.model_engine is not None
        for name, entries in result.models.items():
            assert entries, f"{name}: empty model"
            for pred, actions in entries:
                assert pred.engine is result.model_engine
                assert not pred.is_false
                assert set(actions) == set(topo.switches())
        # Subspaces are disjoint, so their EC unions must be too.
        union0 = result.model_engine.disj_many(
            p for p, _ in result.models["sub0"]
        )
        union1 = result.model_engine.disj_many(
            p for p, _ in result.models["sub1"]
        )
        assert (union0 & union1).is_false

    def test_pool_models_match_sequential(self):
        topo, partition, updates = setup_workload()
        seq = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=None, collect_models=True,
        )
        par = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=2, collect_models=True,
        )
        for name in seq.models:
            seq_view = {
                tuple(sorted(actions.items())): pred.sat_count()
                for pred, actions in seq.models[name]
            }
            par_view = {
                tuple(sorted(actions.items())): pred.sat_count()
                for pred, actions in par.models[name]
            }
            assert seq_view == par_view

    def test_models_empty_when_not_requested(self):
        topo, partition, updates = setup_workload()
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates, processes=None
        )
        assert result.models == {}
        assert result.model_engine is None
