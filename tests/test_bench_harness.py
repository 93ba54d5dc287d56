"""Tests for the benchmark harness itself (settings builders, runners).

The benchmark harness is part of the deliverable: these tests pin its
behaviour — correct workload shapes per Table 2, timeout semantics, result
accounting — without running full benchmarks.
"""

import pytest

from benchmarks import settings as bs
from benchmarks.harness import (
    RunResult,
    run_apkeep,
    run_deltanet,
    run_flash,
    run_flash_partitioned,
)


@pytest.fixture(scope="module")
def apsp():
    return bs.lnet_apsp()


class TestSettings:
    def test_all_settings_build(self):
        for name, maker in bs.ALL_SETTINGS.items():
            setting = maker()
            assert setting.fib_scale > 0, name
            assert setting.topology.num_devices > 0, name

    def test_trace_doubles_storm(self, apsp):
        assert len(apsp.trace_updates()) == 2 * len(apsp.storm_updates())
        assert len(apsp.storm_updates()) == apsp.fib_scale

    def test_trace_is_insert_then_delete(self, apsp):
        trace = apsp.trace_updates()
        half = len(trace) // 2
        assert all(u.is_insert for u in trace[:half])
        assert all(u.is_delete for u in trace[half:])

    def test_lnet_partition_per_pod(self, apsp):
        pods = {
            d.label("pod")
            for d in apsp.topology.devices()
            if d.label("pod") is not None
        }
        assert len(apsp.partition) == len(pods)

    def test_partition_covers_all_rack_prefixes(self, apsp):
        """Every rule's dst prefix lands in at least one subspace."""
        routed = apsp.partition.route_updates(apsp.storm_updates())
        assert sum(len(v) for v in routed.values()) >= apsp.fib_scale

    def test_trace_settings_have_loopbacks(self):
        setting = bs.i2_trace()
        assert len(setting.topology.externals()) == 9

    def test_describe(self, apsp):
        text = apsp.describe()
        assert "LNet-apsp" in text and "rules=" in text


class TestRunners:
    def test_run_flash_result_fields(self, apsp):
        updates = apsp.storm_updates()[:64]
        result = run_flash(apsp, updates)
        assert result.finished
        assert result.updates_processed == 64
        assert result.predicate_ops > 0
        assert result.ecs >= 1
        assert float(result.display_time()) >= 0

    def test_timeout_reports_partial_progress(self, apsp):
        updates = apsp.storm_updates()
        result = run_apkeep(apsp, updates, timeout=0.0)
        assert result.timed_out
        assert result.updates_processed < len(updates)
        assert result.display_time().startswith(">")

    def test_partitioned_flash_accounts_all_subspaces(self, apsp):
        updates = apsp.storm_updates()
        result = run_flash_partitioned(apsp, updates)
        assert result.finished
        assert result.ecs >= len(apsp.partition)
        assert result.setting.endswith("Subspace")

    def test_deltanet_counts_atom_ops(self, apsp):
        updates = apsp.storm_updates()[:32]
        result = run_deltanet(apsp, updates)
        assert result.predicate_ops > 0  # atom ops reported in that column

    def test_as_dict_roundtrip(self, apsp):
        result = run_flash(apsp, apsp.storm_updates()[:8])
        payload = result.as_dict()
        assert payload["system"] == "Flash"
        assert payload["updates_processed"] == 8


class TestLedgerPatchPoints:
    def test_install_then_unpatch_restores_the_serve_patch_points(self):
        """The ledger's traced mode wraps product functions by name; a
        change that renames or drops one fails here, not only in a traced
        ledger round."""
        from benchmarks.ledger import layers, spans
        from repro.serve import daemon
        from repro.serve.snapshots import SnapshotStore

        isolate_view = daemon.isolate_view
        publish = SnapshotStore.__dict__["publish"]
        recorder = spans.Recorder()
        layers.install(recorder)
        try:
            assert daemon.isolate_view is not isolate_view
            assert SnapshotStore.__dict__["publish"] is not publish
        finally:
            recorder.unpatch()
        assert daemon.isolate_view is isolate_view
        assert SnapshotStore.__dict__["publish"] is publish
