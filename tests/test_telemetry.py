"""Tests for the unified telemetry subsystem (repro.telemetry).

Covers the registry (get-or-create, snapshot, collectors), spans (two
counters each, from one thread or two), the JSON-lines exporter, the
removal of the old stats/result API, and an end-to-end CLI smoke test of
``--telemetry``.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.telemetry import (
    JsonLinesExporter,
    MetricsRegistry,
    OpMetrics,
    PhaseBreakdown,
    Telemetry,
    read_jsonl,
)

pytestmark = pytest.mark.telemetry


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_value_reads_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(7)
        assert reg.value("c") == 3
        assert reg.value("g") == 7
        assert reg.value("missing", default=-1) == -1

    def test_snapshot_is_plain_json_safe_dict(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(0.25)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["counters"]["c"] == 2
        assert snap["histograms"]["h"]["count"] == 1

    def test_collectors_run_before_snapshot(self):
        reg = MetricsRegistry()
        reg.add_collector(lambda r: r.gauge("pulled").set(42))
        assert reg.snapshot()["gauges"]["pulled"] == 42

    def test_reset_zeroes_but_keeps_metrics(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(9)
        reg.reset()
        assert reg.value("c") == 0
        assert "c" in reg.snapshot()["counters"]


class TestSpans:
    def test_span_records_count_and_seconds(self):
        tel = Telemetry()
        with tel.span("work"):
            pass
        assert tel.registry.value("span.work.count") == 1
        assert tel.registry.value("span.work.seconds") >= 0

    def test_span_counts_a_body_that_raises(self):
        tel = Telemetry()
        with pytest.raises(ValueError):
            with tel.span("work"):
                raise ValueError
        assert tel.registry.value("span.work.count") == 1

    def test_add_span_folds_an_interval_opened_elsewhere(self):
        tel = Telemetry()
        tel.add_span("epoch", 0.25)
        tel.add_span("epoch", 0.5)
        assert tel.registry.value("span.epoch.count") == 2
        assert tel.registry.value("span.epoch.seconds") == 0.75

    def test_spans_on_two_threads(self, tmp_path):
        """One Telemetry shared by a writer and a reader thread, as in
        ``serve``: B runs a span to completion while A holds one open."""
        tel = Telemetry()
        a_open, b_done = threading.Event(), threading.Event()
        a_count_seen_by_b = []

        def thread_a():
            with tel.span("a"):
                a_open.set()
                b_done.wait(10)

        def thread_b():
            a_open.wait(10)
            with tel.span("b"):
                pass
            a_count_seen_by_b.append(tel.registry.value("span.a.count"))
            b_done.set()

        threads = [threading.Thread(target=thread_a),
                   threading.Thread(target=thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert a_count_seen_by_b == [0]  # B finished inside A's span
        assert tel.registry.value("span.a.count") == 1
        assert tel.registry.value("span.b.count") == 1
        path = str(tmp_path / "out.jsonl")
        JsonLinesExporter(path).export(tel)
        kinds = {r["record"] for r in read_jsonl(path)}
        assert "counter" in kinds and "span" not in kinds

    def test_spans_from_many_threads_lose_no_counts(self):
        """Threads that first time one name together share one counter
        (get-or-create is one step), so no thread's counts are dropped."""
        threads, names = 8, 100
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                tel = Telemetry()
                start = threading.Barrier(threads)

                def work():
                    start.wait(10)
                    for k in range(names):
                        with tel.span(f"q{k}"):
                            pass

                pool = [threading.Thread(target=work) for _ in range(threads)]
                for t in pool:
                    t.start()
                for t in pool:
                    t.join(10)
                assert not any(t.is_alive() for t in pool)
                counts = {tel.registry.value(f"span.q{k}.count") for k in range(names)}
                assert counts == {threads}
        finally:
            sys.setswitchinterval(old)

    def test_no_tracer_api(self):
        import repro.telemetry as telemetry

        assert not hasattr(telemetry, "Tracer")
        assert not hasattr(telemetry, "Span")
        tel = Telemetry()
        for name in ("tracer", "begin", "end"):
            assert not hasattr(tel, name), name
        assert set(tel.snapshot()) == {"metrics"}


class TestViews:
    def test_op_metrics_snapshot_and_diff(self):
        metrics = OpMetrics(MetricsRegistry())
        metrics.record_conjunction()
        metrics.record_disjunction(2)
        before = metrics.snapshot()
        metrics.record_negation()
        metrics.bump("atom_ops", 3)
        delta = metrics.diff(before)
        assert delta.negations == 1
        assert delta.conjunctions == 0
        assert delta.extra["atom_ops"] == 3
        assert metrics.total == 4

    def test_phase_breakdown_from_registry(self):
        reg = MetricsRegistry()
        reg.counter("span.mr2.map.seconds").inc(1.5)
        reg.counter("span.mr2.apply.seconds").inc(0.5)
        reg.counter("mr2.blocks").inc(3)
        b = PhaseBreakdown.from_registry(reg)
        assert b.map_seconds == 1.5
        assert b.total_seconds == 2.0
        assert b.blocks == 3


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        tel = Telemetry()
        with tel.span("phase"):
            tel.count("ops", 4)
        path = str(tmp_path / "out.jsonl")
        lines = JsonLinesExporter(path).export(tel, label="unit")
        records = read_jsonl(path)
        assert len(records) == lines
        assert records[0] == {"record": "meta", "label": "unit", "version": 1}
        by_kind = {}
        for rec in records:
            by_kind.setdefault(rec["record"], []).append(rec)
        counters = {r["name"]: r["value"] for r in by_kind["counter"]}
        assert counters["ops"] == 4
        assert counters["span.phase.count"] == 1
        assert "span" not in by_kind

    def test_jsonl_appends_reports(self, tmp_path):
        from repro.results import Verdict, VerificationReport

        report = VerificationReport("r1", Verdict.SATISFIED, epoch="e")
        path = str(tmp_path / "out.jsonl")
        JsonLinesExporter(path).export(Telemetry(), reports=[report])
        records = read_jsonl(path)
        reps = [r for r in records if r["record"] == "report"]
        assert reps[0]["requirement"] == "r1"
        assert reps[0]["verdict"] == "satisfied"


class TestShimsRemoved:
    """The PR 1 deprecated paths were deleted after two PR cycles."""

    def test_old_stats_module_gone(self):
        with pytest.raises(ImportError):
            import repro.core.stats  # noqa: F401

    def test_old_results_module_gone(self):
        with pytest.raises(ImportError):
            import repro.ce2d.results  # noqa: F401

    def test_engine_counter_gone(self):
        from repro.bdd.predicate import PredicateEngine

        engine = PredicateEngine(4)
        with pytest.raises(AttributeError):
            engine.counter  # noqa: B018
        # The stable accessor keeps counting.
        _ = engine.variable(0) & engine.variable(1)
        assert engine.metrics.conjunctions == 1

    def test_baseline_counters_gone(self):
        from repro.baselines.apkeep import APKeepVerifier
        from repro.baselines.deltanet import DeltaNetVerifier
        from repro.headerspace.fields import dst_only_layout

        layout = dst_only_layout(4)
        for verifier in (
            APKeepVerifier([0], layout),
            DeltaNetVerifier([0], layout),
        ):
            with pytest.raises(AttributeError):
                verifier.counter  # noqa: B018


class TestEndToEnd:
    def test_flash_snapshot_spans_bdd_mr2_and_epochs(self):
        """One registry snapshot covers BDD ops, MR2 phases and epochs."""
        from repro.fibgen.shortest_path import std_fib
        from repro.flash import Flash
        from repro.headerspace.fields import dst_only_layout
        from repro.network.generators import internet2

        topo = internet2()
        for switch in list(topo.switches()):
            host = topo.add_external(f"h_{topo.name_of(switch)}")
            topo.add_link(switch, host)
        layout = dst_only_layout(6)
        flash = Flash(topo, layout, check_loops=True)
        from repro.dataplane.trace import inserts_only

        flash.verify_offline(inserts_only(std_fib(topo, layout)))
        snap = flash.telemetry_snapshot()
        counters = snap["metrics"]["counters"]
        gauges = snap["metrics"]["gauges"]
        assert counters["predicate.ops.conjunction"] > 0
        assert counters["mr2.blocks"] > 0
        assert counters["span.mr2.map.seconds"] >= 0
        assert counters["ce2d.epoch.opened"] == 1
        assert counters["span.ce2d.check.count"] > 0
        assert any(k.startswith("ce2d.verdicts.") for k in counters)
        assert gauges["bdd.nodes"] > 0
        assert gauges["bdd.apply.calls"] > 0

    def test_bdd_gauges_sum_over_the_engines_sharing_a_registry(self):
        """A partitioned Flash has one engine per subspace and one
        registry: ``bdd.*`` reports the system, not the last engine."""
        from repro.core.subspace import SubspacePartition
        from repro.dataplane.trace import inserts_only
        from repro.fibgen.shortest_path import std_fib
        from repro.flash import Flash
        from repro.headerspace.fields import dst_only_layout
        from repro.network.generators import fabric

        topo = fabric(2, 2, 2, 2)
        layout = dst_only_layout(6)
        half = 1 << 5
        partition = SubspacePartition.dst_prefix_partition(
            layout, [(0, 1), (half, 1)]
        )
        flash = Flash(topo, layout, check_loops=True, partition=partition)
        flash.verify_offline(inserts_only(std_fib(topo, layout)))
        bdds = [m.manager.engine.bdd for m in flash.trunk.members]
        assert len(bdds) == 2 and bdds[0] is not bdds[1]
        bdds[0].collect()  # the gc tallies move on one engine only
        gauges = flash.telemetry_snapshot()["metrics"]["gauges"]
        for gauge, field in [
            ("bdd.apply.calls", "apply_calls"),
            ("bdd.apply.cache_hits", "apply_cache_hits"),
            ("bdd.split.calls", "split_calls"),
            ("bdd.gc.runs", "gc_runs"),
            ("bdd.gc.freed", "gc_freed"),
            ("bdd.gc.live", "gc_last_live"),
            ("bdd.gc.seconds", "gc_seconds"),
        ]:
            assert gauges[gauge] == sum(
                getattr(bdd.stats, field) for bdd in bdds
            ), gauge
        assert gauges["bdd.apply.calls"] > bdds[-1].stats.apply_calls > 0
        assert gauges["bdd.gc.runs"] == 1 and bdds[-1].stats.gc_runs == 0
        assert gauges["bdd.nodes"] == sum(b.live_node_count for b in bdds)
        assert gauges["bdd.nodes.allocated"] == sum(b.num_nodes for b in bdds)
        assert gauges["bdd.cache.size"] == sum(b.cache_size for b in bdds)
        # The op-cache bound is a constant, not a gauge: the sum over
        # engines would report a multiple of it.
        assert "bdd.cache.limit" not in gauges

    def test_cli_verify_telemetry_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "trace.jsonl")
        out = str(tmp_path / "telemetry.jsonl")
        assert main([
            "generate", "--topology", "internet2", "--dst-bits", "6",
            "--out", trace,
        ]) == 0
        assert main([
            "verify", "--topology", "internet2", "--dst-bits", "6",
            "--trace", trace, "--telemetry", out,
        ]) == 0
        records = read_jsonl(out)  # every line parses as JSON
        kinds = {r["record"] for r in records}
        assert {"meta", "counter", "gauge"} <= kinds
        assert "span" not in kinds
        names = {r.get("name") for r in records}
        assert "predicate.ops.conjunction" in names
        assert "span.mr2.map.seconds" in names
