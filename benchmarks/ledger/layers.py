"""The cost stack: which public functions are wrapped, and what is derived.

A layer is a module under ``src/repro/``.  :func:`install` patches each
layer's public entry points with :class:`~benchmarks.ledger.spans.Recorder`
wrappers; :func:`layer_metrics` turns the recorded spans plus counts
(taken by the wrappers, the public ``MetricsRegistry`` snapshot and the
engines' public ``stats``) into the per-layer table of the README.

Times are *self* times: ``core.apply_s`` excludes nothing (a leaf), while
``core.block_other_s`` is ``Mr2Pipeline.process_block`` minus the map,
reduce and apply spans inside it.  The one exception is
``serve.ingest_apply_s``, which is inclusive (see :func:`layer_metrics`).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from . import spans as sp

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("dataplane.parse_s", "s", "lower"),
    ("dataplane.parse_updates", "count", "lower"),
    ("dataplane.trace_bytes", "count", "lower"),
    ("headerspace.compile_s", "s", "lower"),
    ("headerspace.compile_calls", "count", "lower"),
    ("headerspace.compile_distinct_ratio", "ratio", "higher"),
    ("core.map_s", "s", "lower"),
    ("core.reduce_s", "s", "lower"),
    ("core.apply_s", "s", "lower"),
    ("core.block_other_s", "s", "lower"),
    ("core.flush_s", "s", "lower"),
    ("core.blocks", "count", "lower"),
    ("core.updates", "count", "lower"),
    ("core.overwrites_atomic", "count", "lower"),
    ("core.overwrites_aggregated", "count", "lower"),
    ("core.aggregation_ratio", "ratio", "higher"),
    ("core.ecs_final", "count", "lower"),
    ("core.ecs_skipped_ratio", "ratio", "higher"),
    ("core.pairs_pruned", "count", "higher"),
    ("predicates.ops", "count", "lower"),
    ("predicates.bulk_triples_per_batch", "ratio", "higher"),
    ("bdd.ite_calls", "count", "lower"),
    ("bdd.cache_hit_ratio", "ratio", "higher"),
    ("bdd.nodes_peak", "count", "lower"),
    ("bdd.nodes_allocated", "count", "lower"),
    ("bdd.gc_runs", "count", "lower"),
    ("bdd.gc_s", "s", "lower"),
    ("bdd.unique_load", "ratio", "lower"),
    ("flash.route_s", "s", "lower"),
    ("flash.receive_calls", "count", "lower"),
    ("ce2d.dispatch_s", "s", "lower"),
    ("ce2d.verifier_s", "s", "lower"),
    ("ce2d.check_loops_s", "s", "lower"),
    ("ce2d.check_regex_s", "s", "lower"),
    ("ce2d.batches", "count", "lower"),
    ("ce2d.epochs_opened", "count", "lower"),
    ("ce2d.epochs_closed", "count", "lower"),
    ("ce2d.verifiers_live_peak", "count", "lower"),
    ("ce2d.replay_amplification", "ratio", "lower"),
    ("ce2d.verdicts_deterministic", "count", "higher"),
    ("ce2d.early_verdict_ratio", "ratio", "higher"),
    ("serve.ingest_apply_s", "s", "lower"),
    ("serve.snapshot_capture_s", "s", "lower"),
    ("serve.query_eval_s", "s", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.ingest_rejected", "count", "lower"),
    ("serve.epochs_published", "count", "lower"),
    ("serve.distinct_epochs_read", "count", "higher"),
    ("serve.mid_storm_queries", "count", "higher"),
    ("bench.verdict_ms_p99", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
)

#: Span name → per-layer time metric (summed self time of that span name).
_TIME_OF_SPAN = {
    "dataplane.parse": "dataplane.parse_s",
    "headerspace.compile": "headerspace.compile_s",
    "core.map": "core.map_s",
    "core.reduce": "core.reduce_s",
    "core.apply": "core.apply_s",
    "core.block": "core.block_other_s",
    "core.flush": "core.flush_s",
    "flash.route": "flash.route_s",
    "ce2d.dispatch": "ce2d.dispatch_s",
    "ce2d.verifier": "ce2d.verifier_s",
    "ce2d.check_loops": "ce2d.check_loops_s",
    "ce2d.check_regex": "ce2d.check_regex_s",
    "serve.snapshot_capture": "serve.snapshot_capture_s",
    "serve.publish": "serve.snapshot_capture_s",
    "serve.query_eval": "serve.query_eval_s",
}


class Counts:
    """Counts the wrappers take where the work happens."""

    def __init__(self) -> None:
        self.engines: List[object] = []
        self.compile_calls = 0
        self.compile_distinct: Set[object] = set()
        self.ecs_seen = 0
        self.live_peak = 0
        self.counting = False

    # -- wrapper hooks --------------------------------------------------
    def on_engine(self, engine, *args) -> None:
        self.engines.append(engine)

    def on_compile(self, compiler, match, *args) -> None:
        if self.counting:
            self.compile_calls += 1
            self.compile_distinct.add(match)

    def on_apply(self, model, *args) -> None:
        if self.counting:
            self.ecs_seen += len(model)

    def on_dispatch(self, dispatcher, *args) -> None:
        # Sampled on entry: the verifiers the previous batch left alive.
        if self.counting:
            self.live_peak = max(self.live_peak, len(dispatcher.verifiers))

    # -- engine tallies -------------------------------------------------
    def engine_totals(self) -> Dict[str, float]:
        """Sums over every predicate engine created since :func:`install`.

        Engines that share a ``MetricsRegistry`` share its op counters, so
        registry-backed tallies are taken once per distinct registry.
        """
        out = dict.fromkeys(
            ("ops", "bulk_batches", "bulk_triples", "ite_calls", "apply_calls",
             "cache_hits", "nodes", "nodes_peak", "gc_runs", "gc_s",
             "unique_used", "unique_capacity"), 0.0,
        )
        seen: Set[int] = set()
        for engine in self.engines:
            registry = engine.registry
            if id(registry) not in seen:
                seen.add(id(registry))
                out["ops"] += engine.metrics.total
                out["bulk_batches"] += registry.value("predicates.bulk.batches")
                out["bulk_triples"] += registry.value("predicates.bulk.triples")
            bdd = engine.bdd
            stats = bdd.stats
            out["ite_calls"] += stats.ite_calls
            out["apply_calls"] += stats.apply_calls
            out["cache_hits"] += stats.apply_cache_hits
            out["gc_runs"] += stats.gc_runs
            out["gc_s"] += stats.gc_seconds
            out["nodes"] += bdd.num_nodes
            out["nodes_peak"] = max(out["nodes_peak"], bdd.num_nodes)
            out["unique_used"] += getattr(bdd, "unique_used", 0)
            out["unique_capacity"] += getattr(bdd, "unique_capacity", 0)
        return out


def install(rec: sp.Recorder) -> Counts:
    """Patch every layer's public entry points; undo with ``rec.unpatch()``."""
    from repro.bdd.predicate import PredicateEngine
    from repro.ce2d.dispatcher import CE2DDispatcher
    from repro.ce2d.loop_detector import LoopDetector
    from repro.ce2d.regex_verifier import CoverVerifier, RegexVerifier
    from repro.ce2d.verifier import SubspaceVerifier
    from repro.core import mr2
    from repro.core.inverse_model import InverseModel
    from repro.core.model_manager import ModelWriter
    from repro.flash import EpochGroupVerifier
    from repro.headerspace.match import MatchCompiler
    from repro.serve import daemon as serve_daemon
    from repro.serve import queries
    from repro.serve.snapshots import SnapshotStore

    counts = Counts()
    rec.patch(PredicateEngine, "__init__", "predicates.engine_new",
              on_call=counts.on_engine)
    rec.patch(MatchCompiler, "compile", "headerspace.compile",
              on_call=counts.on_compile)
    rec.patch(mr2, "map_phase", "core.map")
    rec.patch(mr2, "aggregate", "core.reduce")
    rec.patch(mr2.Mr2Pipeline, "process_block", "core.block")
    rec.patch(InverseModel, "apply_overwrites", "core.apply",
              on_call=counts.on_apply)
    rec.patch(ModelWriter, "flush", "core.flush")
    rec.patch(EpochGroupVerifier, "receive", "flash.route")
    rec.patch(CE2DDispatcher, "receive", "ce2d.dispatch",
              on_call=counts.on_dispatch)
    rec.patch(SubspaceVerifier, "receive", "ce2d.verifier")
    rec.patch(LoopDetector, "on_model_update", "ce2d.check_loops")
    rec.patch(RegexVerifier, "on_model_update", "ce2d.check_regex")
    rec.patch(CoverVerifier, "on_model_update", "ce2d.check_regex")
    # The daemon's writer thread enters the model through the verifier's
    # ingest door; outside the daemon nothing on these workloads calls it.
    rec.patch(SubspaceVerifier, "ingest", "serve.ingest_apply")
    rec.patch(serve_daemon, "isolate_view", "serve.snapshot_capture")
    rec.patch(SnapshotStore, "publish", "serve.publish", closes_op=True)
    for cls in (queries.ReachabilityQuery, queries.LoopQuery,
                queries.WaypointQuery):
        rec.patch(cls, "evaluate", "serve.query_eval")
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: List[sp.Span],
    self_time: Dict[str, float],
    start: float,
    end: float,
    engines_before: Dict[str, float],
    engines_after: Dict[str, float],
    counters: Dict[str, float],
    counts: Counts,
    facts: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer table of one traced round.

    ``self_time`` is ``spans.self_time_by_name(spans)``; ``counters`` is
    the timed region's delta of the system's public
    registry counters; ``facts`` are the counts only the workload knows
    (trace bytes, final ECs, serve's query tallies, ...).  A metric whose
    layer did not run on this workload is simply absent.
    """
    out: Dict[str, float] = {}
    for span_name, seconds in self_time.items():
        metric = _TIME_OF_SPAN.get(span_name)
        if metric is not None:
            out[metric] = out.get(metric, 0.0) + seconds
    calls = sp.calls_by_name(spans)
    # The writer thread's busy time per batch: everything beneath the
    # verifier's ingest door (core.*, headerspace.*) included, because the
    # door itself does nothing but delegate.
    ingest = sp.total_time_by_name(spans).get("serve.ingest_apply")
    if ingest is not None:
        out["serve.ingest_apply_s"] = ingest

    if counts.compile_calls:
        out["headerspace.compile_calls"] = counts.compile_calls
        out["headerspace.compile_distinct_ratio"] = _ratio(
            len(counts.compile_distinct), counts.compile_calls
        )
    if counters.get("mr2.blocks"):
        atomic = counters.get("mr2.overwrites.atomic", 0)
        aggregated = counters.get("mr2.overwrites.aggregated", 0)
        out["core.blocks"] = counters["mr2.blocks"]
        out["core.updates"] = counters.get("mr2.updates", 0)
        out["core.overwrites_atomic"] = atomic
        out["core.overwrites_aggregated"] = aggregated
        out["core.aggregation_ratio"] = _ratio(atomic, aggregated)
        out["core.ecs_skipped_ratio"] = _ratio(
            counters.get("mr2.apply.ecs_skipped", 0), counts.ecs_seen
        )
        out["core.pairs_pruned"] = counters.get("mr2.apply.pairs_pruned", 0)

    delta = {k: engines_after[k] - engines_before.get(k, 0) for k in engines_after}
    out["predicates.ops"] = delta["ops"]
    out["predicates.bulk_triples_per_batch"] = _ratio(
        delta["bulk_triples"], delta["bulk_batches"]
    )
    out["bdd.ite_calls"] = delta["ite_calls"]
    out["bdd.cache_hit_ratio"] = _ratio(delta["cache_hits"], delta["apply_calls"])
    out["bdd.nodes_peak"] = engines_after["nodes_peak"]
    out["bdd.nodes_allocated"] = delta["nodes"]
    out["bdd.gc_runs"] = delta["gc_runs"]
    out["bdd.gc_s"] = delta["gc_s"]
    out["bdd.unique_load"] = _ratio(
        engines_after["unique_used"], engines_after["unique_capacity"]
    )

    if "flash.route" in calls:
        out["flash.receive_calls"] = calls["flash.route"]
    if counters.get("ce2d.batches"):
        out["ce2d.batches"] = counters["ce2d.batches"]
        out["ce2d.epochs_opened"] = counters.get("ce2d.epoch.opened", 0)
        out["ce2d.epochs_closed"] = counters.get("ce2d.epoch.closed", 0)
        out["ce2d.verifiers_live_peak"] = counts.live_peak
        out["ce2d.replay_amplification"] = _ratio(
            counters.get("mr2.updates", 0), counters.get("ce2d.updates", 0)
        )
    out.update(facts)
    out["bench.unattributed_share"] = sp.unattributed_share(spans, start, end)
    return out
