"""Load generation and mid-storm oracle checking for the daemon.

The harness behind ``repro serve`` (CLI demo and CI consistency gate)
and ``tests/test_serve.py::TestMidStormOracle``: N query clients hammer
a :class:`~repro.serve.daemon.ServeDaemon` while one storm thread feeds
it churn batches, and afterwards **every** served answer is re-derived
from a batch oracle — a plain :class:`~repro.core.model_manager.
ModelWriter` replayed to exactly the serve epoch the answer was pinned
at.  Any mismatch is a *divergence*: proof that snapshot isolation,
caching, or the concurrent machinery broke consistency.  The headline
numbers (p50/p99 latency, QPS) are only trusted because this check
passes with zero divergences.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.model_manager import FrozenReadView, ModelWriter
from ..dataplane.rule import Rule
from ..dataplane.trace import inserts_only
from ..dataplane.update import RuleUpdate, delete, insert
from ..errors import ServeClosedError, ServeSaturatedError
from ..fibgen.shortest_path import std_fib
from ..headerspace.fields import dst_only_layout
from ..headerspace.match import Match
from ..network.generators import fabric
from ..resilience.validator import UpdateValidator
from ..telemetry import Telemetry
from .daemon import QueryResult, ServeDaemon
from .queries import LoopQuery, Query, ReachabilityQuery, WaypointQuery


# ----------------------------------------------------------------------
# Workload construction
# ----------------------------------------------------------------------

@dataclass
class ServeWorkload:
    """Topology + base FIB + churn blocks + query-mix parameters."""

    name: str
    topology: object
    layout: object
    base: List[RuleUpdate]
    blocks: List[List[RuleUpdate]]
    clients: int
    queries_per_client: int

    @property
    def num_updates(self) -> int:
        return len(self.base) + sum(len(b) for b in self.blocks)


def _churn_blocks(
    rng: random.Random,
    devices: Sequence[int],
    layout,
    n_blocks: int,
    inserts_per_block: int,
    overlay_cap: int,
) -> List[List[RuleUpdate]]:
    """Valid install-and-withdraw churn (the ledger's ``churn`` shape)."""
    width = layout.field("dst").width
    installed: List[Tuple[int, Rule]] = []
    blocks: List[List[RuleUpdate]] = []
    for _ in range(n_blocks):
        block: List[RuleUpdate] = []
        for _ in range(inserts_per_block):
            plen = rng.randint(width - 4, width)
            match = Match.dst_prefix(rng.getrandbits(width), plen, layout)
            dev = rng.choice(list(devices))
            rule = Rule(10_000 + plen, match, rng.choice(list(devices)))
            block.append(insert(dev, rule))
            installed.append((dev, rule))
        while len(installed) > overlay_cap:
            dev, rule = installed.pop(0)
            block.append(delete(dev, rule))
        blocks.append(block)
    return blocks


def build_workload(seed: int, quick: bool, name: str = "mixed_storm") -> ServeWorkload:
    """The standard serve workload at CI (quick) or full size."""
    rng = random.Random(seed)
    if quick:
        topo = fabric(2, 2, 2, 2)
        layout = dst_only_layout(8)
        n_blocks, per_block, clients, per_client = 8, 6, 3, 20
    else:
        topo = fabric(4, 4, 2, 2)
        layout = dst_only_layout(10)
        n_blocks, per_block, clients, per_client = 16, 12, 4, 40
    base = inserts_only(std_fib(topo, layout))
    blocks = _churn_blocks(
        rng, topo.switches(), layout, n_blocks, per_block, per_block * 8
    )
    return ServeWorkload(
        name, topo, layout, base, blocks, clients, per_client
    )


def random_query(rng: random.Random, topology, layout) -> Query:
    """One query from the reach/loop/waypoint mix, sometimes scoped."""
    switches = sorted(topology.switches())
    scope: Optional[Match] = None
    if rng.random() < 0.5:
        width = layout.field("dst").width
        scope = Match.dst_prefix(
            rng.getrandbits(width), rng.randint(1, 4), layout
        )
    roll = rng.random()
    if roll < 0.45:
        return ReachabilityQuery(rng.choice(switches), scope)
    if roll < 0.7:
        return LoopQuery(scope)
    source = rng.choice(switches)
    waypoint = rng.choice([s for s in switches if s != source])
    return WaypointQuery(source, waypoint, scope)


# ----------------------------------------------------------------------
# The batch oracle
# ----------------------------------------------------------------------

class BatchOracle:
    """Replay-to-epoch ground truth for served answers.

    Serve epoch ``N`` is, by the daemon's contract, the model after
    exactly the first ``N`` ingested batches.  The oracle replays the
    same batches through a plain single-threaded
    :class:`~repro.core.model_manager.ModelWriter`, behind the same
    :class:`~repro.resilience.UpdateValidator` as the daemon's, and
    pins a
    :class:`~repro.core.model_manager.FrozenReadView` at each requested
    epoch.  Requests must be non-decreasing — sort the recorded results
    by epoch and replay once.
    """

    def __init__(
        self, topology, layout, batches: Sequence[Sequence[RuleUpdate]]
    ) -> None:
        self.topology = topology
        self.batches = [list(b) for b in batches]
        self.writer = ModelWriter(topology.switches(), layout)
        self.validator = UpdateValidator(topology.switches())
        self._applied = 0

    def view_at(self, epoch: int) -> FrozenReadView:
        if epoch < self._applied:
            raise ValueError(
                f"oracle already past epoch {epoch} (at {self._applied}); "
                "sort queries by epoch before checking"
            )
        if epoch > len(self.batches):
            raise ValueError(
                f"epoch {epoch} beyond the {len(self.batches)} known batches"
            )
        while self._applied < epoch:
            admit = self.validator.admit
            self.writer.submit(
                u for u in self.batches[self._applied] if admit(u) is not None
            )
            self.writer.flush()
            self._applied += 1
        return self.writer.read_view()


# ----------------------------------------------------------------------
# The concurrent run
# ----------------------------------------------------------------------

@dataclass
class LoadResult:
    """Everything one concurrent run produced, numbers and proofs."""

    workload: str
    queries: int
    wall_seconds: float
    qps: float
    p50_ms: float
    p99_ms: float
    final_epoch: int
    distinct_epochs: int  # distinct snapshots queries were pinned at
    mid_storm_queries: int  # answered while the storm was still running
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    rejected: int  # backpressure rejections the storm absorbed
    ingest_failures: int
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and self.ingest_failures == 0


def oracle_divergences(
    results: Sequence[QueryResult],
    topology,
    layout,
    batches: Sequence[Sequence[RuleUpdate]],
) -> List[str]:
    """The proof: every served answer re-derived by a :class:`BatchOracle`
    at its pinned epoch, one line per answer that differs.

    The oracle evaluates in its own writer's engine and PAT store and
    without the daemon's verdict memo, so neither a snapshot-isolation
    bug nor a wrong memo entry can vouch for itself.
    """
    oracle = BatchOracle(topology, layout, batches)
    divergences: List[str] = []
    for result in sorted(results, key=lambda r: r.epoch):
        expected = result.query.evaluate(oracle.view_at(result.epoch), topology)
        if expected != result.answer:
            divergences.append(
                f"epoch {result.epoch}: {result.query!r} served "
                f"{result.answer} but the batch oracle says {expected}"
                + (" (cached)" if result.cached else "")
            )
    return divergences


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def run_load(
    workload: ServeWorkload,
    *,
    seed: int = 7,
    workers: int = 4,
    queue_size: int = 8,
    query_deadline: Optional[float] = None,
    telemetry: Optional[Telemetry] = None,
    on_start=None,
) -> LoadResult:
    """Run the storm-vs-clients race, then prove every answer correct.

    ``on_start`` is called with the started daemon before any load is
    generated — the CLI uses it to install SIGTERM/SIGINT handlers so
    an interrupted run drains instead of dying mid-batch.  A daemon
    closed out from under the run (signal, embedder shutdown) is
    tolerated: storm and clients stop at the first
    :class:`~repro.errors.ServeClosedError` and the oracle check covers
    whatever was answered before the close.
    """
    daemon = ServeDaemon(
        workload.topology,
        workload.layout,
        queue_size=queue_size,
        workers=workers,
        query_deadline=query_deadline,
        telemetry=telemetry,
    ).start()
    if on_start is not None:
        on_start(daemon)

    rejected = 0
    storm_done = threading.Event()
    results: List[QueryResult] = []
    results_lock = threading.Lock()

    def storm() -> None:
        nonlocal rejected
        try:
            for block in workload.blocks:
                while True:
                    try:
                        daemon.submit_updates(block, timeout=0.002)
                        break
                    except ServeSaturatedError:
                        rejected += 1
                        time.sleep(0.002)
                    except ServeClosedError:
                        return  # shut down mid-storm (signal/drain)
        finally:
            storm_done.set()

    def client(client_seed: int) -> None:
        rng = random.Random(client_seed)
        recorded: List[QueryResult] = []
        try:
            for _ in range(workload.queries_per_client):
                query = random_query(rng, workload.topology, workload.layout)
                recorded.append(daemon.ask(query))
        except ServeClosedError:
            pass  # daemon closed under us; keep what was answered
        finally:
            with results_lock:
                results.extend(recorded)

    try:
        # The base FIB is batch 1; the oracle replays it like any other.
        daemon.submit_updates(workload.base, timeout=30.0)

        threads = [threading.Thread(target=storm, name="serve-storm")]
        threads += [
            threading.Thread(
                target=client, args=(seed * 1000 + i,), name=f"client-{i}"
            )
            for i in range(workload.clients)
        ]
        t0 = time.perf_counter()
        # Record which serve epoch marks "storm over" *after* the run:
        # any answer pinned strictly below the final epoch was served
        # against a model version that has since been overwritten.
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        daemon.drain()
        wall = time.perf_counter() - t0

        final_epoch = daemon.epoch or 0
        latencies = [r.seconds for r in results]
        epochs = sorted({r.epoch for r in results})
        mid_storm = sum(1 for r in results if r.epoch < final_epoch)

        divergences = oracle_divergences(
            results,
            workload.topology,
            workload.layout,
            [workload.base] + workload.blocks,
        )
        return LoadResult(
            workload=workload.name,
            queries=len(results),
            wall_seconds=wall,
            qps=len(results) / wall if wall > 0 else 0.0,
            p50_ms=_percentile(latencies, 0.50) * 1e3,
            p99_ms=_percentile(latencies, 0.99) * 1e3,
            final_epoch=final_epoch,
            distinct_epochs=len(epochs),
            mid_storm_queries=mid_storm,
            cache_hits=daemon.cache.hits,
            cache_misses=daemon.cache.misses,
            cache_hit_rate=daemon.cache.hit_rate,
            rejected=rejected,
            ingest_failures=daemon.failures.total,
            divergences=divergences,
        )
    finally:
        daemon.close()


__all__ = [
    "BatchOracle",
    "LoadResult",
    "ServeWorkload",
    "build_workload",
    "oracle_divergences",
    "random_query",
    "run_load",
]
