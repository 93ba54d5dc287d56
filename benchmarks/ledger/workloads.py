"""The four ledger workloads: ``storm``, ``churn``, ``epochs``, ``serve``.

Each workload makes its inputs from the seed, drives the system only
through public entry points (``read_trace``, ``Flash.verify_offline`` /
``ingest`` / ``receive``, ``ServeDaemon.start`` / ``submit_updates`` /
``ask`` / ``drain`` / ``close``) and checks its outputs against engines
that share no code with Fast IMT (``difftest.ReferenceOracle`` FIB
look-ups; for ``serve`` a single-threaded ``ModelWriter`` replay).

All loads are closed loop: one feeder thread hands in the next batch
only when the previous one returned its reports; ``serve`` adds one
query-client thread that asks its next query only after the previous
answer arrived.

Sizes: ``FULL`` is what ``BENCHMARK.json`` runs; the issue's original
sizes (≈ 8.5 / 20 / 12 / 17 s per timed region) were shrunk
proportionally so that 5-7 fresh-interpreter rounds fit in one 30 s run
(see README, "Sizes").  ``QUICK`` runs the same code paths in < 30 s for
all four workloads together.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import threading
import time
from contextlib import nullcontext
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import calibration

from repro.core.subspace import SubspacePartition
from repro.dataplane.rule import Rule
from repro.dataplane.trace import (
    inserts_only,
    read_trace,
    shuffled,
    update_to_json,
    write_trace,
)
from repro.dataplane.update import RuleUpdate, delete, insert
from repro.difftest.oracle import ReferenceOracle, forwarding_cycle
from repro.errors import ModelInvariantError, ServeSaturatedError
from repro.fibgen.addressing import rack_destinations
from repro.fibgen.ecmp import std_fib_ecmp
from repro.fibgen.shortest_path import std_fib
from repro.flash import Flash
from repro.headerspace.fields import HeaderLayout, dst_only_layout, dst_src_layout
from repro.headerspace.match import Match
from repro.network.generators import airtel, fabric
from repro.network.topology import Topology
from repro.results import Verdict
from repro.routing.openr import OpenRSimulation
from repro.serve.daemon import ServeDaemon
from repro.serve.load import BatchOracle
from repro.serve.queries import LoopQuery, Query, ReachabilityQuery, WaypointQuery
from repro.spec.requirement import requirement

FULL = {
    "storm": dict(fabric=(8, 4, 4, 2), dst=12, src=6, src_buckets=4),
    "churn": dict(fabric=(4, 4, 2, 2), dst=12, overlay=384, blocks=30, per_block=2),
    "epochs": dict(nodes=32, links=60, dst=10, link_events=10, requirements=8),
    "serve": dict(fabric=(4, 4, 2, 2), dst=12, overlay=192, blocks=16, per_block=4),
}
QUICK = {
    "storm": dict(fabric=(4, 4, 2, 2), dst=10, src=4, src_buckets=4),
    "churn": dict(fabric=(4, 4, 2, 2), dst=12, overlay=96, blocks=8, per_block=2),
    "epochs": dict(nodes=16, links=28, dst=10, link_events=3, requirements=4),
    "serve": dict(fabric=(4, 4, 2, 2), dst=12, overlay=48, blocks=5, per_block=2),
}

#: Headers sampled for the independent FIB-look-up check of a final model.
ORACLE_SAMPLES = 48


class NullTracer:
    """Stands in for :class:`~benchmarks.ledger.spans.Recorder` when tracing
    is off, so the timed loops are the same code either way."""

    _span = nullcontext()

    def span(self, name: str, op: Optional[str] = None):
        return self._span


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def digest(lines: Iterable[str]) -> str:
    """blake2b-128 over newline-terminated text lines."""
    h = hashlib.blake2b(digest_size=16)
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def canonical_model(view) -> List[Tuple[int, str]]:
    """Engine-independent form of one EC table: sorted (sat_count, actions)."""
    rows = []
    for pred, vector in view.entries():
        actions = sorted(
            (device, repr(view.action_of(vector, device)))
            for device in view.devices
        )
        rows.append((pred.sat_count(), json.dumps(actions)))
    rows.sort()
    return rows


def model_lines(views: Sequence) -> List[str]:
    return [
        f"{i}:{count}:{actions}"
        for i, view in enumerate(views)
        for count, actions in canonical_model(view)
    ]


def verdict_line(reports: Sequence) -> str:
    return ",".join(r.verdict.value for r in reports)


def group_per_device(updates: Sequence[RuleUpdate]) -> Dict[int, List[RuleUpdate]]:
    groups: Dict[int, List[RuleUpdate]] = {}
    for u in updates:
        groups.setdefault(u.device, []).append(u)
    return groups


def pod_partition(topology: Topology, layout: HeaderLayout) -> SubspacePartition:
    """One subspace per pod's destination-prefix block (§5.5)."""
    pods = sorted(
        {d.label("pod") for d in topology.devices() if d.label("pod") is not None}
    )
    racks = rack_destinations(topology)
    width = layout.field("dst").width
    plen = max(1, (len(racks) - 1).bit_length())
    racks_per_pod = len(racks) // len(pods)
    block_len = plen - max(0, (racks_per_pod - 1).bit_length())
    prefixes = [((p * racks_per_pod) << (width - plen), block_len) for p in pods]
    return SubspacePartition.dst_prefix_partition(
        layout, prefixes, names=[f"pod{p}" for p in pods]
    )


#: Seed of everything about a churn stream except where in the address
#: space it lands (see :func:`churn_inputs`).
CHURN_STRUCTURE_SEED = 0xC0FFEE


def churn_inputs(
    seed: int, topology: Topology, layout: HeaderLayout,
    overlay: int, blocks: int, per_block: int,
) -> Tuple[List[RuleUpdate], List[RuleUpdate], List[List[RuleUpdate]]]:
    """APSP base FIB, an overlay fill of random /w-4../w more-specifics,
    and steady-state blocks of ``per_block`` inserts + as many withdrawals
    (oldest overlay rule first).

    The stream's structure — devices, prefix lengths, next hops, how the
    overlay prefixes nest — comes from one fixed generator; the seed picks
    a mask that is XOR-ed onto every overlay prefix, which moves the whole
    overlay to another part of the (uniformly racked) address space.
    Seeds therefore give different inputs carrying the same amount of work:
    with fully seeded streams the predicate-operation count of the timed
    blocks varied by 5-6 % between seeds, with the mask by 0.3-0.5 %, and
    a spread that wide would be charged to every later change.
    """
    width = layout.field("dst").width
    devices = topology.switches()
    rng = random.Random(CHURN_STRUCTURE_SEED)
    mask = random.Random(seed).getrandbits(width)
    installed: List[Tuple[int, Rule]] = []

    def fresh() -> RuleUpdate:
        plen = rng.randint(width - 4, width)
        match = Match.dst_prefix(rng.getrandbits(width) ^ mask, plen, layout)
        device = rng.choice(devices)
        rule = Rule(10_000 + plen, match, rng.choice(devices))
        installed.append((device, rule))
        return insert(device, rule)

    base = inserts_only(std_fib(topology, layout))
    fill = [fresh() for _ in range(overlay)]
    out = []
    for _ in range(blocks):
        block = [fresh() for _ in range(per_block)]
        for _ in range(per_block):
            device, rule = installed.pop(0)
            block.append(delete(device, rule))
        out.append(block)
    return base, fill, out


#: Query kinds in repro.serve.load.random_query's proportions (45 % reach,
#: 25 % loop, 30 % waypoint), as a fixed cycle: every seed asks the same mix
#: in the same order and only the parameters are drawn, so the writer's
#: share of the GIL does not hinge on which kinds a seed happens to draw.
QUERY_CYCLE = "rlwrwrlrwr" "rlwrlwrlwr"


def serve_queries(
    rng: random.Random, topology: Topology, layout: HeaderLayout, count: int
) -> List[Query]:
    switches = sorted(topology.switches())
    width = layout.field("dst").width
    out: List[Query] = []
    for i in range(count):
        scope = None
        if (i * 7) % len(QUERY_CYCLE) < len(QUERY_CYCLE) // 2:  # half, fixed slots
            scope = Match.dst_prefix(rng.getrandbits(width), rng.randint(1, 4), layout)
        kind = QUERY_CYCLE[i % len(QUERY_CYCLE)]
        source = rng.choice(switches)
        if kind == "r":
            out.append(ReachabilityQuery(source, scope))
        elif kind == "l":
            out.append(LoopQuery(scope))
        else:
            waypoint = rng.choice([s for s in switches if s != source])
            out.append(WaypointQuery(source, waypoint, scope))
    return out


def sample_headers(
    rng: random.Random, layout: HeaderLayout, anchors: Sequence[Match], count: int
) -> List[Dict[str, int]]:
    """Half uniform headers, half drawn inside ``anchors`` (rule matches), so
    small more-specific prefixes are actually probed."""
    out: List[Dict[str, int]] = []
    for i in range(count):
        values = {f.name: rng.getrandbits(f.width) for f in layout.fields}
        if anchors and i % 2:
            match = rng.choice(anchors)
            for name, pattern in match.patterns.items():
                f = layout.field(name)
                value, mask = pattern.ternaries[0]
                values[name] = (value & mask) | (values[name] & ~mask & f.max_value)
        out.append(values)
    return out


def check_models(
    views: Sequence, topology: Topology, layout: HeaderLayout,
    installed: Sequence[RuleUpdate], rng: random.Random,
    loop_free: bool = False,
) -> List[str]:
    """Compare final EC tables with brute-force FIB look-ups on sampled
    headers; returns the mismatches (empty = agree).

    ``installed`` is every update the model received, in order.  With
    ``loop_free=True`` (the system reported "no loop") no sampled header
    may have a forwarding cycle either.
    """
    oracle = ReferenceOracle(topology, layout)
    oracle.process_updates(installed)
    anchors = [u.rule.match for u in installed[-256:] if u.is_insert]
    problems: List[str] = []
    for values in sample_headers(rng, layout, anchors, ORACLE_SAMPLES):
        assignment = dict(
            bit for name, value in values.items()
            for bit in layout.bits_of(name, value)
        )
        expected = oracle.behavior(values)
        owners = [v for v in views if v.universe.evaluate(assignment)]
        if len(owners) > 1:
            problems.append(f"header {values} lies in {len(owners)} subspaces")
        for view in owners:
            try:
                got = view.behavior(assignment)
            except ModelInvariantError as exc:
                problems.append(f"header {values}: {exc}")
                continue
            if got != expected:
                problems.append(f"header {values}: model disagrees with FIB look-up")
        if loop_free and forwarding_cycle(topology, expected.__getitem__):
            problems.append(f"header {values} loops but no loop was reported")
    return problems


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """One workload's round: ``setup`` → ``timed`` → ``verify`` → ``close``."""

    name = ""

    def __init__(self, seed: int, quick: bool, workdir: str, tracer=None) -> None:
        self.seed = seed
        self.size = (QUICK if quick else FULL)[self.name]
        self.workdir = workdir
        self.tracer = tracer if tracer is not None else NullTracer()
        self.rng = random.Random(seed)
        self.calibrator = calibration.Calibrator()
        self.latencies: List[float] = []  # seconds, one per operation
        self.updates = 0  # native rule updates delivered in the timed region
        self.flash: Optional[Flash] = None  # the three Flash-driven workloads
        self.input_digest = ""
        self.output_digest = ""

    def setup(self) -> None:
        raise NotImplementedError

    def timed(self) -> None:
        raise NotImplementedError

    def verify(self) -> Tuple[int, int, List[str]]:
        """(attempted, failed, problems) — runs outside the timed region."""
        raise NotImplementedError

    def final_state(self) -> Tuple[List, List[RuleUpdate]]:
        """The final EC tables (one read view per subspace) and every update
        they received, in order — what the independent checks compare."""
        raise NotImplementedError

    def wall_seconds(self, elapsed: float) -> float:
        """The timed region's wall, given how long ``timed()`` took: speed
        samples taken between operations are not the system's time."""
        return elapsed - self.calibrator.spent

    def counters(self) -> Dict[str, float]:
        """The system's public registry counters right now."""
        if self.flash is None:
            return {}
        return dict(self.flash.telemetry.registry.snapshot()["counters"])

    def facts(self) -> Dict[str, float]:
        """Per-layer counts only the workload can know."""
        return {}

    def close(self) -> None:
        pass

    # -- shared by the three Flash-driven workloads ---------------------
    def _between_ops(self) -> None:
        """Speed sample between two operations, every quarter second."""
        if self.calibrator.due():
            with self.tracer.span("bench.calibrate"):
                self.calibrator.sample()

    def _verdict_facts(self, per_op_reports: Sequence[Sequence]) -> Dict[str, float]:
        return {
            "ce2d.verdicts_deterministic": sum(
                1 for reports in per_op_reports for r in reports
                if r.verdict is not Verdict.UNKNOWN
            )
        }


class Storm(Workload):
    name = "storm"

    def setup(self) -> None:
        s = self.size
        self.topology = fabric(*s["fabric"], name="LNet")
        self.layout = dst_src_layout(s["dst"], s["src"])
        rules = std_fib_ecmp(self.topology, self.layout, src_buckets=s["src_buckets"])
        self.partition = pod_partition(self.topology, self.layout)
        self.sent = shuffled(inserts_only(rules), seed=self.seed)
        self.path = os.path.join(self.workdir, "storm.jsonl")
        write_trace(self.path, self.sent)
        with open(self.path, "rb") as f:
            self.input_digest = hashlib.blake2b(f.read(), digest_size=16).hexdigest()
        self.reports: List[List] = []

    def timed(self) -> None:
        tracer, clock = self.tracer, time.perf_counter
        with tracer.span("dataplane.parse"):
            updates = list(read_trace(self.path))
        self.flash = flash = Flash(
            self.topology, self.layout, check_loops=True, partition=self.partition
        )
        # Exactly verify_offline's feeding: one batch per switch, silent
        # switches synchronise with an empty batch.
        per_device: Dict[int, List[RuleUpdate]] = {
            d: [] for d in self.topology.switches()
        }
        for u in updates:
            per_device.setdefault(u.device, []).append(u)
        for device, batch in per_device.items():
            with tracer.span("bench.op", op=f"device-{device}"):
                t = clock()
                reports = flash.ingest(device, batch, epoch="storm")
                self.latencies.append(clock() - t)
            self.reports.append(reports)
            self._between_ops()
        self.updates = len(updates)

    def final_state(self) -> Tuple[List, List[RuleUpdate]]:
        group = self.flash.dispatcher.latest_verifier()
        return [member.read_view() for member in group.members], self.sent

    def verify(self) -> Tuple[int, int, List[str]]:
        problems: List[str] = []
        final = self.reports[-1]
        if len(final) != len(self.partition.subspaces):
            problems.append(f"{len(final)} final verdicts for "
                            f"{len(self.partition.subspaces)} subspaces")
        if any(r.verdict is Verdict.UNKNOWN for r in final):
            problems.append("a subspace has no deterministic loop verdict")
        views, sent = self.final_state()
        loop_free = all(r.verdict is Verdict.SATISFIED for r in final)
        problems += check_models(
            views, self.topology, self.layout, sent, self.rng, loop_free
        )
        self.output_digest = digest(
            [verdict_line(r) for r in self.reports] + model_lines(views)
        )
        attempted = len(self.reports)
        return attempted, attempted if problems else 0, problems

    def facts(self) -> Dict[str, float]:
        out = self._verdict_facts(self.reports)
        out["dataplane.parse_updates"] = self.updates
        out["dataplane.trace_bytes"] = os.path.getsize(self.path)
        out["core.ecs_final"] = sum(v.num_ecs() for v in self.final_state()[0])
        out["ce2d.early_verdict_ratio"] = 0.0  # "no loop" needs every device
        return out


class Churn(Workload):
    name = "churn"
    epoch = "churn"

    def setup(self) -> None:
        s = self.size
        self.topology = fabric(*s["fabric"])
        self.layout = dst_only_layout(s["dst"])
        self.base, self.fill, self.blocks = churn_inputs(
            self.seed, self.topology, self.layout,
            s["overlay"], s["blocks"], s["per_block"],
        )
        self.input_digest = digest(
            update_to_json(u)
            for part in [self.base, self.fill] + self.blocks for u in part
        )
        self.flash = Flash(self.topology, self.layout, check_loops=True)
        self.flash.verify_offline(self.base, epoch=self.epoch)
        self._feed(self.fill)
        self.reports: List[List] = []

    def _feed(self, updates: Sequence[RuleUpdate]) -> List:
        reports: List = []
        for device, batch in group_per_device(updates).items():
            reports = self.flash.ingest(device, batch, epoch=self.epoch)
        return reports

    def timed(self) -> None:
        tracer, clock = self.tracer, time.perf_counter
        for i, block in enumerate(self.blocks):
            with tracer.span("bench.op", op=f"block-{i}"):
                t = clock()
                reports = self._feed(block)
                self.latencies.append(clock() - t)
            self.reports.append(reports)
            self.updates += len(block)
            self._between_ops()

    def final_state(self) -> Tuple[List, List[RuleUpdate]]:
        sent = self.base + self.fill + [u for b in self.blocks for u in b]
        return [self.flash.read_view()], sent

    def verify(self) -> Tuple[int, int, List[str]]:
        problems: List[str] = []
        for i, reports in enumerate(self.reports):
            if not reports or any(r.verdict is Verdict.UNKNOWN for r in reports):
                problems.append(f"block {i} returned no deterministic verdict")
        views, sent = self.final_state()
        problems += check_models(views, self.topology, self.layout, sent, self.rng)
        self.output_digest = digest(
            [verdict_line(r) for r in self.reports] + model_lines(views)
        )
        attempted = len(self.reports)
        return attempted, attempted if problems else 0, problems

    def facts(self) -> Dict[str, float]:
        out = self._verdict_facts(self.reports)
        out["core.ecs_final"] = self.flash.read_view().num_ecs()
        out["ce2d.early_verdict_ratio"] = 0.0  # one epoch, synchronised in set-up
        return out


class Epochs(Workload):
    name = "epochs"

    def setup(self) -> None:
        s = self.size
        topo = airtel(n=s["nodes"], links=s["links"])
        switches = topo.switches()
        for switch in switches:
            topo.add_link(switch, topo.add_external(f"h_{topo.name_of(switch)}"))
        self.topology = topo
        self.layout = dst_only_layout(s["dst"])
        sim = OpenRSimulation(topo, self.layout, seed=self.seed)
        sim.bootstrap()
        links = [
            (u, v) for u, v in topo.links()
            if not topo.device(u).is_external and not topo.device(v).is_external
        ]
        # Which links fail is fixed, so every seed carries the same amount
        # of routing work; the seed sets the send jitter (hence the arrival
        # order of the batches) and the requirements.
        events = random.Random(0xE90C)
        for i in range(s["link_events"]):
            u, v = events.choice(links)
            sim.fail_link(u, v, at=1.0 + i)
            sim.recover_link(u, v, at=1.5 + i)
        sim.run()
        self.batches = sim.batches
        requirements = []
        for i in range(s["requirements"]):
            dest = self.rng.choice(sim.destinations)
            source = self.rng.choice([d for d in switches if d != dest.owner])
            src, dst = topo.name_of(source), topo.name_of(dest.owner)
            requirements.append(requirement(
                f"reach-{i}", topo, self.layout,
                Match.dst_prefix(dest.value, dest.length, self.layout),
                [src], f"{src} .* {dst}",
            ))
        self.input_digest = digest(
            [f"{b.time!r}:{b.device}:{b.tag}:" + "|".join(map(update_to_json, b.updates))
             for b in self.batches]
            + [f"{r.name}:{r.sources}:{r.packet_space!r}" for r in requirements]
        )
        self.flash = Flash(topo, self.layout, requirements=requirements,
                           check_loops=True)
        self.reports: List[List] = []

    def timed(self) -> None:
        tracer, clock = self.tracer, time.perf_counter
        flash = self.flash
        for i, b in enumerate(self.batches):
            with tracer.span("bench.op", op=f"batch-{i}"):
                t = clock()
                reports = flash.receive(b.device, b.tag, b.updates, now=b.time)
                self.latencies.append(clock() - t)
            self.reports.append(reports)
            self.updates += len(b.updates)
            self._between_ops()

    def final_state(self) -> Tuple[List, List[RuleUpdate]]:
        """The newest epoch's model and exactly what its verifier was fed:
        every device's log through its last batch carrying that tag."""
        group = self.flash.dispatcher.latest_verifier()
        fed: List[RuleUpdate] = []
        for device in self.topology.switches():
            log = [b for b in self.batches if b.device == device]
            last = max((i for i, b in enumerate(log) if b.tag == group.epoch), default=-1)
            for b in log[: last + 1]:
                fed.extend(b.updates)
        return [group.read_view()], fed

    def verify(self) -> Tuple[int, int, List[str]]:
        problems: List[str] = []
        views, fed = self.final_state()
        group = self.flash.dispatcher.latest_verifier()
        if group.num_synced != len(self.topology.switches()):
            problems.append("the converged epoch is not fully synchronised")
        if any(r.verdict is Verdict.UNKNOWN for r in self.reports[-1]):
            problems.append("the last batch left a verdict undetermined")
        problems += check_models(views, self.topology, self.layout, fed, self.rng)
        self.output_digest = digest(
            [f"{r.epoch}:{verdict_line(reports)}"
             for reports in self.reports for r in reports[:1]]
            + model_lines(views)
        )
        attempted = len(self.reports)
        return attempted, attempted if problems else 0, problems

    def facts(self) -> Dict[str, float]:
        out = self._verdict_facts(self.reports)
        switches = len(self.topology.switches())
        synced: Dict[str, set] = {}
        early = set()
        for b, reports in zip(self.batches, self.reports):
            synced.setdefault(b.tag, set()).add(b.device)
            for r in reports:
                if (r.verdict is not Verdict.UNKNOWN
                        and len(synced.get(r.epoch, ())) < switches):
                    early.add(r.epoch)
        out["ce2d.early_verdict_ratio"] = len(early) / max(1, len(synced))
        out["core.ecs_final"] = self.flash.read_view().num_ecs()
        return out


class Serve(Workload):
    name = "serve"
    QUERY_POOL = 2048
    SWITCH_INTERVAL_S = 0.001

    def setup(self) -> None:
        s = self.size
        self.topology = fabric(*s["fabric"])
        self.layout = dst_only_layout(s["dst"])
        base, fill, self.blocks = churn_inputs(
            self.seed, self.topology, self.layout,
            s["overlay"], s["blocks"], s["per_block"],
        )
        self.first = base + fill
        self.queries = serve_queries(
            self.rng, self.topology, self.layout, self.QUERY_POOL
        )
        self.input_digest = digest(
            [update_to_json(u) for part in [self.first] + self.blocks for u in part]
            + [repr(q) for q in self.queries]
        )
        # With the interpreter's default 5 ms slice the writer's share of the
        # lock hinges on whether a query happens to finish inside one slice,
        # so the split flips with the machine's speed of the minute (rounds'
        # wall/speed ratio spread 9 %; 5 % at 1 ms, 2.4 % vs 6.4 % over
        # five-round medians).  The daemon's host process sets it, as a
        # deployment would.
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(self.SWITCH_INTERVAL_S)
        self.daemon = ServeDaemon(
            self.topology, self.layout, isolation="copy", workers=2, queue_size=8
        ).start()
        # Base + overlay fill is batch 1.  drain() would close intake, so
        # wait for serve epoch 1 by polling instead.
        self.daemon.submit_updates(self.first, timeout=30.0)
        while self.daemon.epoch != 1:
            if self.daemon.failures:
                raise RuntimeError(f"base install failed: {self.daemon.failures[0].error}")
            time.sleep(0.001)
        self.daemon.ask(self.queries[-1])  # warm the pool threads
        self.results: List[Tuple[int, object]] = []  # (query index, QueryResult)
        self.errors: List[str] = []
        self.rejected = 0
        self.cache_before = (self.daemon.cache.hits, self.daemon.cache.misses)

    def timed(self) -> None:
        tracer, clock = self.tracer, time.perf_counter
        daemon, queries = self.daemon, self.queries
        drained = threading.Event()

        def writer() -> None:
            try:
                for block in self.blocks:
                    while True:
                        try:
                            daemon.submit_updates(block)
                            break
                        except ServeSaturatedError:
                            self.rejected += 1
                            time.sleep(0.002)
                daemon.drain()
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                self.errors.append(f"writer: {type(exc).__name__}: {exc}")
            finally:
                drained.set()

        def client() -> None:
            i = 0
            try:
                while not drained.is_set():
                    qi = i % len(queries)
                    query = queries[qi]
                    with tracer.span("bench.op", op=f"query-{i}") as span:
                        if span is not None:
                            tracer.bind(query, f"query-{i}", span.id)
                        t = clock()
                        result = daemon.ask(query)
                        self.latencies.append(clock() - t)
                    self.results.append((qi, result))
                    i += 1
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                self.errors.append(f"client: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=writer, name="bench-writer"),
            threading.Thread(target=client, name="bench-client"),
        ]
        start = clock()
        for t in threads:
            t.start()
        # This thread has nothing to do until the drain returns, so it takes
        # the speed samples (in its own CPU time: it shares the interpreter
        # lock with the writer and the query workers).
        while not drained.wait(timeout=calibration.EVERY_S):
            with tracer.span("bench.calibrate"):
                self.calibrator.sample(clock=time.thread_time)
        self.drained_after = clock() - start  # storm submitted → model quiescent
        for t in threads:
            t.join()
        self.updates = sum(len(b) for b in self.blocks)
        self.cache_after = (daemon.cache.hits, daemon.cache.misses)

    def wall_seconds(self, elapsed: float) -> float:
        # The region ends when the drain returns, not when the client's last
        # query does; the speed samples ran beside it, not inside it.
        return self.drained_after

    def final_state(self) -> Tuple[List, List[RuleUpdate]]:
        sent = self.first + [u for b in self.blocks for u in b]
        return [self.daemon.verifier.read_view()], sent

    def verify(self) -> Tuple[int, int, List[str]]:
        problems = list(self.errors)
        problems += [f"ingest failed: {f.error}" for f in self.daemon.failures]
        final_epoch = self.daemon.epoch or 0
        if final_epoch != 1 + len(self.blocks):
            problems.append(f"final serve epoch {final_epoch}, expected "
                            f"{1 + len(self.blocks)}")
        oracle = BatchOracle(self.topology, self.layout, [self.first] + self.blocks)
        expected: Dict[Tuple[int, int], object] = {}
        divergent = 0
        for qi, result in sorted(self.results, key=lambda item: item[1].epoch):
            key = (result.epoch, qi)
            if key not in expected:
                expected[key] = result.query.evaluate(
                    oracle.view_at(result.epoch), self.topology
                )
            if expected[key] != result.answer:
                divergent += 1
                problems.append(f"epoch {result.epoch}: {result.query!r} diverges")
        final = oracle.view_at(len(self.blocks) + 1)
        (served,), sent = self.final_state()
        if canonical_model(served) != canonical_model(final):
            problems.append("served model differs from the single-threaded replay")
        problems += check_models([served], self.topology, self.layout, sent, self.rng)
        self.output_digest = digest(model_lines([served]))
        attempted = len(self.results) + len(self.blocks)
        failed = attempted if len(problems) > divergent else divergent
        return attempted, failed, problems

    def counters(self) -> Dict[str, float]:
        return dict(self.daemon.telemetry.registry.snapshot()["counters"])

    def facts(self) -> Dict[str, float]:
        final_epoch = self.daemon.epoch or 0
        hits = self.cache_after[0] - self.cache_before[0]
        misses = self.cache_after[1] - self.cache_before[1]
        epochs = {r.epoch for _, r in self.results}
        return {
            "core.ecs_final": self.daemon.verifier.read_view().num_ecs(),
            "serve.cache_hit_ratio": hits / max(1, hits + misses),
            "serve.ingest_rejected": self.rejected,
            "serve.epochs_published": final_epoch - 1,
            "serve.distinct_epochs_read": len(epochs),
            "serve.mid_storm_queries": sum(
                1 for _, r in self.results if r.epoch < final_epoch
            ),
        }

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)  # set-up may have failed early
        if daemon is not None:
            daemon.close()
            sys.setswitchinterval(self._switch_interval)


WORKLOADS = {cls.name: cls for cls in (Storm, Churn, Epochs, Serve)}
