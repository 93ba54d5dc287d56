"""Command-line interface: generate traces, verify them, run simulations.

Examples
--------
Generate an update trace for a fabric data plane and verify it::

    python -m repro generate --topology fabric --fib ecmp --out trace.jsonl
    python -m repro verify --topology fabric --trace trace.jsonl

Run the OpenR early-detection demo with a buggy switch::

    python -m repro simulate --topology internet2 --buggy kans --dampen seat
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple

from .baselines.apkeep import APKeepVerifier
from .baselines.deltanet import DeltaNetVerifier
from .telemetry import JsonLinesExporter, Telemetry
from .core.model_manager import ModelWriter
from .dataplane.trace import inserts_only, insert_then_delete, read_trace, write_trace
from .errors import ReproError
from .fibgen.ecmp import std_fib_ecmp
from .fibgen.shortest_path import std_fib
from .fibgen.suffix import std_fib_suffix
from .flash import Flash
from .headerspace.fields import dst_only_layout, dst_src_layout
from .network import generators
from .network.topology import Topology
from .routing.openr import OpenRSimulation

_TOPOLOGIES = {
    "fabric": lambda args: generators.fabric(
        pods=args.pods, tors_per_pod=args.tors, fabrics_per_pod=2, spines_per_plane=2
    ),
    "fattree": lambda args: generators.fat_tree(args.pods),
    "internet2": lambda args: generators.internet2(),
    "stanford": lambda args: generators.stanford(),
    "airtel": lambda args: generators.airtel(),
}


def _build_topology(args) -> Topology:
    try:
        factory = _TOPOLOGIES[args.topology]
    except KeyError:
        raise ReproError(
            f"unknown topology {args.topology!r}; pick from {sorted(_TOPOLOGIES)}"
        ) from None
    return factory(args)


def _build_layout(args):
    if args.fib == "ecmp":
        return dst_src_layout(args.dst_bits, 4)
    return dst_only_layout(args.dst_bits)


def _attach_loopbacks(topo: Topology) -> None:
    if topo.externals():
        return
    for switch in list(topo.switches()):
        host = topo.add_external(f"h_{topo.name_of(switch)}")
        topo.add_link(switch, host)


def cmd_generate(args) -> int:
    topo = _build_topology(args)
    _attach_loopbacks(topo)
    layout = _build_layout(args)
    if args.fib == "apsp":
        rules = std_fib(topo, layout)
    elif args.fib == "ecmp":
        rules = std_fib_ecmp(topo, layout)
    elif args.fib == "smr":
        rules = std_fib_suffix(topo, layout)
    else:
        raise ReproError(f"unknown fib pattern {args.fib!r}")
    trace = (
        insert_then_delete(rules) if args.insert_then_delete else inserts_only(rules)
    )
    count = write_trace(args.out, trace)
    print(f"wrote {count} updates for {topo.num_devices} devices to {args.out}")
    return 0


def _export_telemetry(path, telemetry, label, reports=()) -> None:
    try:
        lines = JsonLinesExporter(path).export(
            telemetry, label=label, reports=reports
        )
    except OSError as exc:
        raise ReproError(f"cannot write telemetry file {path!r}: {exc}") from exc
    print(f"telemetry: {lines} records appended to {path}")


def cmd_verify(args) -> int:
    topo = _build_topology(args)
    _attach_loopbacks(topo)
    layout = _build_layout(args)
    updates = list(read_trace(args.trace))
    print(f"verifying {len(updates)} updates with {args.engine} ...")
    telemetry = Telemetry()
    start = time.perf_counter()
    reports = []
    if args.engine == "flash":
        flash = Flash(topo, layout, check_loops=True, telemetry=telemetry)
        flash.verify_offline(updates)
        elapsed = time.perf_counter() - start
        reports = flash.deterministic_reports()
        violation = flash.first_violation()
        if violation is not None:
            print(f"VIOLATED: {violation!r}")
        else:
            print("no violations: the converged data plane is loop-free")
    elif args.engine == "apkeep":
        verifier = APKeepVerifier(
            topo.switches(), layout, registry=telemetry.registry
        )
        verifier.process_updates(updates)
        elapsed = time.perf_counter() - start
        print(f"model built: {verifier.num_ecs()} ECs, "
              f"{verifier.metrics.total} predicate ops")
    elif args.engine == "deltanet":
        verifier = DeltaNetVerifier(
            topo.switches(), layout, registry=telemetry.registry
        )
        verifier.process_updates(updates)
        elapsed = time.perf_counter() - start
        print(f"model built: {verifier.num_atoms} atoms, "
              f"{verifier.metrics.extra.get('atom_ops', 0)} atom ops")
    else:
        raise ReproError(f"unknown engine {args.engine!r}")
    print(f"took {elapsed:.3f}s")
    if args.telemetry:
        _export_telemetry(
            args.telemetry, telemetry, f"verify:{args.engine}", reports
        )
    return 0


def cmd_analyze(args) -> int:
    """Operator queries over a verified trace: ECs, blackholes, traces."""
    from .analysis import ec_summary, find_blackholes, trace_header

    topo = _build_topology(args)
    _attach_loopbacks(topo)
    # An unknown --trace-from name fails before any model is built or
    # printed.
    source = None if args.trace_from is None else topo.id_of(args.trace_from)
    layout = _build_layout(args)
    updates = list(read_trace(args.trace))
    manager = ModelWriter(topo.switches(), layout)
    manager.submit(updates)
    manager.flush()
    print(f"model: {manager.num_ecs()} equivalence classes from "
          f"{len(updates)} updates\n")
    print("inverse model (largest ECs first):")
    for line in ec_summary(manager, topo, limit=args.limit):
        print(f"  {line}")
    holes = find_blackholes(manager, topo)
    if holes:
        from .headerspace.format import format_predicate

        print("\nblackholes:")
        for hole in holes[: args.limit]:
            space = format_predicate(hole.header_space, layout, limit=4)
            print(f"  {topo.name_of(hole.device)}: {hole.headers()} headers "
                  f"dropped ({space})")
    else:
        print("\nno blackholes")
    if source is not None:
        values = {"dst": args.trace_dst}
        result = trace_header(manager, topo, source, values)
        names = [topo.name_of(d) for d in result.path]
        print(f"\ntrace dst={args.trace_dst} from {args.trace_from}: "
              f"{' -> '.join(names)} [{result.outcome}]")
    return 0


def _fuzz_runners(args, telemetry) -> List:
    """The (label, runner) pairs one fuzz invocation cycles through."""
    from .difftest import ChaosRunner, DifferentialRunner, InterleaveRunner
    from .resilience import FAULT_PROFILES

    if args.interleave:
        runner = InterleaveRunner(
            telemetry=telemetry,
            max_orders=args.max_orders,
            block_tail=args.block_tail,
        )
        return [("interleave", runner)]
    if not args.chaos:
        return [("diff", DifferentialRunner(telemetry=telemetry))]
    if args.fault_profile == "all":
        names = sorted(FAULT_PROFILES)
    else:
        names = [args.fault_profile]
    return [
        (f"chaos:{name}", ChaosRunner(profile=name, seed=args.seed, telemetry=telemetry))
        for name in names
    ]


def cmd_fuzz(args) -> int:
    """Differential fuzzing: cross-check every engine on random scenarios.

    With ``--chaos``, scenarios are corrupted by a seeded
    :class:`~repro.resilience.FaultInjector` and replayed through
    supervised (``repair``/``quarantine``) ingestion instead; the
    asserted property is convergence to the oracle's verdicts on the
    clean stream (the self-healing property).

    With ``--interleave``, each scenario's trailing update block is
    model-checked instead: every inequivalent interleaving (partial-
    order reduction over commuting updates) is replayed through
    flash-incr and the dispatcher/epoch path, with the requirement and
    loop invariants asserted in every intermediate state against the
    brute-force oracle — plus an exhaustive-vs-reduced POR soundness
    self-check on small blocks.
    """
    from .difftest import InterleaveShrinker, ScenarioGenerator, Shrinker, save_case

    telemetry = Telemetry()
    generator = ScenarioGenerator(seed=args.seed, profile=args.profile)
    runners = _fuzz_runners(args, telemetry)
    if args.interleave:
        mode = "interleave"
    elif args.chaos:
        mode = f"chaos (fault profile: {args.fault_profile})"
    else:
        mode = "diff"
    shrinker_cls = InterleaveShrinker if args.interleave else Shrinker
    print(
        f"fuzzing [{mode}]: profile={args.profile} seed={args.seed} "
        f"iterations={args.iterations}"
    )
    start = time.perf_counter()
    divergent = 0
    replayed = 0
    budget_hit = False
    for index, scenario in enumerate(generator.stream(args.iterations)):
        for label, runner in runners:
            if (
                args.time_budget is not None
                and time.perf_counter() - start > args.time_budget
            ):
                print(f"time budget ({args.time_budget:.0f}s) reached "
                      f"after {replayed} replays ({index} scenarios)")
                budget_hit = True
                break
            result = runner.run(scenario)
            replayed += 1
            if result.ok:
                continue
            divergent += 1
            print(f"DIVERGENCE [{label}] in {scenario.name} "
                  f"({len(result.divergences)} findings, kinds: "
                  f"{', '.join(result.kinds)})")
            for item in result.divergences[:5]:
                print(f"  {item!r}")
            shrunk, shrunk_result = shrinker_cls(runner).shrink(
                scenario, result
            )
            print(f"  shrunk to {len(shrunk.updates)} updates / "
                  f"{len(shrunk.requirements)} requirements")
            if args.corpus:
                path = save_case(
                    runner.case_for(shrunk, shrunk_result), args.corpus
                )
                print(f"  saved reproducer to {path}")
        if budget_hit or divergent >= args.max_divergences:
            if divergent >= args.max_divergences:
                print("stopping: --max-divergences reached")
            break
    elapsed = time.perf_counter() - start
    print(f"{replayed} replays in {elapsed:.1f}s: {divergent} divergent")
    if args.chaos:
        fallbacks = telemetry.registry.value("resilience.fallback.count")
        print(f"recovery fallbacks: {fallbacks}")
    if args.interleave:
        counters = telemetry.registry.snapshot()["counters"]
        explored = counters.get("difftest.interleave.orders_explored", 0)
        pruned = counters.get("difftest.interleave.orders_pruned", 0)
        states = counters.get("difftest.interleave.states_checked", 0)
        sig_hits = counters.get("difftest.interleave.commute.sig_hits", 0)
        selfchecks = counters.get("difftest.interleave.selfcheck.runs", 0)
        failures = counters.get("difftest.interleave.selfcheck.failures", 0)
        print(
            f"interleavings: {explored} explored, {pruned} pruned "
            f"(commute sig hits: {sig_hits}); {states} intermediate "
            f"states checked; POR self-checks: {selfchecks} run, "
            f"{failures} failed"
        )
    if args.telemetry:
        if args.interleave:
            label = f"fuzz:interleave:{args.profile}"
        else:
            label = f"fuzz:{'chaos:' if args.chaos else ''}{args.profile}"
        _export_telemetry(args.telemetry, telemetry, label)
    return 1 if divergent else 0


def cmd_simulate(args) -> int:
    topo = _build_topology(args)
    layout = dst_only_layout(args.dst_bits)
    buggy = [topo.id_of(args.buggy)] if args.buggy else []
    dampening = {topo.id_of(args.dampen): args.dampen_seconds} if args.dampen else {}
    sim = OpenRSimulation(
        topo, layout, buggy_nodes=buggy, dampening=dampening, seed=args.seed
    )
    flash = Flash(topo, layout, check_loops=True, telemetry=Telemetry())
    flash.attach_to(sim)
    sim.bootstrap()
    sim.run()
    if args.fail_link:
        u, v = args.fail_link
        sim.fail_link_by_name(u, v, at=sim.loop.now + 0.1)
        sim.run()
    print(f"{len(sim.batches)} FIB batches delivered")
    deterministic = flash.deterministic_reports()
    if not deterministic:
        print("no deterministic verdicts yet (network still converging)")
    for report in deterministic:  # one line per live epoch and checker
        stamp = f"t={report.time:.3f}s" if report.time is not None else ""
        print(f"{stamp}  epoch {str(report.epoch)[:8]}  {report.verdict.value}")
    if args.telemetry:
        _export_telemetry(
            args.telemetry, flash.telemetry, "simulate", deterministic
        )
    # The latch, not the state: a violation in an epoch that has since
    # closed still fails the run.
    return 1 if flash.first_violation() is not None else 0


def cmd_serve(args) -> int:
    """Run the serve-load demo: clients vs. storm, oracle-checked."""
    # Lazy import: the serve stack (threads, daemon machinery) should not
    # tax the other subcommands' startup.
    from .serve.daemon import install_signal_handlers
    from .serve.load import build_workload, run_load

    telemetry = Telemetry()
    workload = build_workload(args.seed, args.quick)
    result = run_load(
        workload,
        seed=args.seed,
        workers=args.workers,
        queue_size=args.queue_size,
        query_deadline=args.query_deadline,
        telemetry=telemetry,
        # SIGTERM/SIGINT drain the daemon and finish queued batches
        # instead of killing it mid-apply.
        on_start=install_signal_handlers,
    )
    print(
        f"served {result.queries} queries at {result.qps:.0f} qps "
        f"(p50 {result.p50_ms:.2f}ms, p99 {result.p99_ms:.2f}ms) while "
        f"ingesting {result.final_epoch} epochs"
    )
    print(
        f"mid-storm answers: {result.mid_storm_queries} across "
        f"{result.distinct_epochs} distinct snapshots; cache hit rate "
        f"{result.cache_hit_rate:.2f}; backpressure rejections "
        f"{result.rejected}"
    )
    for d in result.divergences[:5]:
        print(f"DIVERGENCE: {d}", file=sys.stderr)
    # The invariants that transfer across hardware; CI gates on this
    # exit status.
    expected = workload.clients * workload.queries_per_client
    broken = []
    if result.divergences:
        broken.append(
            f"{len(result.divergences)} answers diverged from the batch "
            "oracle"
        )
    if result.ingest_failures:
        broken.append(
            f"{result.ingest_failures} ingest batches failed to apply"
        )
    if result.queries != expected:
        broken.append(f"served {result.queries} of {expected} queries")
    if result.final_epoch < 2:
        broken.append(
            f"only {result.final_epoch} epochs: the storm never advanced "
            "the model"
        )
    # Export before deciding the exit status: a failed run's telemetry is
    # what an operator debugs it with.
    if args.telemetry:
        _export_telemetry(args.telemetry, telemetry, "serve")
    if broken:
        for line in broken:
            print(line, file=sys.stderr)
        return 1
    print("every served answer equals the batch oracle at its pinned epoch")
    return 0


def _positive(number):
    """An argparse ``type`` accepting only ``number`` values above zero."""

    def parse(text: str):
        value = number(text)  # ValueError is argparse's "invalid value"
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = f"positive {number.__name__}"
    return parse


def _link(text: str) -> Tuple[str, str]:
    """An argparse ``type``: a link named ``NAME-NAME``."""
    names = text.split("-")
    if len(names) != 2 or not all(names):
        raise argparse.ArgumentTypeError(
            f"expected two device names as NAME-NAME, got {text!r}"
        )
    return names[0], names[1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flash data plane verification (SIGCOMM 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--topology", default="fabric", help="topology family")
        p.add_argument("--pods", type=int, default=4)
        p.add_argument("--tors", type=int, default=4)
        p.add_argument("--dst-bits", type=int, default=10, dest="dst_bits")
        p.add_argument("--fib", default="apsp", choices=["apsp", "ecmp", "smr"])

    gen = sub.add_parser("generate", help="generate an update trace")
    common(gen)
    gen.add_argument("--out", required=True)
    gen.add_argument(
        "--insert-then-delete", action="store_true", help="Table-2 trace style"
    )
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="verify a trace file")
    common(ver)
    ver.add_argument("--trace", required=True)
    ver.add_argument(
        "--engine", default="flash", choices=["flash", "apkeep", "deltanet"]
    )
    ver.add_argument(
        "--telemetry", default=None, metavar="OUT.JSONL",
        help="append metric/report records to a JSON-lines file",
    )
    ver.set_defaults(func=cmd_verify)

    ana = sub.add_parser("analyze", help="query a verified trace")
    common(ana)
    ana.add_argument("--trace", required=True)
    ana.add_argument("--limit", type=_positive(int), default=10)
    ana.add_argument("--trace-from", default=None, dest="trace_from",
                     help="device name to trace a header from")
    ana.add_argument("--trace-dst", type=int, default=0, dest="trace_dst")
    ana.set_defaults(func=cmd_analyze)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing across all verification engines"
    )
    fuzz.add_argument("--seed", type=int, default=1234)
    fuzz.add_argument("--iterations", type=_positive(int), default=50)
    fuzz.add_argument("--profile", default="smoke", choices=["smoke", "deep"])
    mode = fuzz.add_mutually_exclusive_group()
    mode.add_argument(
        "--chaos", action="store_true",
        help="inject faults and assert supervised ingestion still "
        "converges to the oracle (the self-healing property)",
    )
    fuzz.add_argument(
        "--fault-profile", default="mixed", dest="fault_profile",
        help="chaos fault profile name, or 'all' to cycle every profile "
        "(see repro.resilience.FAULT_PROFILES)",
    )
    mode.add_argument(
        "--interleave", action="store_true",
        help="model-check update orders: explore inequivalent "
        "interleavings of each scenario's trailing block (partial-order "
        "reduction) and assert invariants in every intermediate state",
    )
    fuzz.add_argument(
        "--max-orders", type=int, default=8, dest="max_orders",
        help="interleave mode: replay at most this many inequivalent "
        "orders per scenario",
    )
    fuzz.add_argument(
        "--block-tail", type=int, default=8, dest="block_tail",
        help="interleave mode: treat the last N updates as the "
        "concurrent block (small values enable the exhaustive POR "
        "soundness self-check)",
    )
    fuzz.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="directory to save shrunken divergent scenarios into",
    )
    fuzz.add_argument(
        "--max-divergences", type=_positive(int), default=5,
        dest="max_divergences",
        help="stop after this many divergent scenarios",
    )
    fuzz.add_argument(
        "--time-budget", type=_positive(float), default=None,
        dest="time_budget", metavar="SECONDS",
        help="stop starting new scenarios after this many seconds "
        "(default: no budget)",
    )
    fuzz.add_argument(
        "--telemetry", default=None, metavar="OUT.JSONL",
        help="append metric/report records to a JSON-lines file",
    )
    fuzz.set_defaults(func=cmd_fuzz)

    simp = sub.add_parser("simulate", help="run the OpenR simulation + CE2D")
    simp.add_argument("--topology", default="internet2")
    simp.add_argument("--pods", type=int, default=4)
    simp.add_argument("--tors", type=int, default=4)
    simp.add_argument("--dst-bits", type=int, default=8, dest="dst_bits")
    simp.add_argument("--buggy", default=None, help="buggy switch name")
    simp.add_argument("--dampen", default=None, help="dampened switch name")
    simp.add_argument("--dampen-seconds", type=_positive(float), default=60.0)
    simp.add_argument(
        "--fail-link", type=_link, default=None, help="e.g. chic-kans"
    )
    simp.add_argument("--seed", type=int, default=0)
    simp.add_argument(
        "--telemetry", default=None, metavar="OUT.JSONL",
        help="append metric/report records to a JSON-lines file",
    )
    simp.set_defaults(func=cmd_simulate)

    srv = sub.add_parser(
        "serve",
        help="run the query daemon under a client/storm load, "
        "oracle-checked (repro.serve)",
    )
    srv.add_argument("--quick", action="store_true", help="small demo sizes")
    srv.add_argument("--seed", type=int, default=29)
    srv.add_argument("--workers", type=_positive(int), default=4,
                     help="query thread-pool size")
    srv.add_argument("--queue-size", type=_positive(int), default=8,
                     dest="queue_size",
                     help="ingest queue bound (backpressure threshold)")
    srv.add_argument(
        "--query-deadline", type=_positive(float), default=None,
        dest="query_deadline",
        metavar="SECONDS",
        help="per-query evaluation deadline; an overrunning query raises "
        "QueryTimeoutError and frees its worker thread",
    )
    srv.add_argument(
        "--telemetry", default=None, metavar="OUT.JSONL",
        help="append metric/report records to a JSON-lines file",
    )
    srv.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        # OSError: an input or output path that cannot be opened.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
