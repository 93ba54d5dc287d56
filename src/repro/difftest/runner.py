"""Replay one scenario through every engine and diff the outcomes.

The runner cross-checks four dimensions, most specific first:

1. **behavior** — per device, per action, the BDD of the header space
   forwarded with that action (full model equivalence);
2. **reachability** — per source switch, the BDD of headers delivered to
   an external node (existential over ECMP branches);
3. **loop** — the BDD of headers whose forwarding graph has a cycle;
4. **verdicts** — the Flash facade's requirement/loop verdicts (batch MR2
   *and* per-update mode) against verdicts derived from each baseline's
   model and from the brute-force oracle.

The oracle is the reference; every other engine is compared against it,
so a single buggy engine produces divergences naming that engine rather
than a quadratic blame matrix.  All predicates are compared by BDD node
equality inside one shared comparison engine (see ``compare.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..baselines.apkeep import APKeepVerifier
from ..baselines.deltanet import DeltaNetVerifier
from ..bdd.predicate import PredicateEngine
from ..flash import Flash
from ..headerspace.match import MatchCompiler
from ..results import LoopReport, Verdict, VerificationReport
from ..telemetry import Telemetry
from .compare import (
    ModelView,
    assignment_to_values,
    view_from_apkeep,
    view_from_deltanet,
    view_from_inverse_model,
    view_from_oracle,
)
from .oracle import ReferenceOracle
from .scenario import Scenario

FLASH_ENGINES = ("flash-batch", "flash-incr")
MODEL_ENGINES = FLASH_ENGINES + ("deltanet", "apkeep")
ALL_ENGINES = MODEL_ENGINES + ("oracle",)


@dataclass
class Divergence:
    """One observed disagreement between two engines."""

    kind: str  # behavior | reachability | loop | verdict | loop-verdict | error | fallback
    engines: Tuple[str, str]
    subject: str = ""  # device name, source name or requirement name
    detail: str = ""
    witness: Optional[Dict[str, int]] = None  # a header exhibiting the diff

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "engines": list(self.engines),
            "subject": self.subject,
            "detail": self.detail,
            "witness": self.witness,
        }

    def __repr__(self) -> str:
        where = f" @{self.subject}" if self.subject else ""
        return (
            f"Divergence({self.kind}: {self.engines[0]} vs "
            f"{self.engines[1]}{where}: {self.detail})"
        )


@dataclass
class DiffResult:
    """The outcome of one differential run."""

    scenario: Scenario
    divergences: List[Divergence] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({d.kind for d in self.divergences}))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.name,
            "ok": self.ok,
            "divergences": [d.as_dict() for d in self.divergences],
            "stats": dict(self.stats),
        }


@dataclass
class _EngineRun:
    name: str
    view: Optional[ModelView] = None
    verdicts: Dict[str, Verdict] = field(default_factory=dict)
    loop_verdict: Optional[Verdict] = None
    error: Optional[str] = None


def derive_verdicts(
    view: ModelView, topology, compiler: MatchCompiler, requirements
) -> Tuple[Verdict, Dict[str, Verdict]]:
    """Loop + requirement verdicts for an engine with no checker of its own.

    Shared by the differential runner (deltanet/apkeep/oracle rows) and
    the chaos runner (supervised ModelWriter rows): a requirement is
    VIOLATED when any source fails to deliver part of its packet space.
    """
    loop_verdict = (
        Verdict.VIOLATED
        if not view.loop_predicate(topology).is_false
        else Verdict.SATISFIED
    )
    verdicts: Dict[str, Verdict] = {}
    for req in requirements:
        space = compiler.compile(req.packet_space)
        violated = any(
            not (space - view.reach_predicate(topology, s)).is_false
            for s in req.sources
        )
        verdicts[req.name] = Verdict.VIOLATED if violated else Verdict.SATISFIED
    return loop_verdict, verdicts


class DifferentialRunner:
    """Replays scenarios through all engines and diffs the results."""

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self.telemetry = telemetry if telemetry is not None else Telemetry()

    # ------------------------------------------------------------------
    def run(self, scenario: Scenario) -> DiffResult:
        result = DiffResult(scenario)
        with self.telemetry.span("difftest.run", scenario=scenario.name):
            self._run_inner(scenario, result)
        self.telemetry.count("difftest.scenarios")
        if result.divergences:
            self.telemetry.count("difftest.divergences", len(result.divergences))
        return result

    # ------------------------------------------------------------------
    def _run_inner(self, scenario: Scenario, result: DiffResult) -> None:
        layout = scenario.build_layout()
        topology = scenario.build_topology()
        switches = sorted(topology.switches())
        comparison = PredicateEngine(layout.total_bits)
        compiler = MatchCompiler(comparison, layout)
        requirements = scenario.build_requirements(topology, layout)

        runs: Dict[str, _EngineRun] = {}
        for name in ALL_ENGINES:
            run = _EngineRun(name)
            runs[name] = run
            try:
                if name in FLASH_ENGINES:
                    self._run_flash(
                        name, scenario, topology, layout, switches,
                        comparison, requirements, run,
                    )
                elif name == "deltanet":
                    verifier = DeltaNetVerifier(switches, layout)
                    verifier.process_updates(scenario.updates)
                    run.view = view_from_deltanet(name, comparison, verifier, layout)
                elif name == "apkeep":
                    verifier = APKeepVerifier(switches, layout)
                    verifier.process_updates(scenario.updates)
                    run.view = view_from_apkeep(name, comparison, verifier)
                else:
                    oracle = ReferenceOracle(topology, layout)
                    oracle.process_updates(scenario.updates)
                    run.view = view_from_oracle(name, comparison, oracle)
            except Exception as exc:  # noqa: BLE001 - crash = divergence
                run.error = f"{type(exc).__name__}: {exc}"
                self.telemetry.count("difftest.engine_errors")
                result.divergences.append(
                    Divergence("error", (name, "oracle"), detail=run.error)
                )

        reference = runs["oracle"]
        if reference.view is None:
            return  # oracle crashed: nothing to compare against
        result.stats["classes"] = {
            n: len(r.view.entries) for n, r in runs.items() if r.view is not None
        }

        # Derived verdicts for the engines that have no checker of their own.
        for name in ("deltanet", "apkeep", "oracle"):
            run = runs[name]
            if run.view is None:
                continue
            run.loop_verdict, run.verdicts = derive_verdicts(
                run.view, topology, compiler, requirements
            )

        for name in MODEL_ENGINES:
            run = runs[name]
            if run.view is None:
                continue
            self._diff_views(topology, layout, switches, run, reference, result)

        self._diff_verdicts(scenario, requirements, runs, result)

        # Sweep the shared comparison engine once the diffing is done:
        # every view/verdict predicate is still held by a handle, so
        # whatever goes is genuinely intermediate garbage — and every
        # difftest scenario doubles as a GC correctness stress (a node
        # freed too eagerly would corrupt the comparisons of the next
        # scenario replayed on a shared runner).
        result.stats["comparison_nodes_freed"] = comparison.collect()
        self.telemetry.count(
            "difftest.comparison.nodes_freed",
            result.stats["comparison_nodes_freed"],
        )

    # ------------------------------------------------------------------
    def _run_flash(
        self,
        name: str,
        scenario: Scenario,
        topology,
        layout,
        switches: List[int],
        comparison: PredicateEngine,
        requirements,
        run: _EngineRun,
    ) -> None:
        flash = Flash(
            topology,
            layout,
            requirements=requirements,
            check_loops=True,
            block_threshold=1 if name == "flash-incr" else None,
            telemetry=Telemetry(registry=self.telemetry.registry),
        )
        per_device: Dict[int, List] = {d: [] for d in switches}
        for update in scenario.updates:
            per_device[update.device].append(update)
        # Consume Flash strictly through the QueryableVerifier protocol so
        # the difftest exercises the exact facade repro.serve is built on.
        # One epoch, every checker reporting on every batch: the last
        # batch's reports are the final verdicts.
        reports = []
        for device in scenario.order:
            reports = flash.ingest(device, per_device[device], epoch=scenario.epoch)
        for report in reports:
            if isinstance(report, LoopReport):
                run.loop_verdict = report.verdict
            elif isinstance(report, VerificationReport):
                run.verdicts[report.requirement] = report.verdict
        view = flash.read_view()
        # Definition 6 on every member model: a broken EC table is a
        # divergence even where the behaviour diff cannot see it.
        for member in flash.trunk.members:
            member.manager.model.check_invariants()
        run.view = view_from_inverse_model(name, comparison, view, switches)

    # ------------------------------------------------------------------
    def _diff_views(
        self,
        topology,
        layout,
        switches: List[int],
        run: _EngineRun,
        reference: _EngineRun,
        result: DiffResult,
    ) -> None:
        diff_views(topology, layout, switches, run, reference, result)

    # ------------------------------------------------------------------
    def _diff_verdicts(
        self,
        scenario: Scenario,
        requirements,
        runs: Dict[str, _EngineRun],
        result: DiffResult,
    ) -> None:
        reference = runs["oracle"]
        if reference.loop_verdict is not None:
            for name in MODEL_ENGINES:
                run = runs[name]
                if run.error is not None:
                    continue
                if run.loop_verdict is not reference.loop_verdict:
                    result.divergences.append(
                        Divergence(
                            "loop-verdict",
                            (name, "oracle"),
                            detail=f"{_verdict(run.loop_verdict)} vs "
                            f"{_verdict(reference.loop_verdict)}",
                        )
                    )
        for req in requirements:
            expected = reference.verdicts.get(req.name)
            if expected is None:
                continue
            for name in MODEL_ENGINES:
                run = runs[name]
                if run.error is not None:
                    continue
                got = run.verdicts.get(req.name)
                if got is not expected:
                    result.divergences.append(
                        Divergence(
                            "verdict",
                            (name, "oracle"),
                            subject=req.name,
                            detail=f"{_verdict(got)} vs {_verdict(expected)}",
                        )
                    )


def diff_views(
    topology,
    layout,
    switches: List[int],
    run: _EngineRun,
    reference: _EngineRun,
    result: DiffResult,
) -> None:
    """Diff one engine's view against the reference, BDD-exactly.

    Appends behavior / reachability / loop divergences to ``result``;
    shared by :class:`DifferentialRunner` and the chaos runner.
    """
    pair = (run.name, reference.name)
    mine = run.view.behavior_map()
    theirs = reference.view.behavior_map()
    for device in switches:
        device_name = topology.name_of(device)
        actions = set(mine[device]) | set(theirs[device])
        engine = run.view.engine
        for action in sorted(actions, key=repr):
            a = mine[device].get(action, engine.false)
            b = theirs[device].get(action, engine.false)
            if a == b:
                continue
            witness = assignment_to_values(
                layout, (a ^ b).any_assignment()
            )
            result.divergences.append(
                Divergence(
                    "behavior",
                    pair,
                    subject=device_name,
                    detail=f"action {action!r} covers different header "
                    f"spaces ({(a ^ b).sat_count()} headers differ)",
                    witness=witness,
                )
            )
    for source in switches:
        a = run.view.reach_predicate(topology, source)
        b = reference.view.reach_predicate(topology, source)
        if a != b:
            result.divergences.append(
                Divergence(
                    "reachability",
                    pair,
                    subject=topology.name_of(source),
                    detail=f"delivered header spaces differ "
                    f"({(a ^ b).sat_count()} headers)",
                    witness=assignment_to_values(
                        layout, (a ^ b).any_assignment()
                    ),
                )
            )
    a = run.view.loop_predicate(topology)
    b = reference.view.loop_predicate(topology)
    if a != b:
        result.divergences.append(
            Divergence(
                "loop",
                pair,
                detail=f"looping header spaces differ "
                f"({(a ^ b).sat_count()} headers)",
                witness=assignment_to_values(layout, (a ^ b).any_assignment()),
            )
        )


def _verdict(value: Optional[Verdict]) -> str:
    return "missing" if value is None else value.value
