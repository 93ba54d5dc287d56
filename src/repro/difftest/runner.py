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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..baselines.apkeep import APKeepVerifier
from ..baselines.deltanet import DeltaNetVerifier
from ..bdd.predicate import PredicateEngine
from ..dataplane.update import RuleUpdate
from ..flash import Flash
from ..headerspace.match import MatchCompiler
from ..results import LoopReport, Verdict, VerificationReport
from ..telemetry import Telemetry
from .compare import (
    ModelView,
    assignment_to_values,
    derive_verdicts,
    view_from_apkeep,
    view_from_deltanet,
    view_from_inverse_model,
    view_from_oracle,
)
from .oracle import ReferenceOracle, StepVerdicts
from .scenario import Scenario

FLASH_ENGINES = ("flash-batch", "flash-incr")
MODEL_ENGINES = FLASH_ENGINES + ("deltanet", "apkeep")
ALL_ENGINES = MODEL_ENGINES + ("oracle",)


@dataclass
class Divergence:
    """One observed disagreement between two engines."""

    kind: str  # see the divergence-kind table in docs/difftest.md
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


class FuzzRunner:
    """What the three runners share: ``run() -> DiffResult`` under a
    span, the counters, and crash-is-a-divergence bookkeeping.

    ``prefix`` names the span (``<prefix>.run``) and the counters
    (``<prefix>.scenarios`` / ``.divergences`` / ``.engine_errors``).
    """

    prefix = "difftest"

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self.telemetry = telemetry if telemetry is not None else Telemetry()

    def run(self, scenario: Scenario, **options: Any) -> DiffResult:
        result = DiffResult(scenario)
        with self.telemetry.span(f"{self.prefix}.run"):
            self._run_inner(scenario, result, **options)
        self.telemetry.count(f"{self.prefix}.scenarios")
        if result.divergences:
            self.telemetry.count(
                f"{self.prefix}.divergences", len(result.divergences)
            )
        return result

    def _run_inner(self, scenario: Scenario, result: DiffResult) -> None:
        raise NotImplementedError

    def case_for(self, scenario: Scenario, result: Optional[DiffResult] = None):
        """The corpus case that replays ``scenario`` through this runner."""
        return scenario

    def _crashed(self, engine: str, exc: Exception, subject: str = "") -> Divergence:
        self.telemetry.count(f"{self.prefix}.engine_errors")
        return Divergence(
            "error",
            (engine, "oracle"),
            subject=subject,
            detail=f"{type(exc).__name__}: {exc}",
        )


class DifferentialRunner(FuzzRunner):
    """Replays scenarios through all engines and diffs the results."""

    def _run_inner(self, scenario: Scenario, result: DiffResult) -> None:
        layout = scenario.build_layout()
        topology = scenario.build_topology()
        switches = sorted(topology.switches())
        comparison = PredicateEngine(layout.total_bits)
        compiler = MatchCompiler(comparison, layout)
        requirements = scenario.build_requirements(topology, layout)

        views: Dict[str, ModelView] = {}
        verdicts: Dict[str, StepVerdicts] = {}
        for name in ALL_ENGINES:
            try:
                if name in FLASH_ENGINES:
                    flash = Flash(
                        topology,
                        layout,
                        requirements=requirements,
                        check_loops=True,
                        block_threshold=1 if name == "flash-incr" else None,
                        telemetry=Telemetry(registry=self.telemetry.registry),
                    )
                    # One epoch, through the shared Flash replay.
                    verdicts[name] = replay_flash(
                        flash,
                        device_batches(scenario.updates, scenario.order),
                        scenario.epoch,
                        requirements,
                    )
                    views[name] = view_from_inverse_model(
                        name, comparison, flash.read_view(), switches
                    )
                elif name == "deltanet":
                    verifier = DeltaNetVerifier(switches, layout)
                    verifier.process_updates(scenario.updates)
                    views[name] = view_from_deltanet(name, comparison, verifier, layout)
                elif name == "apkeep":
                    verifier = APKeepVerifier(switches, layout)
                    verifier.process_updates(scenario.updates)
                    views[name] = view_from_apkeep(name, comparison, verifier)
                else:
                    oracle = ReferenceOracle(topology, layout)
                    oracle.process_updates(scenario.updates)
                    views[name] = view_from_oracle(name, comparison, oracle)
            except Exception as exc:  # noqa: BLE001 - crash = divergence
                result.divergences.append(self._crashed(name, exc))

        reference = views.get("oracle")
        if reference is None:
            return  # oracle crashed: nothing to compare against
        result.stats["classes"] = {n: len(v.entries) for n, v in views.items()}

        # Derived verdicts for the engines that have no checker of their own.
        spaces = [compiler.compile(req.packet_space) for req in requirements]
        for name in ("deltanet", "apkeep", "oracle"):
            if name in views:
                verdicts[name] = derive_verdicts(
                    views[name].action_entries(), topology, requirements, spaces
                )

        for name in MODEL_ENGINES:
            if name in views:
                result.divergences += diff_views(
                    topology, layout, switches, views[name], reference
                )
        for name in MODEL_ENGINES:
            if name in views:
                result.divergences += diff_verdicts(
                    name, verdicts[name], verdicts["oracle"], requirements
                )

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


# ---------------------------------------------------------------------------
# the pieces every runner shares
# ---------------------------------------------------------------------------
def device_batches(
    updates: Sequence[RuleUpdate], order: Sequence[int]
) -> List[Tuple[int, List[RuleUpdate]]]:
    """One batch per device of ``order``: its updates, in stream order."""
    per_device: Dict[int, List[RuleUpdate]] = {d: [] for d in order}
    for update in updates:
        per_device[update.device].append(update)
    return [(d, per_device[d]) for d in order]


def replay_flash(
    flash: Flash,
    batches: Sequence[Tuple[int, Sequence[RuleUpdate]]],
    tag,
    requirements,
) -> StepVerdicts:
    """Ingest ``(device, updates)`` batches under epoch ``tag`` and read
    the verdicts back off the reports (the last report of each checker
    wins; a checker that never reported reads UNKNOWN).

    After every batch, Definition 6 (and the signature dict beside the
    table) on every trunk member: a broken EC table is a divergence even
    where the behaviour and verdict diffs cannot see it, or where a later
    batch would hide it.
    """
    loop_verdict = Verdict.UNKNOWN
    by_req: Dict[str, Verdict] = {}
    for device, updates in batches:
        for report in flash.ingest(device, updates, epoch=tag):
            if isinstance(report, LoopReport):
                loop_verdict = report.verdict
            elif isinstance(report, VerificationReport):
                by_req[report.requirement] = report.verdict
        for member in flash.trunk.members:
            member.manager.model.check_invariants()
    return loop_verdict, tuple(
        by_req.get(req.name, Verdict.UNKNOWN) for req in requirements
    )


def diff_verdicts(
    engine: str,
    got: StepVerdicts,
    expected: StepVerdicts,
    requirements,
    where: Optional[str] = None,
    after: str = "",
) -> List[Divergence]:
    """``verdict`` / ``loop-verdict`` divergences of one engine from the
    oracle — ``step-verdict`` / ``step-loop-verdict`` when ``where``
    names an intermediate state (``after`` then says how it was reached).
    """
    kind = "verdict" if where is None else "step-verdict"
    suffix = f" {after}" if after else ""
    out: List[Divergence] = []
    if got[0] is not expected[0]:
        out.append(
            Divergence(
                f"loop-{kind}",
                (engine, "oracle"),
                subject=where or "",
                detail=f"{got[0].value} vs {expected[0].value}{suffix}",
            )
        )
    for req, got_v, exp_v in zip(requirements, got[1], expected[1]):
        if got_v is not exp_v:
            out.append(
                Divergence(
                    kind,
                    (engine, "oracle"),
                    subject=req.name if where is None else f"{req.name} @ {where}",
                    detail=f"{got_v.value} vs {exp_v.value}{suffix}",
                )
            )
    return out


def diff_views(
    topology,
    layout,
    switches: List[int],
    view: ModelView,
    reference: ModelView,
) -> List[Divergence]:
    """Behavior / reachability / loop divergences of ``view`` from
    ``reference``, BDD-exactly (both live in one comparison engine)."""
    out: List[Divergence] = []
    pair = (view.name, reference.name)
    mine = view.behavior_map()
    theirs = reference.behavior_map()
    engine = view.engine
    for device in switches:
        device_name = topology.name_of(device)
        actions = set(mine[device]) | set(theirs[device])
        for action in sorted(actions, key=repr):
            a = mine[device].get(action, engine.false)
            b = theirs[device].get(action, engine.false)
            if a == b:
                continue
            witness = assignment_to_values(
                layout, (a ^ b).any_assignment()
            )
            out.append(
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
        a = view.reach_predicate(topology, source)
        b = reference.reach_predicate(topology, source)
        if a != b:
            out.append(
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
    a = view.loop_predicate(topology)
    b = reference.loop_predicate(topology)
    if a != b:
        out.append(
            Divergence(
                "loop",
                pair,
                detail=f"looping header spaces differ "
                f"({(a ^ b).sat_count()} headers)",
                witness=assignment_to_values(layout, (a ^ b).any_assignment()),
            )
        )
    return out
