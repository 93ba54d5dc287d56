"""Chaos-mode differential testing: fuzzing *through* fault injection.

The plain differential runner asserts that every engine computes the
same data plane from a clean update stream.  Chaos mode asserts the
**self-healing property** of supervised ingestion
(:mod:`repro.resilience`): feed a deliberately corrupted copy of the
stream — duplicates, phantom deletes, reorderings, stale epoch tags,
truncated-then-retried batches, per a named :class:`FaultProfile` —
through an :class:`~repro.resilience.UpdateValidator` into a
:class:`~repro.core.model_manager.ModelWriter`, and the resulting model
must still converge to the brute-force :class:`ReferenceOracle`'s
verdict on the *clean* stream.

Every fault the injector emits is recoverable by validation (see the
construction argument in :mod:`repro.resilience.faults`), so any
divergence here is a genuine bug in the validator or the incremental
pipeline — exactly the code paths a clean fuzzer never exercises.  A
pipeline that raised is a divergence of kind ``error`` naming the
exception.  Divergent cases shrink with the ordinary
:class:`~repro.difftest.shrink.Shrinker` (fault injection is a pure
function of the scenario) and persist as ``chaos_*.json`` corpus files.

Entry point: ``repro fuzz --chaos``.
"""

from __future__ import annotations

import zlib
from typing import Optional, Union

from ..bdd.predicate import PredicateEngine
from ..core.model_manager import ModelWriter
from ..headerspace.match import MatchCompiler
from ..resilience import (
    EpochGate,
    FaultInjector,
    FaultProfile,
    UpdateValidator,
    fault_profile,
    stale_epoch_tag,
)
from ..telemetry import Telemetry
from .compare import derive_verdicts, view_from_inverse_model, view_from_oracle
from .corpus import ChaosCase
from .oracle import ReferenceOracle
from .runner import DiffResult, FuzzRunner, diff_verdicts, diff_views
from .scenario import Scenario


class ChaosRunner(FuzzRunner):
    """Replay scenarios through fault injection + supervised ingestion.

    ``run(scenario)`` is deterministic in ``(profile, seed, scenario)``
    and exposes the same ``run() -> DiffResult`` interface as
    :class:`~repro.difftest.runner.DifferentialRunner`, so the shrinker
    and the corpus machinery work on chaos divergences unchanged.
    """

    prefix = "difftest.chaos"

    def __init__(
        self,
        profile: Union[str, FaultProfile] = "mixed",
        seed: int = 0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        super().__init__(telemetry)
        self.profile = (
            profile if isinstance(profile, FaultProfile) else fault_profile(profile)
        )
        self.seed = seed

    @classmethod
    def for_case(
        cls, case: ChaosCase, telemetry: Optional[Telemetry] = None
    ) -> "ChaosRunner":
        """The runner that reproduces a corpus case's exact faulty stream."""
        return cls(profile=case.profile, seed=case.seed, telemetry=telemetry)

    def run_case(self, case: ChaosCase) -> DiffResult:
        return ChaosRunner.for_case(case, telemetry=self.telemetry).run(
            case.scenario
        )

    def case_for(
        self, scenario: Scenario, result: Optional[DiffResult] = None
    ) -> ChaosCase:
        """Package a (typically shrunk) scenario as a corpus chaos case."""
        return ChaosCase(scenario=scenario, profile=self.profile.name, seed=self.seed)

    # ------------------------------------------------------------------
    def injector_for(self, scenario: Scenario) -> FaultInjector:
        """The (deterministic) injector this runner uses for a scenario."""
        mix = zlib.crc32(scenario.name.encode("utf-8"))
        return FaultInjector(self.profile, seed=(self.seed << 8) ^ mix)

    def _run_inner(self, scenario: Scenario, result: DiffResult) -> None:
        layout = scenario.build_layout()
        topology = scenario.build_topology()
        switches = sorted(topology.switches())
        comparison = PredicateEngine(
            layout.total_bits, sig_vars=layout.signature_vars
        )
        compiler = MatchCompiler(comparison, layout)
        requirements = scenario.build_requirements(topology, layout)
        spaces = [compiler.compile(req.packet_space) for req in requirements]

        # Reference: the brute-force oracle on the *clean* stream.
        oracle = ReferenceOracle(topology, layout)
        oracle.process_updates(scenario.updates)
        reference = view_from_oracle("oracle", comparison, oracle)
        expected = derive_verdicts(
            reference.action_entries(), topology, requirements, spaces
        )

        injector = self.injector_for(scenario)
        faulty = injector.inject(scenario.updates)
        result.stats["profile"] = self.profile.name
        result.stats["faults"] = injector.fault_counts()
        result.stats["stream"] = {
            "clean": len(scenario.updates),
            "faulty": len(faulty),
        }

        name = "flash-supervised"
        telemetry = Telemetry(registry=self.telemetry.registry)
        # The injector stamps stale copies with ``stale<epoch`` — declare
        # it a known *predecessor* of the scenario epoch so the gate flags
        # regressions without ever rejecting a genuinely-tagged update.
        validator = UpdateValidator(
            switches,
            epoch_gate=EpochGate(
                order=(stale_epoch_tag(scenario.epoch), scenario.epoch)
            ),
            telemetry=telemetry,
        )
        try:
            writer = ModelWriter(switches, layout, telemetry=telemetry)
            writer.submit(u for u in faulty if validator.admit(u) is not None)
            writer.flush()
            writer.model.check_invariants()
            view = view_from_inverse_model(
                name, comparison, writer.model, switches
            )
            got = derive_verdicts(
                view.action_entries(), topology, requirements, spaces
            )
            result.stats[name] = {
                "admitted": validator.admitted,
                "repaired": validator.repaired,
                "quarantined": len(validator.dead_letters),
            }
        except Exception as exc:  # noqa: BLE001 - crash = divergence
            result.divergences.append(self._crashed(name, exc))
        else:
            result.divergences += diff_views(
                topology, layout, switches, view, reference
            )
            result.divergences += diff_verdicts(name, got, expected, requirements)

        result.stats["comparison_nodes_freed"] = comparison.collect()

    def __repr__(self) -> str:
        return f"ChaosRunner(profile={self.profile.name!r}, seed={self.seed})"
