"""Interleaving exploration: model-check update orders with POR.

The CE2D consistency story is about *orders*: the dispatcher and the
epoch machinery must produce correct answers no matter how an update
block's entries interleave across devices.  The plain differential
runner replays one linearization and checks one final state; the
:class:`InterleaveRunner` turns a scenario's trailing updates into an
:class:`UpdateBlock` worth of concurrency and model-checks it:

1. **Enumerate inequivalent interleavings** with the
   :class:`~repro.difftest.explore.InterleavingExplorer` — one
   representative per Mazurkiewicz trace, two updates commuting iff
   they land on different devices and their footprints are disjoint
   (:class:`~repro.core.commute.CommutativityAnalyzer`).
2. **Replay every representative** through the flash-incr pipeline
   (a per-update :class:`~repro.core.model_manager.ModelWriter`) and
   through the full dispatcher/epoch path (the :class:`~repro.flash.Flash`
   facade fed one update per batch), asserting the requirement and loop
   invariants in **every intermediate state** against the brute-force
   :class:`~repro.difftest.oracle.OracleWalk`.
3. **Self-check the reduction** (POR soundness, argued in
   :mod:`repro.difftest.explore`): for small blocks, exhaustively
   enumerate *all* valid orders and assert the reduced set reaches the
   identical set of per-header violation facts and the same final state.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Set, Tuple

from ..bdd.predicate import PredicateEngine
from ..core.commute import CommutativityAnalyzer
from ..core.model_manager import ModelWriter
from ..dataplane.update import RuleUpdate
from ..flash import Flash
from ..headerspace.match import MatchCompiler
from ..results import InterleaveReport
from ..telemetry import Telemetry
from .compare import derive_verdicts, model_entries
from .corpus import InterleaveCase
from .explore import InterleavingExplorer, Order
from .oracle import Fact, OracleWalk, ReferenceOracle, StepVerdicts
from .runner import (
    DiffResult,
    Divergence,
    FuzzRunner,
    device_batches,
    diff_verdicts,
    replay_flash,
)
from .scenario import Scenario


class InterleaveRunner(FuzzRunner):
    """Replay a scenario's update block under every inequivalent order.

    Exposes the same ``run() -> DiffResult`` surface as the other
    difftest runners, so the shrinker and the fuzz loop work unchanged.
    Any disagreement with the oracle at *any* intermediate state of
    *any* explored order is a divergence; so is a failed POR soundness
    self-check (kind ``por-unsound``).
    """

    prefix = "difftest.interleave"
    #: The exhaustive POR self-check runs only on blocks with at most
    #: this many possible orders (120 = 5!).
    self_check_limit = 120

    def __init__(
        self,
        telemetry: Optional[Telemetry] = None,
        max_orders: int = 8,
        block_tail: int = 8,
        self_check: bool = True,
        force_commute=None,
    ) -> None:
        super().__init__(telemetry)
        self.max_orders = max_orders
        self.block_tail = block_tail
        self.self_check = self_check
        #: Test-only misclassification hook, forwarded to the analyzer.
        self.force_commute = force_commute
        self.last_report: Optional[InterleaveReport] = None

    # ------------------------------------------------------------------
    def block_start_for(self, scenario: Scenario) -> int:
        """Default prefix/block split: the last ``block_tail`` updates."""
        return max(0, len(scenario.updates) - self.block_tail)

    def run_case(self, case: InterleaveCase) -> DiffResult:
        return self.run(
            case.scenario,
            block_start=case.block_start,
            max_orders=case.max_orders,
            self_check=case.self_check,
            orders=case.orders,
        )

    def run_order(
        self,
        scenario: Scenario,
        order: Order,
        *,
        block_start: Optional[int] = None,
    ) -> DiffResult:
        """Replay exactly one pinned interleaving (no exploration)."""
        return self.run(
            scenario, block_start=block_start, orders=[tuple(order)]
        )

    def case_for(
        self,
        scenario: Scenario,
        result: Optional[DiffResult] = None,
    ) -> InterleaveCase:
        """Package a (possibly shrunk) scenario as a corpus case."""
        orders = None
        if result is not None:
            pinned = result.stats.get("minimized_order")
            if pinned is not None:
                orders = (tuple(pinned),)
        return InterleaveCase(
            scenario=scenario,
            block_start=self.block_start_for(scenario),
            max_orders=self.max_orders,
            self_check=self.self_check,
            orders=orders,
        )

    # ------------------------------------------------------------------
    def _run_inner(
        self,
        scenario: Scenario,
        result: DiffResult,
        *,
        block_start: Optional[int] = None,
        max_orders: Optional[int] = None,
        self_check: Optional[bool] = None,
        orders: Optional[Sequence[Order]] = None,
    ) -> None:
        """``run(scenario, *, block_start, max_orders, self_check,
        orders)``: each option defaults to the runner's; ``orders`` pins
        the interleavings to replay instead of exploring."""
        if block_start is None:
            block_start = self.block_start_for(scenario)
        if max_orders is None:
            max_orders = self.max_orders
        if self_check is None:
            self_check = self.self_check
        pinned = None if orders is None else [tuple(o) for o in orders]
        layout = scenario.build_layout()
        topology = scenario.build_topology()
        requirements = scenario.build_requirements(topology, layout)
        updates = list(scenario.updates)
        block_start = max(0, min(block_start, len(updates)))
        prefix, block = updates[:block_start], updates[block_start:]

        engine = PredicateEngine(
            layout.total_bits, sig_vars=layout.signature_vars
        )
        analyzer = CommutativityAnalyzer(
            engine,
            layout,
            compiler=MatchCompiler(engine, layout),
            force_commute=self.force_commute,
        )
        explorer = InterleavingExplorer(block, analyzer.commutes)
        possible = explorer.possible_orders() if block else 0

        truncated = False
        if pinned is not None:
            orders = list(pinned)
        else:
            orders = []
            for order in explorer.reduced():
                if len(orders) >= max_orders:
                    truncated = True
                    break
                orders.append(order)

        walk = OracleWalk(topology, layout, requirements, prefix, block)
        signatures: Set[Tuple] = set()
        divergent_orders: List[Order] = []
        states_checked = 0
        for oi, order in enumerate(orders):
            before = len(result.divergences)
            oracle_steps, _ = walk.walk(order)
            states_checked += len(oracle_steps)
            expected = [verdicts for verdicts, _ in oracle_steps]
            signatures.add(tuple(expected))
            for engine_name, replay in (
                ("flash-incr", self._replay_flash_incr),
                ("dispatcher", self._replay_dispatcher),
            ):
                try:
                    got, final = replay(scenario, topology, layout, requirements, walk, order)
                    for si, (got_si, expected_si) in enumerate(zip(got, expected)):
                        # Step 0 is the shared pre-block state.
                        after = (
                            f"after {block[order[si - 1]]!r}"
                            if si
                            else "in the pre-block state"
                        )
                        result.divergences += diff_verdicts(
                            engine_name, got_si, expected_si, requirements,
                            where=f"order[{oi}] step {si}", after=after,
                        )
                    self._diff_final_behavior(
                        engine_name, oi, final, walk, topology, layout, result
                    )
                except Exception as exc:  # noqa: BLE001 - crash = divergence
                    result.divergences.append(
                        self._crashed(engine_name, exc, subject=f"order[{oi}]")
                    )
            if len(result.divergences) > before:
                divergent_orders.append(order)

        self_check_status = "skipped"
        if (
            self_check
            and pinned is None
            and block
            and 1 < possible <= self.self_check_limit
        ):
            self_check_status = self._self_check(
                block, analyzer, walk, result
            )

        stats = analyzer.stats
        self.telemetry.count(
            "difftest.interleave.orders_explored", len(orders)
        )
        self.telemetry.count(
            "difftest.interleave.orders_pruned",
            max(0, possible - len(orders)),
        )
        self.telemetry.count(
            "difftest.interleave.states_checked", states_checked
        )
        self.telemetry.count(
            "difftest.interleave.commute.checks", stats.checks
        )
        self.telemetry.count(
            "difftest.interleave.commute.sig_hits", stats.sig_disjoint
        )
        self.telemetry.count(
            "difftest.interleave.commute.exact_checks", stats.exact_checks
        )
        if stats.forced:
            self.telemetry.count(
                "difftest.interleave.commute.forced", stats.forced
            )

        report = InterleaveReport(
            scenario=scenario.name,
            block_size=len(block),
            orders_possible=possible,
            orders_explored=len(orders),
            orders_pruned=max(0, possible - len(orders)),
            states_checked=states_checked,
            order_dependent=len(signatures) > 1,
            divergences=len(result.divergences),
            self_check=self_check_status,
            commute=stats.as_dict(),
        )
        self.last_report = report
        result.stats["interleave"] = report.as_dict()
        result.stats["orders_explored"] = len(orders)
        result.stats["orders_possible"] = possible
        result.stats["truncated"] = truncated
        result.stats["order_dependent"] = report.order_dependent
        result.stats["divergent_orders"] = [
            list(o) for o in divergent_orders
        ]
        result.stats["block_start"] = block_start

    # ------------------------------------------------------------------
    def _replay_flash_incr(
        self, scenario, topology, layout, requirements, walk: OracleWalk, order: Order
    ) -> Tuple[List[StepVerdicts], Any]:
        """Per-update ModelWriter replay: the verdicts after the prefix
        and after each block update, and the final model."""
        manager = ModelWriter(
            sorted(topology.switches()),
            layout,
            block_threshold=1,
            telemetry=Telemetry(registry=self.telemetry.registry),
        )
        spaces = [
            manager.compiler.compile(req.packet_space)
            for req in requirements
        ]
        got = []
        for batch in [walk.prefix] + [[walk.block[index]] for index in order]:
            manager.submit(batch)
            manager.flush()
            manager.model.check_invariants()
            got.append(
                derive_verdicts(
                    model_entries(manager.model), topology, requirements, spaces
                )
            )
        return got, manager.model

    def _replay_dispatcher(
        self, scenario, topology, layout, requirements, walk: OracleWalk, order: Order
    ) -> Tuple[List[StepVerdicts], Any]:
        """Full Flash facade replay: dispatcher, epoch tracker, checkers.

        Every intermediate state is a *potential converged state*, so
        each block step gets its own epoch tag that every device reports
        — the updating device with its batch, the rest with empty sync
        batches.  The dispatcher then does exactly what CE2D prescribes:
        applies each batch to the trunk model, opens a verifier for the
        new epoch over it, retires the superseded epoch, and the
        checkers' deterministic verdicts describe precisely the
        intermediate state the oracle evaluated.  The per-epoch verdict
        latch (early detection binds verdicts to one converged state)
        is thereby respected rather than worked around.
        """
        flash = Flash(
            topology,
            layout,
            requirements=requirements,
            check_loops=True,
            block_threshold=1,
            telemetry=Telemetry(registry=self.telemetry.registry),
        )
        devices = sorted(topology.switches())
        got = [
            replay_flash(
                flash,
                device_batches(walk.prefix, scenario.order),
                f"{scenario.epoch}~pre",
                requirements,
            )
        ]
        for si, index in enumerate(order):
            update = walk.block[index]
            # The updating device reports last, so the round's final
            # checker pass runs fully synchronised (deterministic).
            batches = [(d, []) for d in devices if d != update.device]
            batches.append((update.device, [update]))
            got.append(
                replay_flash(flash, batches, f"{scenario.epoch}~s{si}", requirements)
            )
        return got, flash.read_view()

    # ------------------------------------------------------------------
    def _diff_final_behavior(
        self,
        engine_name: str,
        oi: int,
        model,
        walk: OracleWalk,
        topology,
        layout,
        result: DiffResult,
    ) -> None:
        """Exhaustive per-header behavior check of the order's end state."""
        oracle = ReferenceOracle(topology, layout)
        oracle.process_updates(walk.prefix)
        oracle.process_updates(walk.block)
        total_bits = layout.total_bits
        for header in range(layout.universe_size):
            values = layout.unflatten(header)
            expected = oracle.behavior(values)
            assignment = {
                k: bool((header >> (total_bits - 1 - k)) & 1)
                for k in range(total_bits)
            }  # the header_cube convention
            got = model.behavior(assignment)
            if got != expected:
                diff_devices = sorted(
                    d
                    for d in expected
                    if got.get(d) != expected[d]
                )
                result.divergences.append(
                    Divergence(
                        "final-behavior",
                        (engine_name, "oracle"),
                        subject=f"order[{oi}]",
                        detail=(
                            f"header {values} behaves differently on "
                            f"devices {diff_devices}"
                        ),
                        witness=values,
                    )
                )
                return  # one witness per order is plenty

    # ------------------------------------------------------------------
    def _self_check(
        self,
        block: List[RuleUpdate],
        analyzer: CommutativityAnalyzer,
        walk: OracleWalk,
        result: DiffResult,
    ) -> str:
        """Exhaustive-vs-reduced fact comparison (POR soundness)."""
        self.telemetry.count("difftest.interleave.selfcheck.runs")
        exhaustive_facts: Set[Fact] = set()
        exhaustive_finals: Set[Any] = set()
        checker = InterleavingExplorer(block, analyzer.commutes)
        for order in checker.exhaustive():
            steps, final = walk.walk(order)
            for _, facts in steps:
                exhaustive_facts |= facts
            exhaustive_finals.add(final)
        reduced_facts: Set[Fact] = set()
        reduced_finals: Set[Any] = set()
        reduced_count = 0
        for order in checker.reduced():
            reduced_count += 1
            steps, final = walk.walk(order)
            for _, facts in steps:
                reduced_facts |= facts
            reduced_finals.add(final)
        ok = (
            reduced_facts == exhaustive_facts
            and reduced_finals == exhaustive_finals
            and len(exhaustive_finals) == 1
        )
        result.stats["self_check_reduced_orders"] = reduced_count
        if ok:
            return "passed"
        self.telemetry.count("difftest.interleave.selfcheck.failures")
        missing = sorted(
            exhaustive_facts - reduced_facts, key=repr
        )[:3]
        detail = (
            f"reduced set missed {len(exhaustive_facts - reduced_facts)} "
            f"violation facts (e.g. {missing})"
            if missing
            else f"final states differ across orders "
            f"({len(exhaustive_finals)} distinct)"
        )
        result.divergences.append(
            Divergence(
                "por-unsound",
                ("reduced", "exhaustive"),
                detail=detail,
            )
        )
        return "failed"


__all__ = ["InterleaveCase", "InterleaveRunner", "InterleavingExplorer", "Order"]
