"""Greedy delta-debugging of divergent scenarios.

A raw fuzz case that diverges can carry dozens of irrelevant updates.
:class:`Shrinker` minimises it with the classic ddmin loop over the
update sequence (chunk removal at increasing granularity), followed by a
requirement-dropping pass.  Every candidate is *repaired* before replay
so shrinking never manufactures invalid sequences (deletes of rules that
were never installed, duplicate inserts) — those would crash the strict
engines and masquerade as ``error`` divergences.

A candidate counts as "still failing" when it reproduces at least one
divergence of a kind seen in the original run, so shrinking cannot
wander onto an unrelated failure.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..dataplane.update import RuleUpdate
from .runner import DifferentialRunner, DiffResult
from .scenario import Scenario

Order = Tuple[int, ...]


def repair_updates(updates: Sequence[RuleUpdate]) -> List[RuleUpdate]:
    """Drop updates made invalid by earlier removals.

    Keeps inserts of not-yet-installed rules and deletes of installed
    ones; everything else (duplicate insert, dangling delete) is the
    artifact of removing its counterpart and is dropped too.
    """
    installed: Set[Tuple[int, object]] = set()
    kept: List[RuleUpdate] = []
    for update in updates:
        key = (update.device, update.rule)
        if update.is_insert:
            if key in installed:
                continue
            installed.add(key)
        else:
            if key not in installed:
                continue
            installed.discard(key)
        kept.append(update)
    return kept


class Shrinker:
    """Minimise a divergent scenario while preserving its divergence kind."""

    #: Replay budget of one :meth:`shrink` call.
    max_replays = 400

    def __init__(self, runner: Optional[DifferentialRunner] = None) -> None:
        self.runner = runner if runner is not None else DifferentialRunner()
        self.replays = 0

    # ------------------------------------------------------------------
    def shrink(
        self, scenario: Scenario, result: Optional[DiffResult] = None
    ) -> Tuple[Scenario, DiffResult]:
        """Return the minimised scenario and its (still-divergent) result."""
        self.replays = 0
        telemetry = self.runner.telemetry
        with telemetry.span("difftest.shrink"):
            if result is None:
                result = self.runner.run(scenario)
            if result.ok:
                return scenario, result
            target_kinds = set(result.kinds)
            best, best_result = scenario, result
            best, best_result = self._shrink_updates(best, best_result, target_kinds)
            best, best_result = self._shrink_requirements(
                best, best_result, target_kinds
            )
            minimised = best.replace_updates(best.updates)
            minimised.name = scenario.name + "-min"
            minimised.description = (
                f"shrunk from {len(scenario.updates)} to {len(best.updates)} "
                f"updates; divergence kinds: {', '.join(sorted(target_kinds))}"
            )
        return minimised, best_result

    # ------------------------------------------------------------------
    def _still_fails(
        self, candidate: Scenario, target_kinds: Set[str]
    ) -> Optional[DiffResult]:
        if self.replays >= self.max_replays:
            return None
        self.replays += 1
        self.runner.telemetry.count("difftest.shrink.replays")
        try:
            result = self.runner.run(candidate)
        except Exception:  # noqa: BLE001 - a crashing candidate is not a repro
            return None
        if not result.ok and set(result.kinds) & target_kinds:
            return result
        return None

    def _shrink_updates(
        self, scenario: Scenario, result: DiffResult, target_kinds: Set[str]
    ) -> Tuple[Scenario, DiffResult]:
        updates = list(scenario.updates)
        chunks = 2
        while len(updates) >= 2:
            shrunk = False
            size = max(1, len(updates) // chunks)
            for start in range(0, len(updates), size):
                candidate_updates = repair_updates(
                    updates[:start] + updates[start + size:]
                )
                if len(candidate_updates) >= len(updates):
                    continue
                candidate = scenario.replace_updates(candidate_updates)
                candidate_result = self._still_fails(candidate, target_kinds)
                if candidate_result is not None:
                    updates = candidate_updates
                    scenario, result = candidate, candidate_result
                    shrunk = True
                    break
            if shrunk:
                chunks = max(2, chunks - 1)
            elif size <= 1:
                break
            else:
                chunks = min(len(updates), chunks * 2)
            if self.replays >= self.max_replays:
                break
        return scenario, result

    def _shrink_requirements(
        self, scenario: Scenario, result: DiffResult, target_kinds: Set[str]
    ) -> Tuple[Scenario, DiffResult]:
        requirements = list(scenario.requirements)
        index = 0
        while index < len(requirements) and len(requirements) > 0:
            candidate_reqs = requirements[:index] + requirements[index + 1:]
            candidate = scenario.replace_requirements(candidate_reqs)
            candidate_result = self._still_fails(candidate, target_kinds)
            if candidate_result is not None:
                requirements = candidate_reqs
                scenario, result = candidate, candidate_result
            else:
                index += 1
        return scenario, result


class InterleaveShrinker(Shrinker):
    """Joint (trace, interleaving) minimisation for interleave runs.

    Runs the inherited ddmin passes first — every candidate replay is a
    full interleaving exploration, so updates survive only if some order
    of the *shrunk* block still diverges — then minimises the
    interleaving itself: starting from one divergent order, greedy
    adjacent swaps move it toward the identity permutation while the
    divergence persists.  The surviving order lands in
    ``result.stats["minimized_order"]`` and is pinned by the corpus case
    (:meth:`~repro.difftest.interleave.InterleaveRunner.case_for`), so
    the regression replays one order instead of re-exploring.
    """

    def __init__(self, runner=None) -> None:
        if runner is None:
            from .interleave import InterleaveRunner

            runner = InterleaveRunner()
        super().__init__(runner)

    # ------------------------------------------------------------------
    def shrink(
        self, scenario: Scenario, result: Optional[DiffResult] = None
    ) -> Tuple[Scenario, DiffResult]:
        minimised, best = super().shrink(scenario, result)
        if best.ok:
            return minimised, best
        order = self._pick_order(best)
        if order is not None:
            order = self._shrink_order(minimised, order, set(best.kinds))
            best.stats["minimized_order"] = list(order)
        return minimised, best

    # ------------------------------------------------------------------
    @staticmethod
    def _pick_order(result: DiffResult) -> Optional[Order]:
        orders = result.stats.get("divergent_orders") or []
        if not orders:
            return None
        # The least-disordered divergent order is the best starting point.
        return tuple(
            min(
                (tuple(o) for o in orders),
                key=lambda o: sum(1 for a, b in zip(o, o[1:]) if a > b),
            )
        )

    def _order_still_fails(
        self, scenario: Scenario, order: Order, target_kinds: Set[str]
    ) -> bool:
        if self.replays >= self.max_replays:
            return False
        self.replays += 1
        self.runner.telemetry.count("difftest.shrink.replays")
        try:
            result = self.runner.run_order(scenario, order)
        except Exception:  # noqa: BLE001 - a crashing candidate is not a repro
            return False
        return not result.ok and bool(set(result.kinds) & target_kinds)

    def _shrink_order(
        self, scenario: Scenario, order: Order, target_kinds: Set[str]
    ) -> Order:
        # por-unsound cannot reproduce under a pinned order (the
        # self-check only runs when exploring), so keep the order as-is.
        if not self._order_still_fails(scenario, order, target_kinds):
            return order
        current = list(order)
        improved = True
        while improved and self.replays < self.max_replays:
            improved = False
            for i in range(len(current) - 1):
                if current[i] <= current[i + 1]:
                    continue  # already identity-ordered at this position
                candidate = list(current)
                candidate[i], candidate[i + 1] = candidate[i + 1], candidate[i]
                if self._order_still_fails(
                    scenario, tuple(candidate), target_kinds
                ):
                    current = candidate
                    improved = True
        return tuple(current)
