"""Signature-based commutativity of rule updates.

Two updates *commute* (are independent in the Mazurkiewicz-trace sense)
when swapping adjacent occurrences of them changes no observation the
verifier makes.  For data plane updates the criterion is:

* **Same device ⇒ dependent.**  A device's update stream is serialized
  (the dispatcher applies it in order, as a diff sequence), and even
  footprint-disjoint same-device updates can interact through priority
  tie-breaks, so their relative order is always preserved.
* **Different devices ⇒ commute iff footprints are disjoint.**  The
  *footprint* of an update is the compiled match predicate of its rule —
  the set of headers whose lookup the update can possibly change.  Two
  cross-device updates always commute at the table level (they touch
  different tables); what order can change is the *intermediate* model a
  checker observes.  A header ``h`` sees an update only when ``h`` lies
  in its footprint, so when footprints are disjoint no header sees both
  updates and every header's per-step behavior sequence is identical in
  both orders.

Disjointness uses the two-tier check from the EC-table fast apply path:
the O(1) cofactor-signature filter
(:meth:`~repro.bdd.predicate.PredicateEngine.signature`;
``sig(a) & sig(b) == 0  ⇒  a ∧ b = ⊥``) first, and an exact BDD
conjunction only on signature collision — so most pairs are classified
without any BDD operation.  The analyzer is the commutation oracle of
the interleaving explorer (:mod:`repro.difftest.explore`) and is
reusable by dispatcher-side update scheduling.

``force_commute`` is a **test-only** hook: a predicate that forces a
pair to be treated as commuting regardless of the analysis.  The POR
soundness self-check uses it to inject a deliberate misclassification
and prove the check catches one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..bdd.predicate import Predicate, PredicateEngine
from ..dataplane.update import RuleUpdate
from ..headerspace.fields import HeaderLayout
from ..headerspace.match import MatchCompiler


@dataclass
class CommuteStats:
    """Counters of one analyzer's life: how pairs were classified."""

    checks: int = 0
    sig_disjoint: int = 0
    exact_checks: int = 0
    exact_disjoint: int = 0
    same_device: int = 0
    dependent: int = 0
    forced: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "checks": self.checks,
            "sig_disjoint": self.sig_disjoint,
            "exact_checks": self.exact_checks,
            "exact_disjoint": self.exact_disjoint,
            "same_device": self.same_device,
            "dependent": self.dependent,
            "forced": self.forced,
        }


class CommutativityAnalyzer:
    """Classify update pairs as commuting/dependent, signatures first.

    ``commutes(a, b)`` is symmetric and memoized per unordered pair, so
    the interleaving explorer can consult it freely during search.
    """

    def __init__(
        self,
        engine: PredicateEngine,
        layout: HeaderLayout,
        compiler: Optional[MatchCompiler] = None,
        force_commute: Optional[
            Callable[[RuleUpdate, RuleUpdate], bool]
        ] = None,
    ) -> None:
        self.engine = engine
        self.layout = layout
        self.compiler = (
            compiler if compiler is not None else MatchCompiler(engine, layout)
        )
        self.force_commute = force_commute
        self.stats = CommuteStats()
        self._memo: Dict[Any, bool] = {}

    # ------------------------------------------------------------------
    def footprint(self, update: RuleUpdate) -> Predicate:
        """The headers whose lookup ``update`` can change (compiled match)."""
        return self.compiler.compile(update.rule.match)

    def signature(self, update: RuleUpdate) -> int:
        """Cofactor signature of the footprint (memoized on the handle)."""
        return self.engine.signature(self.footprint(update))

    # ------------------------------------------------------------------
    def commutes(self, a: RuleUpdate, b: RuleUpdate) -> bool:
        """Whether swapping adjacent ``a``/``b`` is observation-preserving."""
        key = frozenset((id(a), id(b)))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._classify(a, b)
        self._memo[key] = result
        return result

    def _classify(self, a: RuleUpdate, b: RuleUpdate) -> bool:
        self.stats.checks += 1
        if self.force_commute is not None and self.force_commute(a, b):
            self.stats.forced += 1
            return True
        if a.device == b.device:
            self.stats.same_device += 1
            self.stats.dependent += 1
            return False
        fa = self.footprint(a)
        fb = self.footprint(b)
        if self.engine.signature(fa) & self.engine.signature(fb) == 0:
            self.stats.sig_disjoint += 1
            return True
        # Signature collision: fall back to the exact conjunction.
        self.stats.exact_checks += 1
        if (fa & fb).is_false:
            self.stats.exact_disjoint += 1
            return True
        self.stats.dependent += 1
        return False

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"CommutativityAnalyzer({s.checks} checks, "
            f"{s.sig_disjoint} sig-disjoint, {s.exact_checks} exact, "
            f"{s.dependent} dependent)"
        )


__all__ = ["CommuteStats", "CommutativityAnalyzer"]
