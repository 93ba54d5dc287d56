"""APKeep* — per-update equivalence-class maintenance on BDDs.

The paper compares against APKeep [NSDI'20], reimplemented from its
pseudocode ("APKeep*", default delay-merge parameter 0).  APKeep keeps the
same inverse model as Flash (atomic-predicate ECs over BDDs) but:

* processes rule updates **one at a time** — computing, per update, the
  change predicate and transferring header space between the device's
  per-action predicates (its PPM);
* stores EC action vectors as plain arrays (tuples here), so every EC
  creation copies O(N) action entries — the cost PAT removes (§5.4's T_EC
  discussion).

Predicate operations flow through the shared engine counter, so Table 3's
op-count comparison is apples to apples.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bdd.predicate import Predicate, PredicateEngine
from ..dataplane.fib import FibSnapshot
from ..dataplane.rule import DROP, Action, Rule
from ..dataplane.update import RuleUpdate
from ..errors import DataPlaneError
from ..headerspace.fields import HeaderLayout
from ..headerspace.match import MatchCompiler
from ..core.rule_index import RuleIndex

Vector = Tuple[Action, ...]


class APKeepVerifier:
    """An APKeep*-style per-update verifier."""

    def __init__(
        self,
        devices: Sequence[int],
        layout: HeaderLayout,
        engine: Optional[PredicateEngine] = None,
        default_action: Action = DROP,
        universe: Optional[Predicate] = None,
        use_index: bool = True,
        delay_merge: int = 0,
        registry=None,
    ) -> None:
        self.use_index = use_index
        # §5.1: APKeep's "delay merge" parameter (default 0 = merge eagerly).
        # With k > 0, same-vector ECs are only coalesced every k updates,
        # trading EC-table size for fewer disjunctions on churny updates.
        self.delay_merge = delay_merge
        self._updates_since_merge = 0
        self.devices = list(devices)
        self._index_of = {d: i for i, d in enumerate(self.devices)}
        self.layout = layout
        if engine is None:
            engine = PredicateEngine(
                layout.total_bits, registry, sig_vars=layout.signature_vars
            )
        self.engine = engine
        self.compiler = MatchCompiler(self.engine, layout)
        self.default_action = default_action
        self.universe = self.engine.true if universe is None else universe
        self.snapshot = FibSnapshot(self.devices, default_action)
        self._indexes: Dict[int, RuleIndex] = {
            d: RuleIndex(layout) for d in self.devices
        }
        # The EC table: (action vector, predicate) pairs.  A plain dict
        # would merge same-vector entries implicitly; the delay-merge knob
        # needs them to coexist temporarily, so a list is kept and
        # coalesced by _merge_pass.
        initial: Vector = tuple(default_action for _ in self.devices)
        self._ecs: List[Tuple[Vector, Predicate]] = []
        if not self.universe.is_false:
            self._ecs.append((initial, self.universe))
        # PPM: per device, action → predicate owned by that action.
        self._ppm: Dict[int, Dict[Action, Predicate]] = {
            d: {default_action: self.universe} for d in self.devices
        }

    @property
    def metrics(self):
        """Stable accessor for predicate-operation counts (Table 3)."""
        return self.engine.metrics

    @property
    def registry(self):
        return self.engine.registry

    # -- update processing ----------------------------------------------------
    def apply(self, update: RuleUpdate) -> None:
        device = update.device
        if device not in self._index_of:
            raise DataPlaneError(f"unknown device {device}")
        self._updates_since_merge += 1
        table = self.snapshot.table(device)
        if update.is_insert:
            change = self._effective_predicate(device, update.rule, table)
            table.insert(update.rule)
            self._indexes[device].add(update.rule)
            self._transfer(device, change, update.rule.action)
        else:
            change = self._effective_predicate(device, update.rule, table)
            table.delete(update.rule)
            self._indexes[device].remove(update.rule)
            self._reown(device, change)

    def process_updates(self, updates: Iterable[RuleUpdate]) -> None:
        for u in updates:
            self.apply(u)

    def _effective_predicate(self, device: int, rule: Rule, table) -> Predicate:
        """m_r minus the matches of overlapping higher-precedence rules.

        For an insertion the rule is not installed yet: every overlapping
        rule with priority > rule.priority (or equal priority, installed
        earlier — i.e. all currently installed equal-priority rules) shadows
        it.  For a deletion the same set shadows the installed rule.
        """
        shadow = self.engine.false
        match_pred = self.compiler.compile(rule.match)
        if self.use_index:
            candidates = self._indexes[device].overlapping(rule.match)
        else:
            # Ablation: scan the whole table (no overlapped-rule look-up).
            candidates = table.rules(include_default=False)
        for other in candidates:
            if other is rule or other == rule:
                continue
            if other.priority >= rule.priority:
                shadow = shadow | self.compiler.compile(other.match)
        return match_pred - shadow

    def _transfer(self, device: int, change: Predicate, new_action: Action) -> None:
        """Move ``change`` to ``new_action`` in the PPM, then patch ECs."""
        if change.is_false:
            return
        ppm = self._ppm[device]
        moved_per_action: List[Tuple[Action, Predicate]] = []
        for action in list(ppm):
            if action == new_action:
                continue
            moved = ppm[action] & change
            if moved.is_false:
                continue
            ppm[action] = ppm[action] - moved
            if ppm[action].is_false:
                del ppm[action]
            moved_per_action.append((action, moved))
        if moved_per_action:
            gained = self.engine.disj_many(p for _, p in moved_per_action)
            ppm[new_action] = ppm.get(new_action, self.engine.false) | gained
            self._patch_ecs(device, gained, new_action)

    def _reown(self, device: int, freed: Predicate) -> None:
        """After a deletion, re-assign ``freed`` per the remaining rules."""
        if freed.is_false:
            return
        table = self.snapshot.table(device)
        remaining = freed
        for rule in table.rules():
            if remaining.is_false:
                break
            portion = remaining & self.compiler.compile(rule.match)
            if portion.is_false:
                continue
            self._transfer(device, portion, rule.action)
            remaining = remaining - portion

    def _patch_ecs(self, device: int, moved: Predicate, new_action: Action) -> None:
        """Split/merge ECs so that ``moved`` has ``new_action`` at ``device``."""
        slot = self._index_of[device]
        next_ecs: List[Tuple[Vector, Predicate]] = []
        for vector, pred in self._ecs:
            inter = pred & moved
            if inter.is_false:
                next_ecs.append((vector, pred))
                continue
            rest = pred - moved
            if not rest.is_false:
                next_ecs.append((vector, rest))
            # Array-vector copy: the O(N) cost PAT avoids.
            new_vector = vector[:slot] + (new_action,) + vector[slot + 1 :]
            next_ecs.append((new_vector, inter))
        self._ecs = next_ecs
        if (
            self.delay_merge <= 0
            or self._updates_since_merge >= self.delay_merge
        ):
            self._merge_pass()
            self._updates_since_merge = 0

    def _merge_pass(self) -> None:
        """Coalesce same-vector ECs by predicate disjunction."""
        merged: Dict[Vector, Predicate] = {}
        for vector, pred in self._ecs:
            existing = merged.get(vector)
            merged[vector] = pred if existing is None else existing | pred
        self._ecs = list(merged.items())

    # -- queries ---------------------------------------------------------------
    def num_ecs(self) -> int:
        return len(self._ecs)

    def entries(self) -> List[Tuple[Predicate, Vector]]:
        return [(p, v) for v, p in self._ecs]

    def behavior(self, assignment: Dict[int, bool]) -> Dict[int, Action]:
        for vector, pred in self._ecs:
            if pred.evaluate(assignment):
                return dict(zip(self.devices, vector))
        raise DataPlaneError("header not covered by any EC")

    def check_invariants(self) -> None:
        union = self.engine.false
        total = 0
        for _, pred in self._ecs:
            union = union | pred
            total += pred.sat_count()
        if union != self.universe or total != self.universe.sat_count():
            raise DataPlaneError("APKeep EC table invariant violated")

    def memory_estimate_bytes(self) -> int:
        pred_nodes = sum(p.node_count() for _, p in self._ecs)
        vector_bytes = len(self._ecs) * len(self.devices) * 8
        return pred_nodes * 40 + vector_bytes

    def __repr__(self) -> str:
        return f"APKeepVerifier({len(self.devices)} devices, {self.num_ecs()} ECs)"
