"""Fast inverse model transformation — Algorithm 1 (§3.3) and Appendix C.

Two entry points:

* :func:`merge_block_and_diff` + :func:`calculate_atomic_overwrites` — the
  two phases of Algorithm 1, decomposing a block of native rule updates into
  atomic conflict-free overwrites in O(K lg K + T) simple operations and
  O(T + K) predicate operations;
* :func:`natural_transformation` — the direct (Appendix C.2) transformation
  used as ground truth in tests and as the bootstrap path.

Priority ties follow the library-wide convention (FibTable): the
earlier-installed rule wins; inserted rules go after existing equal-priority
rules.  Well-behaved data planes (Definition 4) make the tiebreak
semantically irrelevant.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd.predicate import Predicate
from ..dataplane.fib import FibSnapshot, FibTable
from ..dataplane.rule import Action, Rule
from ..dataplane.update import RuleUpdate
from ..errors import DataPlaneError, RuleNotFoundError
from ..headerspace.match import MatchCompiler
from .actiontree import ActionTreeStore
from .inverse_model import InverseModel
from .overwrite import Overwrite, atomic


def merge_block_and_diff(
    rules: Sequence[Rule],
    updates: Sequence[RuleUpdate],
) -> Tuple[List[Rule], List[int]]:
    """Merge a block of native updates into a sorted rule list (Alg. 1, L7-28).

    Parameters
    ----------
    rules:
        The device's rules sorted by priority descending (default rule
        last), as produced by ``FibTable.rules()``.
    updates:
        The device's native updates for this block (cancelling pairs should
        already be removed; see ``UpdateBlock.remove_cancelling``).

    Returns
    -------
    (new_rules, rdiff_indices):
        The post-update sorted rule list and the indices (into it) of the
        *expanding* rules (Definition 13): inserted rules, plus every rule
        below a deleted rule.
    """
    # Group updates by priority so equal-priority deletes are located with a
    # single scan of that priority run regardless of their order in the block.
    by_priority: Dict[int, Tuple[Counter, List[Rule]]] = {}
    for u in updates:
        deletes, inserts = by_priority.setdefault(u.rule.priority, (Counter(), []))
        if u.is_delete:
            deletes[u.rule] += 1
        else:
            inserts.append(u.rule)

    result: List[Rule] = []
    rdiff: List[int] = []
    higher_priority_rule_deleted = False
    i = 0

    def emit(rule: Rule, expanding: bool) -> None:
        if expanding:
            rdiff.append(len(result))
        result.append(rule)

    for priority in sorted(by_priority, reverse=True):
        deletes, inserts = by_priority[priority]
        # Advance over strictly higher-priority survivors.
        while i < len(rules) and rules[i].priority > priority:
            emit(rules[i], higher_priority_rule_deleted)
            i += 1
        # Scan the equal-priority run, consuming deletions.
        while i < len(rules) and rules[i].priority == priority:
            rule = rules[i]
            if deletes.get(rule, 0) > 0:
                deletes[rule] -= 1
                higher_priority_rule_deleted = True
            else:
                emit(rule, higher_priority_rule_deleted)
            i += 1
        leftovers = [r for r, c in deletes.items() if c > 0]
        if leftovers:
            raise RuleNotFoundError(
                f"deletion of rules not installed: {leftovers!r}"
            )
        # Inserted rules go after existing equal-priority rules; new rules
        # always expand (Alg. 1, L20).
        for rule in inserts:
            emit(rule, True)
    # Remaining lower-priority rules (Alg. 1, L26-27).
    while i < len(rules):
        emit(rules[i], higher_priority_rule_deleted)
        i += 1
    return result, rdiff


def calculate_atomic_overwrites(
    device: int,
    new_rules: Sequence[Rule],
    rdiff_indices: Sequence[int],
    compiler: MatchCompiler,
) -> List[Overwrite]:
    """Compute the atomic overwrites for the expanding rules (Alg. 1, L29-44).

    Scans the sorted rule list once, accumulating the disjunction of all
    higher-precedence matches, so the whole block costs O(T + K) predicate
    operations.

    The complementary "no-update" overwrite ``(p_c, ∅)`` of Alg. 1 L41-43
    is not emitted: application treats the complement implicitly.
    """
    engine = compiler.engine
    accumulated = engine.false  # ∨ of matches with higher precedence
    overwrites: List[Overwrite] = []
    j = 0
    for idx in rdiff_indices:
        while j < idx:
            accumulated = accumulated | compiler.compile(new_rules[j].match)
            j += 1
        rule = new_rules[idx]
        effective = compiler.compile(rule.match) - accumulated
        if not effective.is_false:
            overwrites.append(atomic(effective, device, rule.action))
    return overwrites


def calculate_atomic_overwrites_indexed(
    device: int,
    new_rules: Sequence[Rule],
    rdiff_indices: Sequence[int],
    compiler: MatchCompiler,
    index,
) -> List[Overwrite]:
    """Trie-accelerated variant of Algorithm 1's second phase (§3.4).

    Instead of accumulating the disjunction of *all* higher-precedence
    matches, each expanding rule's effective predicate subtracts only the
    matches of higher-precedence rules that actually *overlap* it, found
    through the multi-dimension prefix trie.  For LPM-heavy tables the
    overlap sets are tiny, making this the better choice in per-update
    mode (small K); the sorted scan amortises better for whole-table
    blocks.

    ``index`` must contain exactly the rules of ``new_rules`` (minus the
    default), as maintained by the model manager.
    """
    engine = compiler.engine
    position_by_id = {id(rule): pos for pos, rule in enumerate(new_rules)}
    position_by_eq: Dict[Rule, int] = {}
    for pos, rule in enumerate(new_rules):
        position_by_eq.setdefault(rule, pos)
    overwrites: List[Overwrite] = []
    for idx in rdiff_indices:
        rule = new_rules[idx]
        shadow = engine.false
        for other in index.overlapping(rule.match):
            pos = position_by_id.get(id(other))
            if pos is None:
                # The index may hold an equal-but-distinct object when a
                # deletion removed its twin; fall back to equality.
                pos = position_by_eq.get(other)
            if pos is not None and pos < idx:
                shadow = shadow | compiler.compile(other.match)
        effective = compiler.compile(rule.match) - shadow
        if not effective.is_false:
            overwrites.append(atomic(effective, device, rule.action))
    return overwrites


def decompose_block(
    device: int,
    table: FibTable,
    updates: Sequence[RuleUpdate],
    compiler: MatchCompiler,
    index=None,
) -> Tuple[List[Rule], List[Overwrite]]:
    """Algorithm 1 end to end for one device.

    Returns the new sorted rule list (default included) and the atomic
    overwrites ΔM_i.  The caller is responsible for replacing the device's
    FIB with the returned rules.  With ``index`` (a RuleIndex kept in sync
    by the caller), effective predicates use the §3.4 trie look-up; the
    index is updated with the block's inserts/deletes here.
    """
    new_rules, rdiff = merge_block_and_diff(table.rules(), updates)
    if index is None:
        overwrites = calculate_atomic_overwrites(
            device, new_rules, rdiff, compiler
        )
    else:
        for u in updates:
            if u.is_insert:
                index.add(u.rule)
            else:
                index.remove(u.rule)
        # Re-point the index at the post-merge rule objects: deletions by
        # equality may have removed a different-but-equal object, which is
        # fine because overlap queries only use match/priority.
        overwrites = calculate_atomic_overwrites_indexed(
            device, new_rules, rdiff, compiler, index
        )
    return new_rules, overwrites


def replace_table_rules(table: FibTable, new_rules: Sequence[Rule]) -> None:
    """Swap a FibTable's contents for the merged rule list."""
    if not new_rules or not new_rules[-1].is_default:
        raise DataPlaneError("merged rule list lost the default rule")
    table._rules = list(new_rules)  # noqa: SLF001 — intentional fast path


# ----------------------------------------------------------------------
# Natural transformation (Appendix C.2) — the ground-truth direct path.
# ----------------------------------------------------------------------

def effective_predicates(
    rules: Sequence[Rule], compiler: MatchCompiler
) -> List[Predicate]:
    """Equation (1): e_ik = m_ik ∧ ¬∨_{higher} m_ik' for each rule, in order."""
    engine = compiler.engine
    accumulated = engine.false
    result: List[Predicate] = []
    for rule in rules:
        match_pred = compiler.compile(rule.match)
        result.append(match_pred - accumulated)
        accumulated = accumulated | match_pred
    return result


def device_action_predicates(
    rules: Sequence[Rule], compiler: MatchCompiler
) -> Dict[Action, Predicate]:
    """p_i(a): the union of effective predicates per action (Equation 2)."""
    engine = compiler.engine
    by_action: Dict[Action, Predicate] = {}
    for rule, eff in zip(rules, effective_predicates(rules, compiler)):
        if eff.is_false:
            continue
        current = by_action.get(rule.action, engine.false)
        by_action[rule.action] = current | eff
    return by_action


def natural_transformation(
    snapshot: FibSnapshot,
    compiler: MatchCompiler,
    store: ActionTreeStore,
    universe: Optional[Predicate] = None,
) -> InverseModel:
    """Appendix C.2's Φ_1(R) ⊗ ... ⊗ Φ_N(R), computed directly.

    For every device, the per-action predicates p_i(a) form a partition of
    the header space; applying them as single-device overwrites to a fresh
    model is exactly the model-overwrite fold of Definition 12.
    """
    engine = compiler.engine
    devices = snapshot.devices()
    model = InverseModel(
        engine,
        store,
        devices,
        default_action=None,
        universe=universe,
    )
    for device in devices:
        table = snapshot.table(device)
        per_action = device_action_predicates(table.rules(), compiler)
        model.apply_overwrites(
            atomic(pred, device, action) for action, pred in per_action.items()
        )
    return model
