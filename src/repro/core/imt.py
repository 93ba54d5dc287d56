"""Fast inverse model transformation — Algorithm 1 (§3.3) and Appendix C.

Two entry points:

* :func:`merge_block_and_diff` + :func:`calculate_atomic_overwrites` — the
  two phases of Algorithm 1, decomposing a block of native rule updates into
  atomic conflict-free overwrites in O(K lg K + T) simple operations and
  O(T + K) predicate operations;
* :func:`natural_transformation` — the direct (Appendix C.2) transformation,
  the test oracle Algorithm 1's overwrites are checked against; nothing
  outside the tests calls it.

One departure from the paper's second phase: a rule that expands only
because a higher-priority rule was deleted overwrites its effective
predicate *intersected with the freed region* (the disjunction of the
block's deleted matches on that device), not the whole effective
predicate.  Outside the freed region and the inserted matches no header
changes owner, so the model is the same; the block's support shrinks
from most of the header space to what the withdrawals actually freed.
Inserted rules overwrite their whole effective predicate, as in the
paper, and an inserts-only block yields the paper's overwrites.  The
paper's loop accumulates the disjunction of the higher-priority matches
and takes a difference per expanding rule; :func:`_carve` instead
shrinks one unclaimed region, one BDD walk per rule.  The paper's
unrestricted loop is kept as a test oracle (``tests/apply_reference.py``).

Priority ties follow the library-wide convention (FibTable): the
earlier-installed rule wins; inserted rules go after existing equal-priority
rules.  Well-behaved data planes (Definition 4) make the tiebreak
semantically irrelevant.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bdd.predicate import Predicate, Remainder
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
) -> Tuple[List[Rule], List[int], List[int]]:
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
    (new_rules, inserted, uncovered):
        The post-update sorted rule list and the ascending indices (into
        it) of its *expanding* rules (Definition 13), split in two: the
        inserted rules, and the surviving rules below a deleted rule.
        Algorithm 1 treats both alike; the split lets the second phase
        restrict the uncovered ones to the header space the deletions
        freed.
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
    inserted: List[int] = []
    uncovered: List[int] = []
    higher_priority_rule_deleted = False
    i = 0

    def keep(rule: Rule) -> None:
        if higher_priority_rule_deleted:
            uncovered.append(len(result))
        result.append(rule)

    for priority in sorted(by_priority, reverse=True):
        deletes, inserts = by_priority[priority]
        # Advance over strictly higher-priority survivors.
        while i < len(rules) and rules[i].priority > priority:
            keep(rules[i])
            i += 1
        # Scan the equal-priority run, consuming deletions.
        while i < len(rules) and rules[i].priority == priority:
            rule = rules[i]
            if deletes.get(rule, 0) > 0:
                deletes[rule] -= 1
                higher_priority_rule_deleted = True
            else:
                keep(rule)
            i += 1
        leftovers = [r for r, c in deletes.items() if c > 0]
        if leftovers:
            raise RuleNotFoundError(
                f"deletion of rules not installed: {leftovers!r}"
            )
        # Inserted rules go after existing equal-priority rules; new rules
        # always expand (Alg. 1, L20).
        for rule in inserts:
            inserted.append(len(result))
            result.append(rule)
    # Remaining lower-priority rules (Alg. 1, L26-27).
    while i < len(rules):
        keep(rules[i])
        i += 1
    return result, inserted, uncovered


def calculate_atomic_overwrites(
    device: int,
    new_rules: Sequence[Rule],
    inserted: Sequence[int],
    compiler: MatchCompiler,
    uncovered: Sequence[int] = (),
    deleted: Sequence[Rule] = (),
) -> List[Overwrite]:
    """Compute the atomic overwrites for the expanding rules (Alg. 1, L29-44).

    An inserted rule overwrites its whole effective predicate: one
    :func:`_carve` of the header space over the sorted rule list, in
    which every rule down to the last insert takes its match out of the
    unclaimed region and an inserted rule keeps what it took.  That is
    one predicate operation per rule, O(T + K) for the block.  A rule
    in ``uncovered`` (below one of the ``deleted`` rules) overwrites
    only its effective predicate inside the freed region — see
    :func:`_freed_overwrites` — which is the same model for fewer
    predicate operations.

    The complementary "no-update" overwrite ``(p_c, ∅)`` of Alg. 1 L41-43
    is not emitted: application treats the complement implicitly.
    """
    overwrites = _carve(
        device, new_rules, range(len(new_rules)), inserted,
        compiler.engine.true, compiler,
    )
    if uncovered:
        overwrites += _freed_overwrites(
            device, new_rules, range(len(new_rules)), uncovered, deleted,
            compiler,
        )
    return overwrites


def _carve(
    device: int,
    new_rules: Sequence[Rule],
    positions: Iterable[int],
    emitting: Sequence[int],
    region: Predicate,
    compiler: MatchCompiler,
) -> List[Overwrite]:
    """``(e_r ∧ region, a_r)`` for every emitting position ``r``.

    ``positions`` visits, in ascending order, at least every rule whose
    match meets ``region`` and lies above an emitting position.  The scan
    keeps ``rest``, the :class:`~repro.bdd.predicate.Remainder` of
    ``region`` no visited rule has claimed: an emitting rule splits its
    share off ``rest`` and overwrites it, any other rule only takes its
    match out of ``rest``.  That is one BDD walk per visited rule.  The
    scan stops at the last emitting position, which takes its share
    with a plain ∧, or once ``rest`` is ⊥ (at the default rule at the
    latest).

    ``rest`` only shrinks, so the region's signature stays a sound
    filter for it: a match disjoint from it is skipped without a BDD
    operation.  Re-taking ``signature(rest)`` per step would cost more
    occupancy walks than the filter saves; a region of ⊤ filters
    nothing, so it is not tested at all.
    """
    sig_of = compiler.engine.signature
    region_sig = None if region.is_true else sig_of(region)
    emits = set(emitting)
    last = max(emits, default=-1)
    rest = Remainder(region)
    overwrites: List[Overwrite] = []
    for pos in positions:
        if pos > last:
            break
        rule = new_rules[pos]
        match = compiler.compile(rule.match)
        if region_sig is not None and not sig_of(match) & region_sig:
            continue
        if pos in emits:
            # No rule below the last one needs what is left.
            claimed = rest.share(match) if pos == last else rest.claim(match)
            if not claimed.is_false:
                overwrites.append(atomic(claimed, device, rule.action))
        else:
            rest.take(match)
        if rest.is_false:
            break
    return overwrites


def _freed_overwrites(
    device: int,
    new_rules: Sequence[Rule],
    positions: Iterable[int],
    uncovered: Sequence[int],
    deleted: Sequence[Rule],
    compiler: MatchCompiler,
) -> List[Overwrite]:
    """``(e'_r ∧ F, a_r)`` for every uncovered rule ``r``.

    ``F`` is the disjunction of the deleted matches and ``e'_r`` the
    rule's effective predicate in ``new_rules``.  This is exact.  A
    header outside ``F`` and outside every inserted match keeps its
    highest-priority matching rule; inside an inserted match the
    insert's own overwrite decides; a freed header owned by a rule above
    every deletion had that owner before.  Every other freed header
    gets its new owner, an uncovered rule.  Taking all of ``F``, not
    only the deletions above ``r``, adds no error: inside ``r``'s old
    effective predicate the model already holds ``a_r``.

    One :func:`_carve` of ``F``, emitting at the uncovered positions;
    ``positions`` visits, in ascending order, at least every rule whose
    match meets ``F``.
    """
    freed = compiler.engine.disj_many(
        [compiler.compile(rule.match) for rule in deleted]
    )
    return _carve(device, new_rules, positions, uncovered, freed, compiler)


def calculate_atomic_overwrites_indexed(
    device: int,
    new_rules: Sequence[Rule],
    inserted: Sequence[int],
    compiler: MatchCompiler,
    index,
    uncovered: Sequence[int] = (),
    deleted: Sequence[Rule] = (),
) -> List[Overwrite]:
    """Trie-accelerated variant of Algorithm 1's second phase (§3.4).

    Instead of carving the header space with *all* higher-precedence
    matches, each inserted rule's effective predicate subtracts only the
    matches of higher-precedence rules that actually *overlap* it, found
    through the multi-dimension prefix trie: their balanced disjunction
    and one difference, a BDD walk per overlapping match and none for
    an insert nothing overlaps.  For LPM-heavy tables the
    overlap sets are tiny, making this the better choice in per-update
    mode (small K); the sorted scan amortises better for whole-table
    blocks.  Uncovered rules get the same freed-region overwrites as in
    :func:`calculate_atomic_overwrites`, with the scan visiting only the
    rules the trie finds overlapping a deleted match, plus the default.

    ``index`` must contain exactly the rules of ``new_rules`` (minus the
    default), as maintained by the model manager.
    """
    engine = compiler.engine
    position_by_id = {id(rule): pos for pos, rule in enumerate(new_rules)}
    position_by_eq: Dict[Rule, int] = {}
    for pos, rule in enumerate(new_rules):
        position_by_eq.setdefault(rule, pos)

    def position_of(rule: Rule) -> Optional[int]:
        pos = position_by_id.get(id(rule))
        if pos is None:
            # The index may hold an equal-but-distinct object when a
            # deletion removed its twin; fall back to equality.
            pos = position_by_eq.get(rule)
        return pos

    overwrites: List[Overwrite] = []
    for idx in inserted:
        rule = new_rules[idx]
        above = []
        for other in index.overlapping(rule.match):
            pos = position_of(other)
            if pos is not None and pos < idx:
                above.append(compiler.compile(other.match))
        effective = compiler.compile(rule.match)
        if above:
            effective = effective - engine.disj_many(above)
        if not effective.is_false:
            overwrites.append(atomic(effective, device, rule.action))
    if uncovered:
        near = {len(new_rules) - 1}  # the default rule meets everything
        for gone in deleted:
            for other in index.overlapping(gone.match):
                pos = position_of(other)
                if pos is not None:
                    near.add(pos)
        overwrites += _freed_overwrites(
            device, new_rules, sorted(near), uncovered, deleted, compiler
        )
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
    new_rules, inserted, uncovered = merge_block_and_diff(
        table.rules(), updates
    )
    deleted = [u.rule for u in updates if u.is_delete]
    if index is None:
        overwrites = calculate_atomic_overwrites(
            device, new_rules, inserted, compiler, uncovered, deleted
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
            device, new_rules, inserted, compiler, index, uncovered, deleted
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
