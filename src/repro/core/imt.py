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
shrinks one unclaimed region.  §3.4's overlap look-up is the cofactor
signature test, without an index: the inserted rules' carve walks a
rule only if its signature meets an inserted rule's and an earlier
rule's, and defers the others, which an inserted rule then takes out of
its share only where they meet.  The paper's unrestricted loop is kept as
a test oracle (``tests/apply_reference.py``).

Priority ties follow the library-wide convention (FibTable): the
earlier-installed rule wins; inserted rules go after existing equal-priority
rules.  Well-behaved data planes (Definition 4) make the tiebreak
semantically irrelevant.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd.predicate import Predicate, Remainder
from ..dataplane.fib import FibSnapshot, FibTable
from ..dataplane.rule import Action, Rule
from ..dataplane.update import RuleUpdate
from ..errors import DataPlaneError, RuleNotFoundError
from ..headerspace.match import Match, MatchCompiler
from .actiontree import ActionTreeStore
from .inverse_model import InverseModel
from .overwrite import Overwrite, atomic
from .rule_index import matches_intersect


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
    one walk per rule whose signature meets an earlier rule's, plus one
    per (insert, deferred rule) pair that meets, and none for a rule
    :func:`_carve` finds disjoint from every insert.  A rule
    in ``uncovered`` (below one of the ``deleted`` rules) overwrites
    only its effective predicate inside the freed region — see
    :func:`_freed_overwrites` — which is the same model for fewer
    predicate operations.

    The complementary "no-update" overwrite ``(p_c, ∅)`` of Alg. 1 L41-43
    is not emitted: application treats the complement implicitly.
    """
    overwrites = _carve(
        device, new_rules, inserted, compiler.engine.true, compiler
    )
    if uncovered:
        overwrites += _freed_overwrites(
            device, new_rules, uncovered, deleted, compiler
        )
    return overwrites


def _carve(
    device: int,
    new_rules: Sequence[Rule],
    emitting: Sequence[int],
    region: Predicate,
    compiler: MatchCompiler,
) -> List[Overwrite]:
    """``(e_r ∧ region, a_r)`` for every emitting position ``r``.

    ``emitting`` is ascending.  The scan visits the rules in order and
    keeps ``rest``, the :class:`~repro.bdd.predicate.Remainder` of
    ``region`` no walked rule has claimed: an emitting rule splits its
    share off ``rest`` and overwrites it, any other rule only takes its
    match out of ``rest``, one BDD walk each.  The scan stops at the
    last emitting position, which takes its share with a plain ∧, or
    once ``rest`` is ⊥ (at the default rule at the latest).

    §3.4's fast look-up for overlapped rules is the cofactor signature
    test, without an index, in two places:

    * a rule disjoint from every emitting match inside ``region``
      changes no share (it only lets ``rest`` reach ⊥ later), so it is
      skipped without a walk.  ``emit_sig``, the disjunction of the
      emitting matches' signatures cut down to the region's, finds such
      rules; a full one filters nothing and is not tested.  With one
      emitting rule (a per-update block) each rule is first tested
      against its match field by field (:func:`matches_intersect`) and a
      disjoint one is not even compiled;
    * when ``region`` is ⊤ (the inserted rules), a scanned rule whose
      signature meets no earlier scanned rule's (``taken_sig``) is
      disjoint from all of them, so it is deferred to ``pending``
      without a walk, and an emitting one overwrites its whole match.
      The unclaimed region is then ``rest − ∨pending``: an emitting rule
      walked on ``rest`` takes out of its claimed share each pending
      rule whose signature meets its own, a walk on a small operand; a
      pending rule with the same signature (which cannot tell the two
      apart) is first tested field by field.
      A rule with a full signature (a wildcard) is walked, so a region
      one rule uses up still ends the scan, unless it is the last
      emitting rule, after which nothing is scanned.  The freed region
      of a withdrawal is carved eagerly.

    So the cost is one walk per scanned rule whose signature meets an
    earlier one's, plus one per (emitting, pending) pair that meets.
    Every emitting match is compiled before the scan,
    so one that does not compile raises before anything is written,
    even when a rule above it leaves it no share.
    """
    sig_of = compiler.engine.signature
    compile_match = compiler.compile
    emits = [(pos, compile_match(new_rules[pos].match)) for pos in emitting]
    full = sig_of(compiler.engine.true)
    lazy = region.is_true
    cap = full if lazy else sig_of(region)
    emit_sig = 0
    for _, match in emits:
        emit_sig |= sig_of(match) & cap
        if emit_sig == cap:
            break
    if emit_sig == full:
        emit_sig = None
    solo = new_rules[emitting[0]].match if len(emitting) == 1 else None
    rest = Remainder(region)
    taken_sig = 0
    pending: List[Tuple[Predicate, int, Match]] = []
    overwrites: List[Overwrite] = []
    last = emitting[-1] if emitting else -1
    start = 0
    for pos, match in emits:
        for rule in new_rules[start:pos]:
            if solo is not None and not matches_intersect(rule.match, solo):
                continue
            taken = compile_match(rule.match)
            sig = sig_of(taken)
            if emit_sig is not None and not sig & emit_sig:
                continue
            if lazy and not sig & taken_sig and sig != full:
                pending.append((taken, sig, rule.match))
            else:
                rest.take(taken)
                if rest.is_false:
                    return overwrites
            taken_sig |= sig
        start = pos + 1
        sig = sig_of(match)
        if emit_sig is not None and not sig & emit_sig:
            continue
        emitted = new_rules[pos]
        if lazy and not sig & taken_sig and (sig != full or pos == last):
            claimed = match
            pending.append((match, sig, emitted.match))
        else:
            # No rule below the last one needs what is left.
            claimed = rest.share(match) if pos == last else rest.claim(match)
            if pending and not claimed.is_false:
                share = Remainder(claimed)
                for part, part_sig, part_match in pending:
                    # Equal signatures cannot tell the two apart (they
                    # differ only below the cells): test the fields.
                    if part_sig & sig and (
                        part_sig != sig
                        or matches_intersect(part_match, emitted.match)
                    ):
                        share.take(part)
                        if share.is_false:
                            break
                claimed = share.left()
        taken_sig |= sig
        if not claimed.is_false:
            overwrites.append(atomic(claimed, device, emitted.action))
        if rest.is_false:
            break
    return overwrites


def _freed_overwrites(
    device: int,
    new_rules: Sequence[Rule],
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

    One :func:`_carve` of ``F``, emitting at the uncovered positions.
    """
    freed = compiler.engine.disj_many(
        [compiler.compile(rule.match) for rule in deleted]
    )
    return _carve(device, new_rules, uncovered, freed, compiler)


def decompose_block(
    device: int,
    table: FibTable,
    updates: Sequence[RuleUpdate],
    compiler: MatchCompiler,
) -> Tuple[List[Rule], List[Overwrite]]:
    """Algorithm 1 end to end for one device.

    Returns the new sorted rule list (default included) and the atomic
    overwrites ΔM_i.  The caller is responsible for replacing the device's
    FIB with the returned rules.
    """
    new_rules, inserted, uncovered = merge_block_and_diff(
        table.rules(), updates
    )
    deleted = [u.rule for u in updates if u.is_delete]
    overwrites = calculate_atomic_overwrites(
        device, new_rules, inserted, compiler, uncovered, deleted
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
