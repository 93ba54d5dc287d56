"""Tests for Algorithm 1, MR2 and the model manager — the heart of Fast IMT.

The headline properties (Theorem 2 / the R ∼ M equivalence) are checked by
exhaustive enumeration of a small header space against the forward model,
and against the Appendix-C natural transformation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.predicate import PredicateEngine
from repro.core.actiontree import ActionTreeStore
from repro.core.imt import (
    calculate_atomic_overwrites,
    decompose_block,
    device_action_predicates,
    effective_predicates,
    merge_block_and_diff,
    natural_transformation,
    replace_table_rules,
)
from repro.core.inverse_model import InverseModel
from repro.core.model_manager import ModelWriter
from repro.core.mr2 import (
    Mr2Pipeline,
    aggregate,
    reduce_by_action,
    reduce_by_predicate,
)
from repro.core.overwrite import Overwrite, atomic, check_conflict_free
from repro.dataplane.fib import FibSnapshot, FibTable
from repro.dataplane.rule import DROP, Rule
from repro.dataplane.update import UpdateBlock, delete, insert
from repro.errors import (
    HeaderSpaceError,
    OverwriteConflictError,
    RuleNotFoundError,
)
from repro.core.rule_index import matches_intersect
from repro.headerspace.fields import dst_only_layout, dst_src_layout
from repro.headerspace.match import Match, MatchCompiler, Pattern

from .apply_reference import unrestricted_overwrites
from .conftest import assert_model_matches_snapshot, case_rng, random_rule_strategy

LAYOUT = dst_only_layout(4)
ACTIONS = [1, 2, 3]


def rule(pri, value, length, action):
    return Rule(pri, Match.dst_prefix(value, length, LAYOUT), action)


def fresh_compiler():
    return MatchCompiler(PredicateEngine(LAYOUT.total_bits), LAYOUT)


def model_rows(model):
    """Engine-independent EC table: the set of (sat_count, actions) rows."""
    return {
        (pred.sat_count(), tuple(sorted(model.store.to_dict(vec).items())))
        for pred, vec in model.entries()
    }


class TestMergeBlockAndDiff:
    def test_pure_insert(self):
        table = FibTable()
        table.insert(rule(1, 0, 0, 1))
        new_rule = rule(3, 0b1000, 1, 2)
        merged, inserted, uncovered = merge_block_and_diff(
            table.rules(), [insert(0, new_rule)]
        )
        assert merged[0] == new_rule
        assert [merged[i] for i in inserted] == [new_rule]
        assert uncovered == []

    def test_insert_goes_after_equal_priority(self):
        table = FibTable()
        existing = rule(2, 0, 0, 1)
        table.insert(existing)
        new = rule(2, 0b1000, 1, 2)
        merged, _, _ = merge_block_and_diff(table.rules(), [insert(0, new)])
        assert merged.index(existing) < merged.index(new)

    def test_delete_marks_lower_rules_expanding(self):
        table = FibTable()
        high = rule(3, 0b1000, 1, 1)
        low = rule(1, 0, 0, 2)
        table.insert(high)
        table.insert(low)
        merged, inserted, uncovered = merge_block_and_diff(
            table.rules(), [delete(0, high)]
        )
        assert high not in merged
        assert inserted == []
        expanding = [merged[i] for i in uncovered]
        assert low in expanding
        assert merged[-1] in expanding  # default rule expands too

    def test_rules_above_deletion_not_expanding(self):
        table = FibTable()
        top = rule(5, 0, 0, 1)
        mid = rule(3, 0, 0, 2)
        table.insert(top)
        table.insert(mid)
        merged, _, uncovered = merge_block_and_diff(
            table.rules(), [delete(0, mid)]
        )
        expanding = [merged[i] for i in uncovered]
        assert top not in expanding

    def test_delete_missing_raises(self):
        table = FibTable()
        with pytest.raises(RuleNotFoundError):
            merge_block_and_diff(table.rules(), [delete(0, rule(2, 0, 0, 9))])

    def test_equal_priority_deletes_any_order(self):
        table = FibTable()
        a, b = rule(2, 0b0000, 2, 1), rule(2, 0b0100, 2, 2)
        table.insert(a)
        table.insert(b)
        merged, _, _ = merge_block_and_diff(
            table.rules(), [delete(0, b), delete(0, a)]
        )
        assert a not in merged and b not in merged

    def test_mixed_block_matches_sequential_application(self):
        table = FibTable()
        rules = [rule(p, v, 2, p + 1) for p, v in [(1, 0), (2, 4), (3, 8)]]
        for r in rules:
            table.insert(r)
        block = [
            delete(0, rules[1]),
            insert(0, rule(2, 12, 2, 9)),
            insert(0, rule(5, 0, 1, 7)),
        ]
        merged, _, _ = merge_block_and_diff(table.rules(), block)
        expected = table.copy()
        expected.delete(rules[1])
        expected.insert(rule(2, 12, 2, 9))
        expected.insert(rule(5, 0, 1, 7))
        assert merged == expected.rules()

    def test_result_stays_sorted(self):
        table = FibTable()
        for p in [4, 2]:
            table.insert(rule(p, 0, 0, p))
        merged, _, _ = merge_block_and_diff(
            table.rules(), [insert(0, rule(3, 0, 0, 3)), insert(0, rule(5, 0, 0, 5))]
        )
        priorities = [r.priority for r in merged]
        assert priorities == sorted(priorities, reverse=True)


class TestEffectivePredicates:
    def test_higher_priority_shadows(self):
        compiler = fresh_compiler()
        table = FibTable()
        table.insert(rule(2, 0b1000, 1, 1))  # dst 1???
        table.insert(rule(1, 0, 0, 2))       # catch-all
        effs = effective_predicates(table.rules(), compiler)
        # Rule 2's effective predicate excludes the 1??? space.
        dst_bits = dict(LAYOUT.bits_of("dst", 0b1000))
        assert effs[0].evaluate(dst_bits)
        assert not effs[1].evaluate(dst_bits)
        low_bits = dict(LAYOUT.bits_of("dst", 0b0100))
        assert effs[1].evaluate(low_bits)

    def test_partition(self):
        compiler = fresh_compiler()
        table = FibTable()
        table.insert(rule(2, 0b1000, 1, 1))
        table.insert(rule(1, 0b0000, 2, 2))
        effs = effective_predicates(table.rules(), compiler)
        engine = compiler.engine
        union = engine.false
        total = 0
        for e in effs:
            union = union | e
            total += e.sat_count()
        assert union.is_true
        assert total == LAYOUT.universe_size

    def test_device_action_predicates_merges_same_action(self):
        compiler = fresh_compiler()
        table = FibTable()
        table.insert(rule(2, 0b1000, 2, 7))
        table.insert(rule(2, 0b0100, 2, 7))
        by_action = device_action_predicates(table.rules(), compiler)
        assert set(by_action) == {7, DROP}
        assert by_action[7].sat_count() == 8


class TestReduceOperators:
    def test_reduce_by_action_merges_predicates(self):
        compiler = fresh_compiler()
        engine = compiler.engine
        p1 = compiler.compile(Match.dst_prefix(0b0000, 2, LAYOUT))
        p2 = compiler.compile(Match.dst_prefix(0b0100, 2, LAYOUT))
        reduced = reduce_by_action([atomic(p1, 0, 9), atomic(p2, 0, 9)])
        assert len(reduced) == 1
        assert reduced[0].predicate == (p1 | p2)
        assert reduced[0].delta == ((0, 9),)

    def test_reduce_by_action_keeps_distinct_deltas(self):
        compiler = fresh_compiler()
        p = compiler.compile(Match.dst_prefix(0, 1, LAYOUT))
        reduced = reduce_by_action([atomic(p, 0, 1), atomic(p, 1, 1)])
        assert len(reduced) == 2

    def test_reduce_by_predicate_merges_deltas(self):
        compiler = fresh_compiler()
        p = compiler.compile(Match.dst_prefix(0, 1, LAYOUT))
        reduced = reduce_by_predicate([atomic(p, 0, 1), atomic(p, 1, 2)])
        assert len(reduced) == 1
        assert reduced[0].delta == ((0, 1), (1, 2))

    def test_reduce_by_predicate_detects_conflicts(self):
        compiler = fresh_compiler()
        p = compiler.compile(Match.dst_prefix(0, 1, LAYOUT))
        with pytest.raises(OverwriteConflictError):
            reduce_by_predicate([atomic(p, 0, 1), atomic(p, 0, 2)])

    def test_figure2_style_aggregation(self):
        """Six updates with two distinct predicates collapse to two overwrites."""
        compiler = fresh_compiler()
        p4 = compiler.compile(Match.dst_prefix(0b0000, 2, LAYOUT))
        p5 = compiler.compile(Match.dst_prefix(0b0100, 2, LAYOUT))
        atomics = [
            atomic(p4, 0, 10), atomic(p5, 0, 10),
            atomic(p4, 1, 20), atomic(p5, 1, 20),
            atomic(p4, 2, 30), atomic(p5, 2, 30),
        ]
        compact = aggregate(atomics)
        assert len(compact) == 1
        assert compact[0].predicate == (p4 | p5)
        assert compact[0].delta == ((0, 10), (1, 20), (2, 30))
        check_conflict_free(compact)


class TestInverseModelApplication:
    def test_initial_model_single_ec(self):
        engine = PredicateEngine(LAYOUT.total_bits)
        store = ActionTreeStore()
        model = InverseModel(engine, store, [0, 1])
        assert len(model) == 1
        model.check_invariants()

    def test_overwrite_splits_and_merges(self):
        compiler = fresh_compiler()
        engine = compiler.engine
        store = ActionTreeStore()
        model = InverseModel(engine, store, [0])
        p = compiler.compile(Match.dst_prefix(0b1000, 1, LAYOUT))
        model.apply_overwrites([atomic(p, 0, 5)])
        assert len(model) == 2
        model.check_invariants()
        # Overwriting the complement with the same action merges back.
        model.apply_overwrites([atomic(~p, 0, 5)])
        assert len(model) == 1
        model.check_invariants()

    def test_provenance_tracks_origin(self):
        compiler = fresh_compiler()
        engine = compiler.engine
        store = ActionTreeStore()
        model = InverseModel(engine, store, [0])
        original = model.entries()[0][0]
        p = compiler.compile(Match.dst_prefix(0b1000, 1, LAYOUT))
        lineage = model.apply_overwrites([atomic(p, 0, 5)])
        assert {d.origin for d in lineage.changed} == {original}
        assert lineage.removed == [original]

    def test_empty_overwrite_ignored(self):
        engine = PredicateEngine(LAYOUT.total_bits)
        store = ActionTreeStore()
        model = InverseModel(engine, store, [0])
        model.apply_overwrites([atomic(engine.false, 0, 5)])
        assert len(model) == 1


def build_manager(devices=(0, 1, 2), threshold=None):
    return ModelWriter(list(devices), LAYOUT, block_threshold=threshold)


class TestModelWriter:
    def test_block_equivalence_simple(self):
        manager = build_manager()
        updates = [
            insert(0, rule(2, 0b1000, 1, 1)),
            insert(1, rule(2, 0b1000, 1, 2)),
            insert(2, rule(1, 0, 0, 0)),
        ]
        manager.submit(updates)
        manager.flush()
        assert_model_matches_snapshot(manager.model, manager.snapshot, LAYOUT)
        manager.model.check_invariants()

    def test_threshold_triggers_flush(self):
        manager = build_manager(threshold=2)
        manager.submit([insert(0, rule(1, 0, 0, 1))])
        assert manager.pending_count == 1
        manager.submit([insert(1, rule(1, 0, 0, 1))])
        assert manager.pending_count == 0
        assert manager.breakdown.blocks == 1

    def test_delete_restores_previous_state(self):
        manager = build_manager()
        r = rule(3, 0b1000, 2, 7)
        manager.submit([insert(0, r)])
        manager.flush()
        manager.submit([delete(0, r)])
        manager.flush()
        assert manager.num_ecs() == 1
        assert_model_matches_snapshot(manager.model, manager.snapshot, LAYOUT)

    def test_per_update_equals_block(self):
        updates = [
            insert(0, rule(2, 0b1000, 1, 1)),
            insert(0, rule(3, 0b1100, 2, 2)),
            insert(1, rule(1, 0, 0, 3)),
            delete(0, rule(2, 0b1000, 1, 1)),
        ]
        block_mgr = build_manager()
        block_mgr.submit(updates)
        block_mgr.flush()
        puv_mgr = build_manager(threshold=1)
        puv_mgr.submit(updates)
        assert_model_matches_snapshot(block_mgr.model, block_mgr.snapshot, LAYOUT)
        assert_model_matches_snapshot(puv_mgr.model, puv_mgr.snapshot, LAYOUT)
        # Engines differ, so compare behaviour rows, not node ids.
        assert model_rows(block_mgr.model) == model_rows(puv_mgr.model)

    def test_matches_natural_transformation(self):
        manager = build_manager()
        updates = [
            insert(0, rule(2, 0b1000, 1, 1)),
            insert(1, rule(2, 0b0100, 2, 2)),
            insert(2, rule(1, 0, 0, 1)),
        ]
        manager.submit(updates)
        manager.flush()
        natural = natural_transformation(
            manager.snapshot, manager.compiler, manager.store
        )
        lhs = {(p.node, v) for p, v in manager.model.entries()}
        rhs = {(p.node, v) for p, v in natural.entries()}
        assert lhs == rhs

    def test_breakdown_accumulates(self):
        manager = build_manager()
        manager.submit([insert(0, rule(1, 0, 0, 1))])
        manager.flush()
        assert manager.breakdown.blocks == 1
        assert manager.breakdown.updates == 1
        assert manager.breakdown.total_seconds > 0


class TestEquivalenceProperties:
    """Hypothesis: random well-behaved FIB blocks keep R ∼ M (Theorem 2)."""

    @given(
        st.lists(random_rule_strategy(LAYOUT, ACTIONS), max_size=12),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_insert_blocks_preserve_equivalence(self, rules, data):
        manager = build_manager(devices=(0, 1))
        updates = [
            insert(data.draw(st.integers(0, 1), label="device"), r) for r in rules
        ]
        # Split into two blocks to exercise incremental application.
        half = len(updates) // 2
        manager.submit(updates[:half])
        manager.flush()
        manager.submit(updates[half:])
        manager.flush()
        manager.model.check_invariants()
        assert_model_matches_snapshot(manager.model, manager.snapshot, LAYOUT)

    @given(
        st.lists(random_rule_strategy(LAYOUT, ACTIONS), min_size=2, max_size=10),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_insert_then_delete_some(self, rules, data):
        manager = build_manager(devices=(0,))
        inserts = [insert(0, r) for r in rules]
        manager.submit(inserts)
        manager.flush()
        # Delete a subset (dedup rules first: equal rules collapse).
        unique = list(dict.fromkeys(rules))
        keep = data.draw(
            st.lists(st.sampled_from(unique), unique=True, max_size=len(unique)),
            label="to_delete",
        )
        seen = set()
        deletions = []
        for r in rules:
            if r in keep and r not in seen:
                seen.add(r)
                deletions.append(delete(0, r))
        manager.submit(deletions)
        manager.flush()
        manager.model.check_invariants()
        assert_model_matches_snapshot(manager.model, manager.snapshot, LAYOUT)

    @given(
        st.lists(random_rule_strategy(LAYOUT, ACTIONS), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_per_update_withdrawals_keep_equivalence(self, rules, data):
        # One update per block: every carve has one emitting rule, the
        # case where rules are tested field by field before compiling.
        manager = build_manager(devices=(0,), threshold=1)
        manager.submit([insert(0, r) for r in rules])
        unique = list(dict.fromkeys(rules))
        doomed = data.draw(
            st.lists(st.sampled_from(unique), unique=True, max_size=4),
            label="deletions",
        )
        manager.submit([delete(0, r) for r in doomed])
        assert manager.pending_count == 0
        manager.model.check_invariants()
        assert_model_matches_snapshot(manager.model, manager.snapshot, LAYOUT)

    @given(st.lists(random_rule_strategy(LAYOUT, ACTIONS), max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_block_equals_per_update(self, rules):
        updates = [insert(0, r) for r in rules]
        block_mgr = build_manager(devices=(0,))
        block_mgr.submit(updates)
        block_mgr.flush()
        puv_mgr = build_manager(devices=(0,), threshold=1)
        puv_mgr.submit(updates)
        assert block_mgr.num_ecs() == puv_mgr.num_ecs()
        assert_model_matches_snapshot(block_mgr.model, block_mgr.snapshot, LAYOUT)
        assert_model_matches_snapshot(puv_mgr.model, puv_mgr.snapshot, LAYOUT)

    @given(st.lists(random_rule_strategy(LAYOUT, ACTIONS), max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_atomic_overwrites_conflict_free(self, rules):
        compiler = fresh_compiler()
        table = FibTable()
        merged, inserted, _ = merge_block_and_diff(
            table.rules(), [insert(0, r) for r in rules]
        )
        overwrites = calculate_atomic_overwrites(0, merged, inserted, compiler)
        check_conflict_free(overwrites)

    @given(st.lists(random_rule_strategy(LAYOUT, ACTIONS), max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_emit_noop_partitions_space(self, rules):
        compiler = fresh_compiler()
        engine = compiler.engine
        table = FibTable()
        merged, inserted, _ = merge_block_and_diff(
            table.rules(), [insert(0, r) for r in rules]
        )
        overwrites = calculate_atomic_overwrites(0, merged, inserted, compiler)
        # The "no-update" overwrite (p_c, ∅) of Alg. 1 L41-43, which
        # application treats implicitly, completes the partition.
        noop = ~engine.disj_many(ow.predicate for ow in overwrites)
        if not noop.is_false:
            overwrites.append(Overwrite(noop, ()))
        union = engine.false
        total = 0
        for ow in overwrites:
            union = union | ow.predicate
            total += ow.predicate.sat_count()
        assert union.is_true
        assert total == LAYOUT.universe_size


class TestFreedRegionOverwrites:
    """A withdrawal overwrites only the header space it freed.

    Random tables and mixed insert/withdraw blocks: the restricted
    decomposition yields the same model as the unrestricted Algorithm 1
    (``tests/apply_reference.py``), and a block of withdrawals only
    writes nothing outside the deleted matches.
    """

    CASES = 40

    @staticmethod
    def _random_rule(rng):
        value, length = rng.getrandbits(4), rng.randint(0, 4)
        if rng.random() < 0.7:
            match = Match.dst_prefix(value, length, LAYOUT)
        else:
            match = Match({"dst": Pattern.suffix(value, length, 4)})
        return Rule(rng.randint(1, 6), match, rng.choice(ACTIONS))

    def _check(self, installed, block):
        compiler = fresh_compiler()
        engine = compiler.engine
        store = ActionTreeStore()
        snapshot = FibSnapshot([0])
        for r in installed:
            snapshot.table(0).insert(r)
        before = natural_transformation(snapshot, compiler, store)
        table = snapshot.table(0)
        merged, inserted, uncovered = merge_block_and_diff(table.rules(), block)
        unrestricted = unrestricted_overwrites(
            0, merged, sorted(inserted + uncovered), compiler
        )
        _, restricted = decompose_block(0, table.copy(), block, compiler)
        models = []
        for overwrites in (restricted, unrestricted):
            model = InverseModel(engine, store, [0])
            model.restore(before.entries())
            model.apply_overwrites(overwrites)
            model.check_invariants()
            models.append(model)
        assert model_rows(models[0]) == model_rows(models[1])
        if not inserted:
            freed = engine.disj_many(compiler.compile(u.rule.match) for u in block)
            written = engine.disj_many(ow.predicate for ow in restricted)
            assert (written - freed).is_false
        return len(restricted), len(unrestricted)

    def test_restricted_equals_unrestricted(self):
        emitted = {"restricted": 0, "unrestricted": 0}
        for case in range(self.CASES):
            rng = case_rng(case)
            installed = list(
                dict.fromkeys(self._random_rule(rng) for _ in range(rng.randint(1, 10)))
            )
            doomed = rng.sample(installed, rng.randint(1, min(3, len(installed))))
            block = [delete(0, r) for r in doomed]
            if case % 2:  # odd cases mix inserts in; even ones only withdraw
                fresh = (self._random_rule(rng) for _ in range(rng.randint(1, 3)))
                block += [
                    insert(0, r) for r in dict.fromkeys(fresh) if r not in installed
                ]
            restricted, unrestricted = self._check(installed, block)
            emitted["restricted"] += restricted
            emitted["unrestricted"] += unrestricted
        # Not vacuous: the restriction drops some overwrites outright.
        assert emitted["restricted"] < emitted["unrestricted"]


class TestCarve:
    """Algorithm 1's second phase as one carve of an unclaimed region.

    On random tables the overwrites are, in order, the inserted rules'
    effective predicates (``effective_predicates``, and the paper's
    unrestricted loop in ``tests/apply_reference.py``) and then the
    uncovered rules' effective predicates inside the freed region.
    Applied to the old model they give the natural transformation of the
    new table.  A carve stops once its region is used up, so rules below
    that point cost no predicate operation, and it skips a rule whose
    signature misses every emitting match without one either.
    """

    CASES = 40
    _random_rule = staticmethod(TestFreedRegionOverwrites._random_rule)

    @classmethod
    def _tied_rule(cls, rng):
        """A random rule at priority 2 or 3, so equal priorities abound."""
        r = cls._random_rule(rng)
        return Rule(rng.choice((2, 3)), r.match, r.action)

    @staticmethod
    def _overwrites_and_ops(installed, block):
        """The block's overwrites and the predicate operations they took."""
        compiler = fresh_compiler()
        snapshot = FibSnapshot([0])
        for r in installed:
            snapshot.table(0).insert(r)
        merged, inserted, uncovered = merge_block_and_diff(
            snapshot.table(0).rules(), block
        )
        deleted = [u.rule for u in block if u.is_delete]
        for r in merged + deleted:  # compiling counts operations too
            compiler.compile(r.match)
        metrics = compiler.engine.metrics
        metrics.reset()
        got = calculate_atomic_overwrites(
            0, merged, inserted, compiler, uncovered, deleted
        )
        return got, metrics.total

    def _check(self, installed, block):
        compiler = fresh_compiler()
        engine = compiler.engine
        store = ActionTreeStore()
        snapshot = FibSnapshot([0])
        for r in installed:
            snapshot.table(0).insert(r)
        before = natural_transformation(snapshot, compiler, store)
        merged, inserted, uncovered = merge_block_and_diff(
            snapshot.table(0).rules(), block
        )
        deleted = [u.rule for u in block if u.is_delete]
        got = calculate_atomic_overwrites(
            0, merged, inserted, compiler, uncovered, deleted
        )

        effective = effective_predicates(merged, compiler)
        freed = engine.false
        for r in deleted:
            freed = freed | compiler.compile(r.match)

        def nonempty(pairs):
            return [
                atomic(pred, 0, merged[i].action)
                for i, pred in pairs
                if not pred.is_false
            ]

        inserts = nonempty((i, effective[i]) for i in inserted)
        assert inserts == unrestricted_overwrites(0, merged, inserted, compiler)
        assert got == inserts + nonempty((i, effective[i] & freed) for i in uncovered)

        model = InverseModel(engine, store, [0])
        model.restore(before.entries())
        model.apply_overwrites(got)
        model.check_invariants()
        replace_table_rules(snapshot.table(0), merged)
        after = natural_transformation(snapshot, compiler, store)
        assert set(model.entries()) == set(after.entries())
        return got

    def test_inserts_with_equal_priority_ties(self):
        emitted = 0
        for case in range(self.CASES):
            rng = case_rng(case)
            installed = list(dict.fromkeys(
                self._tied_rule(rng) for _ in range(rng.randint(0, 6))
            ))
            fresh = dict.fromkeys(
                self._tied_rule(rng) for _ in range(rng.randint(1, 5))
            )
            block = [insert(0, r) for r in fresh if r not in installed]
            emitted += len(self._check(installed, block))
        assert emitted

    def test_inserts_mixed_with_withdrawals(self):
        emitted = 0
        for case in range(self.CASES):
            rng = case_rng(case)
            installed = list(dict.fromkeys(
                self._random_rule(rng) for _ in range(rng.randint(1, 10))
            ))
            doomed = rng.sample(installed, rng.randint(1, min(3, len(installed))))
            fresh = dict.fromkeys(
                self._random_rule(rng) for _ in range(rng.randint(1, 3))
            )
            block = [delete(0, r) for r in doomed] + [
                insert(0, r) for r in fresh if r not in installed
            ]
            emitted += len(self._check(installed, block))
        assert emitted

    @pytest.mark.parametrize("below", [2, 12])
    def test_region_used_up_before_the_default_rule(self, below):
        wildcard = rule(9, 0, 0, 1)  # claims the whole header space
        lower = [rule(5, v, 4, 2) for v in range(below)]
        got = self._check([], [insert(0, r) for r in [wildcard] + lower])
        assert [ow.predicate.is_true for ow in got] == [True]
        # Withdrawing 00** frees a region that 0*** (kept) claims whole.
        narrow, wide = rule(8, 0b0000, 2, 1), rule(6, 0b0000, 1, 2)
        installed = [narrow, wide] + [rule(4, v, 4, 3) for v in range(below)]
        got = self._check(installed, [delete(0, narrow)])
        assert [(ow.predicate.sat_count(), ow.delta) for ow in got] == [
            (4, ((0, 2),))
        ]

    def test_rules_below_a_used_up_region_cost_nothing(self):
        costs = set()
        for below in (2, 12):
            lower = [rule(5, v, 4, 2) for v in range(below)]
            _, ops = self._overwrites_and_ops([], [insert(0, rule(9, 0, 0, 1))] + [
                insert(0, r) for r in lower
            ])
            narrow, wide = rule(8, 0b0000, 2, 1), rule(6, 0b0000, 1, 2)
            installed = [narrow, wide] + [rule(4, v, 4, 3) for v in range(below)]
            _, freed_ops = self._overwrites_and_ops(installed, [delete(0, narrow)])
            costs.add((ops, freed_ops))
        assert len(costs) == 1

    def test_insert_costs_one_walk_per_overlapping_higher_match(self):
        # Per-update mode: one insert, at most one walk for each higher
        # rule that meets it and one for its own share; a higher rule
        # disjoint from it costs none, and an insert no higher rule
        # meets claims its whole match for nothing.  (A meeting rule
        # costs a walk either on the unclaimed region or, deferred, on
        # the insert's share.)  On 4 bits the cofactor signature is
        # exact, so "meets" is "their signatures meet".
        costs, skipped = set(), 0
        for case in range(40):
            rng = case_rng(case)
            installed = list(dict.fromkeys(
                self._random_rule(rng) for _ in range(rng.randint(0, 10))
            ))
            fresh = self._random_rule(rng)
            if fresh in installed:
                continue
            block = [insert(0, fresh)]
            snapshot = FibSnapshot([0])
            for r in installed:
                snapshot.table(0).insert(r)
            merged, inserted, _ = merge_block_and_diff(
                snapshot.table(0).rules(), block
            )
            compiler = fresh_compiler()
            for r in merged:  # compiling counts operations too
                compiler.compile(r.match)
            (idx,) = inserted
            sig_of = compiler.engine.signature
            sig = sig_of(compiler.compile(fresh.match))
            meeting = [
                r for r in merged[:idx] if sig_of(compiler.compile(r.match)) & sig
            ]
            metrics = compiler.engine.metrics
            metrics.reset()
            got = calculate_atomic_overwrites(0, merged, inserted, compiler)
            assert metrics.disjunctions == 0
            if meeting:
                assert metrics.conjunctions <= len(meeting) + 1, case
            else:
                assert metrics.conjunctions == 0, case
            assert got == unrestricted_overwrites(0, merged, inserted, compiler)
            costs.add(len(meeting))
            skipped += idx - len(meeting)
        assert {0, 1} < costs  # no overlap, one, and more
        assert skipped  # not vacuous: some higher rule missed the insert

    def test_block_skips_higher_rules_that_miss_every_insert(self):
        # Two inserts under 0***, higher rules under 1***: the block's
        # cost does not grow with the rules it skips.
        inserts = [rule(3, 0b0000, 2, 1), rule(3, 0b0100, 2, 3)]
        costs = set()
        for above in (2, 8):
            installed = [rule(5, 0b1000 | v, 4, 2) for v in range(above)]
            block = [insert(0, r) for r in inserts]
            got = self._check(installed, block)
            assert [ow.predicate.sat_count() for ow in got] == [4, 4]
            costs.add(self._overwrites_and_ops(installed, block)[1])
        assert len(costs) == 1

    def test_withdrawal_skips_rules_outside_the_freed_region(self):
        # Withdrawing 00** frees a region under 0***; the rules under
        # 1*** between it and the uncovered 0*** cost no walk.
        narrow, wide = rule(8, 0b0000, 2, 1), rule(6, 0b0000, 1, 2)
        costs = set()
        for between in (2, 8):
            installed = [narrow, wide] + [
                rule(7, 0b1000 | v, 4, 3) for v in range(between)
            ]
            got = self._check(installed, [delete(0, narrow)])
            assert [(ow.predicate.sat_count(), ow.delta) for ow in got] == [
                (4, ((0, 2),))
            ]
            costs.add(self._overwrites_and_ops(installed, [delete(0, narrow)])[1])
        assert len(costs) == 1

    def test_single_insert_compiles_no_disjoint_rule(self):
        # One insert (a per-update block): a higher rule whose match
        # misses it field by field is not even compiled.
        installed = [rule(5, 0b1000 | v, 4, 2) for v in range(4)]
        installed.append(rule(4, 0b0000, 1, 3))  # 0*** meets 00**
        fresh = rule(2, 0b0000, 2, 1)
        snapshot = FibSnapshot([0])
        for r in installed:
            snapshot.table(0).insert(r)
        merged, inserted, _ = merge_block_and_diff(
            snapshot.table(0).rules(), [insert(0, fresh)]
        )
        compiler = fresh_compiler()
        assert calculate_atomic_overwrites(0, merged, inserted, compiler) == []
        assert len(compiler) == 2  # the insert and 0***

    @pytest.mark.parametrize(
        "bad",
        [
            Match({"dst": Pattern(((0, 1 << 4),))}),
            Match({"src": Pattern(((1, 1),))}),
        ],
        ids=["out-of-width", "unknown-field"],
    )
    def test_shadowed_insert_that_does_not_compile_raises(self, bad):
        # A wildcard leaves a lower insert no share, yet the insert's
        # match is compiled: the flush raises and writes nothing.
        writer = ModelWriter((0,), LAYOUT)
        wildcard = rule(5, 0, 0, 1)
        writer.submit([insert(0, wildcard)])
        writer.flush()
        before = writer.read_view()
        bad = Rule(1, bad, 2)
        writer.submit([insert(0, bad)])
        with pytest.raises(HeaderSpaceError):
            writer.flush()
        assert writer.read_view().rules == before.rules
        assert writer.model.entries() == list(before.entries())
        writer.submit([delete(0, wildcard)])
        writer.flush()
        assert writer.read_view().rules == ((0, ()),)
        assert_model_matches_snapshot(writer.model, writer.snapshot, LAYOUT)

    def test_empty_inserted(self):
        rng = case_rng(0)
        installed = list(dict.fromkeys(self._random_rule(rng) for _ in range(8)))
        for doomed in installed:
            self._check(installed, [delete(0, doomed)])
        got, ops = self._overwrites_and_ops(installed, [])
        assert (got, ops) == ([], 0)


class TestSkipWithCoarseSignatures:
    """The carve's skip stays sound where the cofactor signature cannot
    tell two matches apart.

    On ``dst`` (4 bits) + ``src`` (8 bits) the signature sees ``dst``
    and the top 6 bits of ``src`` (``HeaderLayout.signature_vars``), so
    rules that differ in ``src``'s last two bits meet in the signature
    yet are disjoint.  Random two-field ternary rules, inserted and
    withdrawn on two devices, per update and in blocks: the model is
    the snapshot's.
    """

    LAYOUT = dst_src_layout(4, 8)
    CASES = 12

    @staticmethod
    def _random_rule(rng):
        patterns = {}
        for field, width in (("dst", 4), ("src", 8)):
            if rng.random() < 0.8:
                mask = rng.randrange(1 << width)
                patterns[field] = Pattern.ternary(
                    rng.randrange(1 << width), mask, width
                )
        return Rule(rng.randint(0, 6), Match(patterns), rng.choice(ACTIONS))

    @pytest.mark.parametrize("threshold", [1, None], ids=["per-update", "block"])
    def test_model_is_the_snapshots(self, threshold):
        coarse = 0  # disjoint pairs whose signatures meet
        for case in range(self.CASES):
            rng = case_rng(case)
            writer = ModelWriter((0, 1), self.LAYOUT, block_threshold=threshold)
            installed = {0: [], 1: []}
            for _ in range(3):
                batch = []
                for _ in range(rng.randint(1, 6)):
                    device = rng.choice((0, 1))
                    have = installed[device]
                    if have and rng.random() < 0.3:
                        victim = have.pop(rng.randrange(len(have)))
                        batch.append(delete(device, victim))
                        continue
                    r = self._random_rule(rng)
                    if r not in have:
                        have.append(r)
                        batch.append(insert(device, r))
                writer.submit(batch)
                writer.flush()
            writer.model.check_invariants()
            assert_model_matches_snapshot(writer.model, writer.snapshot, self.LAYOUT)
            sig_of = writer.engine.signature
            for rules in installed.values():
                sigs = [sig_of(writer.compiler.compile(r.match)) for r in rules]
                coarse += sum(
                    1
                    for i, a in enumerate(rules)
                    for j, b in enumerate(rules[:i])
                    if sigs[i] & sigs[j] and not matches_intersect(a.match, b.match)
                )
        assert coarse  # not vacuous


class TestLazyCarve:
    """The inserted rules' carve defers what no earlier rule meets.

    A scanned rule whose cofactor signature meets no earlier scanned
    rule's is disjoint from all of them: it is deferred without a walk,
    an inserted one overwrites its whole match, and a later insert
    takes it out of its share where their signatures meet.  On ``dst``
    (10 bits) + ``src`` (4 bits) the cells are ``dst``'s top 8 bits ×
    ``src``'s top 2, so nested prefixes and source buckets below them
    meet in the signature and are told apart only by the walk.  Random
    two-field tables and insert blocks — nested prefixes from a small
    pool, a wildcard insert scanned first, a wildcard above or among the
    installed rules — give the paper's unrestricted overwrites.
    """

    LAYOUT = dst_src_layout(10, 4)
    CASES = 80

    def _random_rule(self, rng, pools, priority):
        (dsts, srcs), patterns = pools, {}
        length = rng.choice((0, 1, 2, 6, 8, 9, 10))
        if length:
            patterns["dst"] = Pattern.prefix(rng.choice(dsts), length, 10)
        length = rng.choice((0, 0, 1, 2, 3, 4))
        if length:
            patterns["src"] = Pattern.prefix(rng.choice(srcs), length, 4)
        return Rule(priority, Match(patterns), rng.choice(ACTIONS))

    def test_overwrites_are_the_unrestricted_loops(self):
        wildcard = Match.wildcard()
        saved = cut = 0  # carves that skipped walks; shares a higher rule cut
        for case in range(self.CASES):
            rng = case_rng(case)
            pools = ([rng.getrandbits(10) for _ in range(3)],
                     [rng.getrandbits(4) for _ in range(2)])
            installed = [
                self._random_rule(rng, pools, rng.randint(1, 8))
                for _ in range(rng.randint(0, 12))
            ]
            fresh = [
                self._random_rule(rng, pools, rng.randint(1, 8))
                for _ in range(rng.randint(1, 4))
            ]
            kind = case % 4
            if kind == 1:  # a wildcard insert, scanned first
                fresh.append(Rule(9, wildcard, 1))
            elif kind == 2:  # a wildcard among the installed rules
                installed.append(Rule(4, wildcard, 2))
            elif kind == 3:  # a wildcard above everything
                installed.append(Rule(9, wildcard, 3))
            installed = list(dict.fromkeys(installed))
            snapshot = FibSnapshot([0])
            for r in installed:
                snapshot.table(0).insert(r)
            merged, inserted, _ = merge_block_and_diff(
                snapshot.table(0).rules(), [insert(0, r) for r in fresh]
            )
            compiler = MatchCompiler(
                PredicateEngine(
                    self.LAYOUT.total_bits, sig_vars=self.LAYOUT.signature_vars
                ),
                self.LAYOUT,
            )
            for r in merged:  # compiling counts operations too
                compiler.compile(r.match)
            metrics = compiler.engine.metrics
            metrics.reset()
            got = calculate_atomic_overwrites(0, merged, inserted, compiler)
            assert got == unrestricted_overwrites(0, merged, inserted, compiler), case
            # An eager carve walks every higher rule meeting an insert.
            sig_of, emit_sig = compiler.engine.signature, 0
            for pos in inserted:
                emit_sig |= sig_of(compiler.compile(merged[pos].match))
            meeting = sum(
                1 for r in merged[: inserted[-1]]
                if sig_of(compiler.compile(r.match)) & emit_sig
            )
            saved += metrics.conjunctions < meeting
            matches = {compiler.compile(merged[pos].match) for pos in inserted}
            cut += sum(ow.predicate not in matches for ow in got)
        assert saved and cut  # not vacuous
