"""Tests for the counting predicate layer."""

import pytest

from repro.bdd.engine import FALSE
from repro.bdd.predicate import Predicate, PredicateEngine, Remainder


@pytest.fixture()
def engine():
    return PredicateEngine(8)


class TestPredicateAlgebra:
    def test_constants(self, engine):
        assert engine.false.is_false
        assert engine.true.is_true
        assert not engine.true.is_false

    def test_and_or_not(self, engine):
        a, b = engine.variable(0), engine.variable(1)
        assert ((a & b) | (a & ~b)) == a

    def test_difference(self, engine):
        a, b = engine.variable(0), engine.variable(1)
        assert (a - b) == (a & ~b)

    def test_xor(self, engine):
        a, b = engine.variable(2), engine.variable(3)
        assert (a ^ b) == ((a - b) | (b - a))

    def test_intersects_and_covers(self, engine):
        a = engine.variable(0)
        ab = a & engine.variable(1)
        assert a.intersects(ab)
        assert (ab - a).is_false  # a covers ab
        assert not (a - ab).is_false
        assert not a.intersects(~a)

    def test_equality_is_semantic(self, engine):
        a, b = engine.variable(0), engine.variable(1)
        assert (a | b) == (b | a)
        assert hash(a | b) == hash(b | a)

    def test_truthiness_forbidden(self, engine):
        with pytest.raises(TypeError):
            bool(engine.variable(0))

    def test_cross_engine_rejected(self, engine):
        other = PredicateEngine(8)
        with pytest.raises(ValueError):
            engine.variable(0) & other.variable(0)

    def test_disj_many(self, engine):
        vs = [engine.variable(i) for i in range(3)]
        assert engine.disj_many(vs) == (vs[0] | vs[1] | vs[2])

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_balanced_disj_many_equals_left_fold(self, engine, n):
        preds = [
            engine.cube([(i, True), ((i + 3) % 8, i % 2 == 0)]) for i in range(n)
        ]
        fold = engine.false
        for p in preds:
            fold = fold | p
        for given_as in (list(preds), iter(preds)):
            engine.metrics.reset()
            assert engine.disj_many(given_as) == fold
            assert engine.metrics.disjunctions == max(n - 1, 0)
            assert engine.metrics.total == max(n - 1, 0)

    def test_disj_many_makes_one_handle(self, engine, monkeypatch):
        """The intermediate unions stay bare node ids: one new handle, for
        the result, which is the left fold's node."""
        preds = [engine.cube([(i, True), (7 - i, False)]) for i in range(6)]
        fold = FALSE
        for p in preds:  # on bare ids, so the fold's node has no handle yet
            fold = engine.bdd.apply_or(fold, p.node)
        made = []
        init = Predicate.__init__

        def counting(self, owner, node):
            made.append(node)
            init(self, owner, node)

        monkeypatch.setattr(Predicate, "__init__", counting)
        engine.metrics.reset()
        assert engine.disj_many(preds).node == fold
        assert made == [fold]
        assert engine.metrics.disjunctions == engine.metrics.total == 5

    def test_disj_many_of_one_is_that_predicate(self, engine):
        a = engine.variable(4)
        assert engine.disj_many([a]) is a
        with pytest.raises(ValueError):
            engine.disj_many([PredicateEngine(8).variable(4)])

    def test_sat_count(self, engine):
        a = engine.variable(0)
        assert a.sat_count() == 1 << 7
        assert engine.true.sat_count() == 1 << 8
        assert engine.false.sat_count() == 0


class TestRemainder:
    """A remainder's steps equal, and count as, the handle operations."""

    def test_steps_equal_and_count_as_handle_operations(self, engine):
        region = engine.variable(0) | engine.variable(1)
        part, other = engine.variable(1), engine.cube([(0, True), (2, False)])
        after_take = region - part
        share, after_claim = after_take & other, after_take - other
        rest = Remainder(region)
        engine.metrics.reset()
        rest.take(part)
        assert (rest.node, engine.metrics.total) == (after_take.node, 2)
        engine.metrics.reset()
        assert rest.share(other) == share
        assert (rest.node, engine.metrics.total) == (after_take.node, 1)
        engine.metrics.reset()
        assert rest.claim(other) == share
        assert (rest.node, engine.metrics.total) == (after_claim.node, 2)
        assert not rest.is_false
        rest.take(engine.true)
        assert rest.is_false

    def test_foreign_part_rejected(self, engine):
        rest = Remainder(engine.true)
        with pytest.raises(ValueError):
            rest.take(PredicateEngine(8).variable(0))


class TestOpCounting:
    def test_counts_each_operation(self, engine):
        a, b = engine.variable(0), engine.variable(1)
        engine.metrics.reset()
        _ = a & b
        _ = a | b
        _ = ~a
        assert engine.metrics.conjunctions == 1
        assert engine.metrics.disjunctions == 1
        assert engine.metrics.negations == 1
        assert engine.metrics.total == 3

    def test_diff_counts_two_ops(self, engine):
        a, b = engine.variable(0), engine.variable(1)
        engine.metrics.reset()
        _ = a - b
        assert engine.metrics.total == 2

    def test_snapshot_diff(self, engine):
        a, b = engine.variable(0), engine.variable(1)
        before = engine.metrics.snapshot()
        _ = a & b
        _ = a & b
        delta = engine.metrics.diff(before)
        assert delta.conjunctions == 2
        assert delta.disjunctions == 0

    def test_extra_counters(self, engine):
        m = engine.metrics
        m.bump("atom_updates", 5)
        m.bump("atom_updates")
        assert m.extra["atom_updates"] == 6
        snap = m.snapshot()
        m.bump("atom_updates", 4)
        assert m.diff(snap).extra["atom_updates"] == 4

    def test_cube_counts_one_conjunction(self, engine):
        engine.metrics.reset()
        engine.cube([(0, True), (1, False), (2, True)])
        assert engine.metrics.conjunctions == 1

    def test_memory_estimate_grows(self, engine):
        before = engine.memory_estimate_bytes()
        engine.cube([(i, True) for i in range(8)])
        assert engine.memory_estimate_bytes() > before
