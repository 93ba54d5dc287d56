"""Properties of the single-traversal split primitive and cofactor signatures.

``split(f, g)`` must agree with ``(f & g, f - g)`` on both engines for
arbitrary predicate pairs — it is the workhorse of the fast EC-table
apply path, so any divergence here silently corrupts models.  The
signature checks pin the soundness contract the apply path's O(1)
disjointness pruning relies on.
"""

import pytest

from repro.bdd.predicate import PredicateEngine

from .bdd_reference import ReferenceBDD
from .conftest import case_rng

NUM_VARS = 12


def fresh_engine(kind: str) -> PredicateEngine:
    if kind == "reference":
        return PredicateEngine(NUM_VARS, bdd=ReferenceBDD(NUM_VARS))
    return PredicateEngine(NUM_VARS)


def random_pred(engine: PredicateEngine, rng, max_cubes: int = 4):
    """A random disjunction of random partial cubes (may be ⊥ or ⊤)."""
    roll = rng.random()
    if roll < 0.05:
        return engine.false
    if roll < 0.10:
        return engine.true
    result = engine.false
    for _ in range(rng.randint(1, max_cubes)):
        literals = [
            (var, rng.random() < 0.5)
            for var in range(NUM_VARS)
            if rng.random() < 0.4
        ]
        result = result | engine.cube(literals)
    return result


@pytest.mark.parametrize("kind", ["fast", "reference"])
def test_split_matches_separate_applies_on_random_pairs(kind):
    engine = fresh_engine(kind)
    rng = case_rng(0x5197)
    for _ in range(300):
        f = random_pred(engine, rng)
        g = random_pred(engine, rng)
        inter, rest = f.split(g)
        assert inter == f & g
        assert rest == f - g
        # The two halves partition f.
        assert (inter | rest) == f
        assert (inter & rest).is_false


@pytest.mark.parametrize("kind", ["fast", "reference"])
def test_split_terminal_cases(kind):
    engine = fresh_engine(kind)
    rng = case_rng(0x5198)
    f = random_pred(engine, rng)
    while f.is_false or f.is_true:
        f = random_pred(engine, rng)
    assert engine.false.split(f) == (engine.false, engine.false)
    assert engine.true.split(f) == (f, ~f)
    assert f.split(engine.false) == (engine.false, f)
    assert f.split(engine.true) == (f, engine.false)
    assert f.split(f) == (f, engine.false)
    assert f.split(~f) == (engine.false, f)


def test_split_counts_one_conjunction_one_negation():
    engine = fresh_engine("fast")
    rng = case_rng(0x5199)
    f, g = random_pred(engine, rng), random_pred(engine, rng)
    before = engine.metrics.snapshot()
    f.split(g)
    delta = engine.metrics.diff(before)
    assert delta.conjunctions == 1
    assert delta.negations == 1
    assert delta.disjunctions == 0


def test_split_publishes_engine_stats():
    engine = fresh_engine("fast")
    rng = case_rng(0x519A)
    for _ in range(20):
        random_pred(engine, rng).split(random_pred(engine, rng))
    engine.registry.collect()
    assert engine.registry.value("bdd.split.calls") == 20


def test_split_survives_gc_and_table_rehash():
    """Splits stay exact while collections free ids and rebuild the unique table."""
    engine = PredicateEngine(NUM_VARS)
    rng = case_rng(0x519B)
    for round_no in range(40):
        f, g = random_pred(engine, rng, 6), random_pred(engine, rng, 6)
        inter, rest = f.split(g)
        assert (inter | rest) == f
        if round_no % 3 == 2:
            engine.collect()
    assert engine.bdd.stats.gc_freed > 0


class TestSignature:
    def _engines(self):
        return [fresh_engine("fast"), fresh_engine("reference")]

    def test_disjoint_signatures_imply_disjoint_predicates(self):
        rng = case_rng(0x51C0)
        for engine in self._engines():
            for _ in range(200):
                f = random_pred(engine, rng)
                g = random_pred(engine, rng)
                if engine.signature(f) & engine.signature(g) == 0:
                    assert (f & g).is_false

    def test_signature_composes_over_disjunction(self):
        rng = case_rng(0x51C1)
        for engine in self._engines():
            for _ in range(100):
                f = random_pred(engine, rng)
                g = random_pred(engine, rng)
                assert engine.signature(f | g) == (
                    engine.signature(f) | engine.signature(g)
                )

    def test_signature_overapproximates_conjunction(self):
        rng = case_rng(0x51C2)
        for engine in self._engines():
            for _ in range(100):
                f = random_pred(engine, rng)
                g = random_pred(engine, rng)
                conj_sig = engine.signature(f & g)
                assert conj_sig & ~(
                    engine.signature(f) & engine.signature(g)
                ) == 0

    def test_terminals_and_horizon(self):
        for engine in self._engines():
            bits = min(engine.SIG_BITS, engine.num_vars)
            full = (1 << (1 << bits)) - 1
            assert engine.signature(engine.false) == 0
            assert engine.signature(engine.true) == full
            # A predicate constraining only below-horizon variables
            # occupies every cell.
            below = engine.cube([(NUM_VARS - 1, True)])
            assert engine.signature(below) == full

    def test_signature_agrees_across_engines(self):
        fast, ref = self._engines()
        rng_a, rng_b = case_rng(0x51C3), case_rng(0x51C3)
        for _ in range(100):
            f = random_pred(fast, rng_a)
            g = random_pred(ref, rng_b)
            assert fast.signature(f) == ref.signature(g)

    def test_signature_cached_on_handle(self):
        engine = fresh_engine("fast")
        rng = case_rng(0x51C4)
        f = random_pred(engine, rng)
        sig = engine.signature(f)
        assert f._sig == sig
        assert engine.signature(f) == sig
