"""Structural and algebraic invariants of the BDD engine.

Four layers of assurance for :class:`repro.bdd.engine.BDD`:

* **Hash-consing canonicity** — after arbitrary operation streams the
  live node store contains no duplicate ``(var, low, high)`` triples, no
  redundant ``low == high`` nodes, only regular (uncomplemented) stored
  high edges, and respects the variable order.  With these invariants,
  pointer equality is function equality, which everything above the
  engine (difftest verdicts, predicate dedup) relies on.
* **ITE algebra** — ``ite`` agrees with every derived form and
  terminal/absorption identity.
* **Counting** — ``sat_count`` matches brute-force truth-table counts
  on small random predicates, and the engine agrees with the frozen
  oracle (:class:`tests.bdd_reference.ReferenceBDD`) on random streams.
* **Bounds** — the op-cache wipe, the node-table bound and the
  ``num_vars`` bound each hold and leave every earlier result intact.
"""

import random

import pytest

from repro.bdd import engine as engine_module
from repro.bdd.engine import BDD, FALSE, TRUE, _FREE, max_num_vars
from repro.bdd.predicate import PredicateEngine

from .bdd_reference import ReferenceBDD
from .conftest import case_rng


def random_predicate(eng, rng: random.Random, num_vars: int, ops: int) -> int:
    """A random function built from the engine's own operation mix."""
    pool = [eng.literal(i, bool(rng.getrandbits(1))) for i in range(num_vars)]
    for _ in range(ops):
        a = rng.choice(pool)
        b = rng.choice(pool)
        kind = rng.randrange(5)
        if kind == 0:
            pool.append(eng.apply_and(a, b))
        elif kind == 1:
            pool.append(eng.apply_or(a, b))
        elif kind == 2:
            pool.append(eng.apply_xor(a, b))
        elif kind == 3:
            pool.append(eng.negate(a))
        else:
            pool.append(eng.ite(a, b, rng.choice(pool)))
    return pool[-1]


def random_prefix_stream(eng, rng: random.Random, num_vars: int, n: int) -> int:
    """An announce/withdraw ITE stream with cube selectors."""
    p = FALSE
    for _ in range(n):
        plen = rng.randint(2, num_vars)
        cube = eng.cube(
            [(i, bool(rng.getrandbits(1))) for i in range(plen)]
        )
        p = eng.ite(cube, FALSE if rng.random() < 0.3 else TRUE, p)
    return p


def assert_canonical(eng: BDD) -> None:
    """Every live node satisfies the hash-consing invariants."""
    seen = {}
    for node in eng._live_ids():
        var = eng._var[node]
        low = eng._low[node]
        high = eng._high[node]
        assert var != _FREE
        triple = (var, low, high)
        assert triple not in seen, (
            f"duplicate node for {triple}: ids {seen[triple]} and {node}"
        )
        seen[triple] = node
        assert low != high, f"redundant node {node}: low == high == {low}"
        assert high & 1 == 0, f"node {node} stores a complemented high edge"
        for child in (low, high):
            child_node = child >> 1
            if child_node:
                assert eng._var[child_node] != _FREE, (
                    f"node {node} points at freed node {child_node}"
                )
                assert eng._var[child_node] > var, (
                    f"variable order violated: {node} (var {var}) -> "
                    f"{child_node} (var {eng._var[child_node]})"
                )


class TestCanonicity:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_op_stream_stays_canonical(self, seed):
        rng = case_rng(seed)
        eng = BDD(10)
        random_predicate(eng, rng, 10, 120)
        assert_canonical(eng)

    @pytest.mark.parametrize("seed", range(5))
    def test_prefix_stream_stays_canonical(self, seed):
        """Cube-selector ITE streams (the data-plane update shape) leave
        the store canonical."""
        rng = case_rng(100 + seed)
        eng = BDD(16)
        random_prefix_stream(eng, rng, 16, 150)
        assert_canonical(eng)

    def test_canonical_after_collection(self):
        rng = case_rng(200)
        eng = BDD(12)
        keep = random_predicate(eng, rng, 12, 80)
        count = eng.sat_count(keep)
        random_predicate(eng, rng, 12, 80)
        eng.collect([keep])
        assert_canonical(eng)
        assert eng.sat_count(keep) == count

    def test_rebuilding_existing_function_allocates_nothing(self):
        eng = BDD(8)
        rng = case_rng(300)
        p = random_prefix_stream(eng, rng, 8, 40)
        before = eng.live_node_count
        q = random_prefix_stream(eng, case_rng(300), 8, 40)
        assert q == p, "identical streams must intern to the same edge"
        assert eng.live_node_count == before


class TestIteIdentities:
    @pytest.fixture()
    def eng(self):
        return BDD(8)

    def _operands(self, eng, seed):
        rng = case_rng(seed)
        return (
            random_predicate(eng, rng, 8, 30),
            random_predicate(eng, rng, 8, 30),
            random_predicate(eng, rng, 8, 30),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_ite_matches_derived_form(self, eng, seed):
        f, g, h = self._operands(eng, seed)
        derived = eng.apply_or(
            eng.apply_and(f, g), eng.apply_and(eng.negate(f), h)
        )
        assert eng.ite(f, g, h) == derived

    @pytest.mark.parametrize("seed", range(8))
    def test_ite_terminal_and_absorption_identities(self, eng, seed):
        f, g, h = self._operands(eng, seed)
        assert eng.ite(TRUE, g, h) == g
        assert eng.ite(FALSE, g, h) == h
        assert eng.ite(f, g, g) == g
        assert eng.ite(f, TRUE, FALSE) == f
        assert eng.ite(f, FALSE, TRUE) == eng.negate(f)
        assert eng.ite(f, g, FALSE) == eng.apply_and(f, g)
        assert eng.ite(f, TRUE, h) == eng.apply_or(f, h)
        assert eng.ite(f, g, TRUE) == eng.apply_or(eng.negate(f), g)
        assert eng.ite(f, FALSE, h) == eng.apply_and(eng.negate(f), h)
        assert eng.ite(f, eng.negate(g), g) == eng.apply_xor(f, g)

    @pytest.mark.parametrize("seed", range(8))
    def test_ite_selector_complement_symmetry(self, eng, seed):
        f, g, h = self._operands(eng, seed)
        assert eng.ite(f, g, h) == eng.ite(eng.negate(f), h, g)


class TestNegation:
    @pytest.mark.parametrize("seed", range(6))
    def test_involution_and_de_morgan(self, seed):
        eng = BDD(8)
        rng = case_rng(500 + seed)
        a = random_predicate(eng, rng, 8, 30)
        b = random_predicate(eng, rng, 8, 30)
        assert eng.negate(eng.negate(a)) == a
        assert eng.negate(eng.apply_and(a, b)) == eng.apply_or(
            eng.negate(a), eng.negate(b)
        )
        assert eng.negate(eng.apply_or(a, b)) == eng.apply_and(
            eng.negate(a), eng.negate(b)
        )

    def test_negation_is_constant_time_edge_flip(self):
        eng = BDD(8)
        rng = case_rng(600)
        a = random_predicate(eng, rng, 8, 40)
        before = eng.live_node_count
        assert eng.negate(a) == a ^ 1
        assert eng.live_node_count == before, "negation must allocate nothing"


class TestSatCount:
    @pytest.mark.parametrize("num_vars", [4, 8, 12])
    @pytest.mark.parametrize("seed", range(3))
    def test_satcount_matches_brute_force(self, num_vars, seed):
        eng = BDD(num_vars)
        rng = case_rng(num_vars * 1000 + seed)
        p = random_predicate(eng, rng, num_vars, 60)
        expected = sum(
            1
            for m in range(1 << num_vars)
            if eng.evaluate(p, {i: bool((m >> i) & 1) for i in range(num_vars)})
        )
        assert eng.sat_count(p) == expected

    def test_satcount_memo_survives_new_allocations(self):
        eng = BDD(10)
        rng = case_rng(700)
        p = random_prefix_stream(eng, rng, 10, 30)
        first = eng.sat_count(p)
        random_predicate(eng, rng, 10, 40)  # allocate more nodes
        assert eng.sat_count(p) == first


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_stream_same_functions(self, seed):
        """Replay one operation stream through both engines; every
        intermediate must count and evaluate identically."""
        num_vars = 10
        new = BDD(num_vars)
        ref = ReferenceBDD(num_vars)
        rng = case_rng(800 + seed)
        script = []
        for _ in range(80):
            kind = rng.randrange(5)
            a, b, c = (
                rng.randrange(120),
                rng.randrange(120),
                rng.randrange(120),
            )
            script.append((kind, a, b, c))

        def replay(eng):
            pool = [eng.ith_var(i) for i in range(num_vars)]
            for kind, a, b, c in script:
                x = pool[a % len(pool)]
                y = pool[b % len(pool)]
                z = pool[c % len(pool)]
                if kind == 0:
                    pool.append(eng.apply_and(x, y))
                elif kind == 1:
                    pool.append(eng.apply_or(x, y))
                elif kind == 2:
                    pool.append(eng.apply_xor(x, y))
                elif kind == 3:
                    pool.append(eng.negate(x))
                else:
                    pool.append(eng.ite(x, y, z))
            return pool

        new_pool = replay(new)
        ref_pool = replay(ref)
        probes = [
            {i: bool(rng.getrandbits(1)) for i in range(num_vars)}
            for _ in range(16)
        ]
        for u, v in zip(new_pool, ref_pool):
            assert new.sat_count(u) == ref.sat_count(v)
            for assignment in probes:
                assert new.evaluate(u, assignment) == ref.evaluate(v, assignment)


class TestBounds:
    def test_cache_wipes_keep_results_and_bound(self, monkeypatch):
        """With the op-cache bound forced low the wipe runs constantly
        (and collections recycle node ids in between); every result must
        still be the oracle's function, and no top-level operation may
        leave the cache above the bound."""
        limit = 48
        monkeypatch.setattr(engine_module, "CACHE_LIMIT", limit)
        num_vars = 12
        new = PredicateEngine(num_vars)
        ref = PredicateEngine(num_vars, bdd=ReferenceBDD(num_vars))
        rng = case_rng(900)
        pools = {
            eng: [eng.variable(i) for i in range(num_vars)]
            for eng in (new, ref)
        }
        for step in range(400):
            kind = rng.randrange(7)
            picks = [rng.randrange(1 << 30) for _ in range(3)]
            literals = [
                (i, bool(rng.getrandbits(1)))
                for i in range(rng.randint(1, num_vars))
            ]
            for eng, pool in pools.items():
                a, b, c = (pool[p % len(pool)] for p in picks)
                if kind == 0:
                    out = [a & b]
                elif kind == 1:
                    out = [a | b]
                elif kind == 2:
                    out = [a ^ b]
                elif kind == 3:
                    out = [a - b, ~a]
                elif kind == 4:
                    out = [eng.ite(a, b, c)]
                elif kind == 5:
                    out = list(a.split(b))
                else:  # the prefix-update shape: ite(cube, ⊤/⊥, old)
                    cube = eng.cube(literals)
                    out = [eng.ite(cube, eng.true if step & 1 else eng.false, a)]
                pool.extend(out)
                del pool[:-60]  # let older handles die so collect() frees
            assert new.bdd.cache_size <= limit
            for u, v in zip(pools[new][-len(out):], pools[ref][-len(out):]):
                assert new.import_predicate(v) == u, f"step {step}, kind {kind}"
            if step % 50 == 49:
                assert new.collect() > 0
        assert new.bdd.stats.cache_evictions > 20
        assert_canonical(new.bdd)

    def test_node_bound_raises_and_keeps_earlier_handles(self, monkeypatch):
        """Allocation past the node bound is a ``MemoryError`` raised
        before any packed key could alias; everything built before it
        still denotes the function it denoted."""
        monkeypatch.setattr(engine_module, "_MAX_NODES", 300)
        num_vars = 10
        eng = BDD(num_vars)
        rng = case_rng(901)
        probes = [
            {i: bool(rng.getrandbits(1)) for i in range(num_vars)}
            for _ in range(48)
        ]

        def truth(u):
            return [eng.evaluate(u, probe) for probe in probes]

        made = []
        with pytest.raises(MemoryError):
            while True:
                u = random_predicate(eng, rng, num_vars, 12)
                made.append((u, truth(u), eng.sat_count(u)))
        assert len(made) > 5
        assert eng.num_nodes <= 300
        assert_canonical(eng)
        for u, table, count in made:
            assert truth(u) == table
            assert eng.sat_count(u) == count
        # The table is full, not broken: a sweep makes room again.
        assert eng.collect([u for u, _, _ in made]) > 0
        for u, table, count in made:
            assert truth(u) == table
        assert eng.apply_or(made[0][0], made[-1][0]) != FALSE

    def test_num_vars_is_bounded_by_the_recursion_limit(self):
        """A variable count the recursive apply could not descend is
        refused at construction; at the bound itself full-depth
        operands combine, count and cross engines."""
        depth = max_num_vars()
        with pytest.raises(ValueError, match="recursion"):
            BDD(depth + 1)
        eng = BDD(depth)
        ones = eng.cube([(i, True) for i in range(depth)])
        stripes = eng.cube([(i, bool(i % 2)) for i in range(depth)])
        either = eng.apply_or(ones, stripes)
        assert eng.sat_count(either) == 2
        assert eng.apply_split(either, ones) == (ones, stripes)
        assert eng.apply_xor(either, stripes) == ones
        assert eng.ite(ones, FALSE, either) == stripes
        assert sum(1 for _ in eng.iter_cubes(either)) == 2
        fast = PredicateEngine(depth, bdd=eng)
        oracle = PredicateEngine(depth, bdd=ReferenceBDD(depth))
        (mirrored,) = oracle.import_predicates([fast.pred(either)])
        assert mirrored.sat_count() == 2
        assert [p.node for p in fast.import_predicates([mirrored])] == [
            either
        ]
