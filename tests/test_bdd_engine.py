"""Unit and property tests for the ROBDD engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.engine import BDD, FALSE, TRUE

N_VARS = 6


@pytest.fixture()
def bdd():
    return BDD(N_VARS)


def brute_force(bdd, node):
    """Truth table of a node as a frozenset of assignments (as bitmasks)."""
    result = set()
    for m in range(1 << N_VARS):
        assignment = {i: bool((m >> i) & 1) for i in range(N_VARS)}
        if bdd.evaluate(node, assignment):
            result.add(m)
    return frozenset(result)


@st.composite
def bdd_exprs(draw, depth=0):
    """Random boolean expression trees evaluated into a shared BDD."""
    if depth >= 3 or draw(st.booleans()):
        return ("var", draw(st.integers(0, N_VARS - 1)))
    op = draw(st.sampled_from(["and", "or", "not", "xor"]))
    if op == "not":
        return ("not", draw(bdd_exprs(depth=depth + 1)))
    return (op, draw(bdd_exprs(depth=depth + 1)), draw(bdd_exprs(depth=depth + 1)))


def build(bdd, expr):
    if expr[0] == "var":
        return bdd.ith_var(expr[1])
    if expr[0] == "not":
        return bdd.negate(build(bdd, expr[1]))
    a, b = build(bdd, expr[1]), build(bdd, expr[2])
    if expr[0] == "and":
        return bdd.apply_and(a, b)
    if expr[0] == "or":
        return bdd.apply_or(a, b)
    return bdd.apply_xor(a, b)


def eval_expr(expr, assignment):
    if expr[0] == "var":
        return assignment[expr[1]]
    if expr[0] == "not":
        return not eval_expr(expr[1], assignment)
    a, b = eval_expr(expr[1], assignment), eval_expr(expr[2], assignment)
    if expr[0] == "and":
        return a and b
    if expr[0] == "or":
        return a or b
    return a != b


class TestBasics:
    def test_terminals(self, bdd):
        assert bdd.apply_and(TRUE, FALSE) == FALSE
        assert bdd.apply_or(TRUE, FALSE) == TRUE
        assert bdd.negate(TRUE) == FALSE
        assert bdd.negate(FALSE) == TRUE

    def test_var_and_negation_involution(self, bdd):
        x = bdd.ith_var(2)
        assert bdd.negate(bdd.negate(x)) == x

    def test_idempotence(self, bdd):
        x = bdd.ith_var(0)
        assert bdd.apply_and(x, x) == x
        assert bdd.apply_or(x, x) == x

    def test_excluded_middle(self, bdd):
        x = bdd.ith_var(3)
        assert bdd.apply_or(x, bdd.negate(x)) == TRUE
        assert bdd.apply_and(x, bdd.negate(x)) == FALSE

    def test_canonical_hash_consing(self, bdd):
        a = bdd.apply_and(bdd.ith_var(0), bdd.ith_var(1))
        b = bdd.apply_and(bdd.ith_var(1), bdd.ith_var(0))
        assert a == b

    def test_var_out_of_range(self, bdd):
        with pytest.raises(IndexError):
            bdd.ith_var(N_VARS)
        with pytest.raises(IndexError):
            bdd.ith_var(-1)

    def test_ite(self, bdd):
        f, g, h = bdd.ith_var(0), bdd.ith_var(1), bdd.ith_var(2)
        result = bdd.ite(f, g, h)
        for m in range(8):
            a = {i: bool((m >> i) & 1) for i in range(3)}
            expected = a[1] if a[0] else a[2]
            assert bdd.evaluate(result, a) == expected


class TestCube:
    def test_cube_matches_apply_chain(self, bdd):
        lits = [(0, True), (3, False), (5, True)]
        cube = bdd.cube(lits)
        chain = TRUE
        for var, val in lits:
            chain = bdd.apply_and(chain, bdd.literal(var, val))
        assert cube == chain

    def test_empty_cube_is_true(self, bdd):
        assert bdd.cube([]) == TRUE

    def test_duplicate_raises(self, bdd):
        with pytest.raises(ValueError):
            bdd.cube([(1, True), (1, False)])


class TestSatCount:
    def test_terminal_counts(self, bdd):
        assert bdd.sat_count(FALSE) == 0
        assert bdd.sat_count(TRUE) == 1 << N_VARS

    def test_single_var(self, bdd):
        assert bdd.sat_count(bdd.ith_var(0)) == 1 << (N_VARS - 1)
        assert bdd.sat_count(bdd.ith_var(N_VARS - 1)) == 1 << (N_VARS - 1)

    def test_cube_count(self, bdd):
        cube = bdd.cube([(1, True), (4, False)])
        assert bdd.sat_count(cube) == 1 << (N_VARS - 2)

    @given(bdd_exprs())
    @settings(max_examples=60, deadline=None)
    def test_sat_count_matches_brute_force(self, expr):
        bdd = BDD(N_VARS)
        node = build(bdd, expr)
        assert bdd.sat_count(node) == len(brute_force(bdd, node))

    @given(bdd_exprs(), bdd_exprs())
    @settings(max_examples=60, deadline=None)
    def test_and_count_within_and_across_stores(self, e1, e2):
        """``and_count`` is the count of the conjunction, whether ``b``
        lives in the same store or in another one, and allocates in
        neither."""
        bdd, other = BDD(N_VARS), BDD(N_VARS)
        a, b = build(bdd, e1), build(bdd, e2)
        b_there = build(other, ("not", ("not", e2)))  # other ids, same function
        want = bdd.sat_count(bdd.apply_and(a, b))
        sizes = (bdd.num_nodes, len(bdd._unique), other.num_nodes)
        memo = {}
        assert bdd.and_count(a, bdd, b, {}) == want
        assert bdd.and_count(a, other, b_there, memo) == want
        assert bdd.and_count(a, other, b_there, memo) == want  # from the memo
        assert (bdd.num_nodes, len(bdd._unique), other.num_nodes) == sizes


class TestSemantics:
    @given(bdd_exprs())
    @settings(max_examples=80, deadline=None)
    def test_evaluation_matches_expression(self, expr):
        bdd = BDD(N_VARS)
        node = build(bdd, expr)
        for m in range(0, 1 << N_VARS, 5):
            assignment = {i: bool((m >> i) & 1) for i in range(N_VARS)}
            assert bdd.evaluate(node, assignment) == eval_expr(expr, assignment)

    @given(bdd_exprs(), bdd_exprs())
    @settings(max_examples=40, deadline=None)
    def test_de_morgan(self, e1, e2):
        bdd = BDD(N_VARS)
        a, b = build(bdd, e1), build(bdd, e2)
        lhs = bdd.negate(bdd.apply_and(a, b))
        rhs = bdd.apply_or(bdd.negate(a), bdd.negate(b))
        assert lhs == rhs

    @given(bdd_exprs(), bdd_exprs())
    @settings(max_examples=40, deadline=None)
    def test_diff_definition(self, e1, e2):
        bdd = BDD(N_VARS)
        a, b = build(bdd, e1), build(bdd, e2)
        assert bdd.apply_diff(a, b) == bdd.apply_and(a, bdd.negate(b))


class TestAnalysis:
    def test_any_assignment(self, bdd):
        f = bdd.cube([(2, True), (4, False)])
        assignment = bdd.any_assignment(f)
        assert assignment is not None
        assert bdd.evaluate(f, assignment)
        assert bdd.any_assignment(FALSE) is None

    def test_iter_cubes_covers_function(self, bdd):
        f = bdd.apply_or(bdd.ith_var(0), bdd.ith_var(2))
        cover = FALSE
        for cube in bdd.iter_cubes(f):
            cover = bdd.apply_or(cover, bdd.cube(list(cube.items())))
        assert cover == f

    def test_node_count(self, bdd):
        assert bdd.node_count(TRUE) == 0
        assert bdd.node_count(bdd.ith_var(0)) == 1
        chain = bdd.cube([(i, True) for i in range(4)])
        assert bdd.node_count(chain) == 4
