"""Predicate-engine conformance suite — the contract the layers above rely on.

One parametrized battery run against :class:`PredicateEngine` over both
node stores — ``bdd`` (the product engine, complement edges) and
``reference`` (the frozen ``tests/bdd_reference.py`` oracle, plain node
ids) — and every ordered pairing of the two:

* algebraic laws (boolean-algebra identities on randomized predicates),
* query coherence (``sat_count`` / ``evaluate`` / ``any_assignment`` /
  ``intersects`` against brute-force header enumeration),
* ``split`` ≡ ``(a & b, a - b)``,
* cofactor signatures agreeing bit-for-bit across node encodings,
* :class:`~repro.core.inverse_model.InverseModel` apply-overwrites
  equivalence: the same update stream produces semantically identical EC
  tables over either store.
"""

import itertools
import random

import pytest

from repro.bdd.predicate import PredicateEngine
from repro.core.model_manager import ModelWriter
from repro.dataplane.rule import DROP, Rule, ecmp
from repro.dataplane.update import RuleUpdate, UpdateOp
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match, Pattern

from .apply_reference import apply_overwrites_reference
from .bdd_reference import ReferenceBDD

NUM_VARS = 6  # 64 headers: small enough to brute-force every assignment

ENGINE_KINDS = ["bdd", "reference"]
PAIRINGS = list(itertools.product(ENGINE_KINDS, ENGINE_KINDS))


def make_engine(kind: str, num_vars: int = NUM_VARS) -> PredicateEngine:
    bdd = ReferenceBDD(num_vars) if kind == "reference" else None
    return PredicateEngine(num_vars, bdd=bdd)


def _assignment(header: int, num_vars: int = NUM_VARS):
    """Header value -> variable assignment (var 0 is the MSB)."""
    return {
        i: bool((header >> (num_vars - 1 - i)) & 1) for i in range(num_vars)
    }


def _headers_of(pred, num_vars: int = NUM_VARS):
    """Brute-force semantics: the set of headers the predicate accepts."""
    return {
        h
        for h in range(1 << num_vars)
        if pred.evaluate(_assignment(h, num_vars))
    }


def _random_pred(engine, rng, max_cubes: int = 4):
    """A random predicate: disjunction of random partial cubes."""
    out = engine.false
    for _ in range(rng.randint(0, max_cubes)):
        vars_in_cube = rng.sample(
            range(engine.num_vars), rng.randint(1, engine.num_vars)
        )
        literals = [(v, rng.random() < 0.5) for v in sorted(vars_in_cube)]
        out = engine.disj(out, engine.cube(literals))
    return out


@pytest.fixture(params=ENGINE_KINDS)
def engine(request):
    return make_engine(request.param)


@pytest.fixture(params=PAIRINGS, ids=lambda p: f"{p[0]}->{p[1]}")
def pairing(request):
    src, dst = request.param
    return make_engine(src), make_engine(dst)


# ---------------------------------------------------------------------------
# constants and constructors
# ---------------------------------------------------------------------------
def test_constants(engine):
    assert engine.false.is_false and not engine.false.is_true
    assert engine.true.is_true and not engine.true.is_false
    assert engine.false.node == 0 and engine.true.node == 1
    assert engine.false.sat_count() == 0
    assert engine.true.sat_count() == 1 << NUM_VARS
    assert engine.false.any_assignment() is None
    assert engine.true.any_assignment() is not None


def test_literals_and_cubes(engine):
    for var in range(NUM_VARS):
        lit = engine.variable(var)
        assert _headers_of(lit) == {
            h for h in range(1 << NUM_VARS) if _assignment(h)[var]
        }
        assert engine.literal(var, False) == engine.neg(lit)
    cube = engine.cube([(0, True), (2, False)])
    assert _headers_of(cube) == {
        h
        for h in range(1 << NUM_VARS)
        if _assignment(h)[0] and not _assignment(h)[2]
    }
    assert engine.cube([]) is engine.true or engine.cube([]).is_true


def test_out_of_range_variable_raises(engine):
    with pytest.raises(IndexError):
        engine.variable(NUM_VARS)
    with pytest.raises(IndexError):
        engine.literal(-1, True)


def test_bool_coercion_guard(engine):
    with pytest.raises(TypeError):
        bool(engine.true)


# ---------------------------------------------------------------------------
# algebraic laws
# ---------------------------------------------------------------------------
def test_algebraic_laws(engine):
    rng = random.Random(20260808)
    for _ in range(40):
        a = _random_pred(engine, rng)
        b = _random_pred(engine, rng)
        c = _random_pred(engine, rng)
        # commutativity / associativity
        assert (a & b) == (b & a)
        assert (a | b) == (b | a)
        assert ((a & b) & c) == (a & (b & c))
        assert ((a | b) | c) == (a | (b | c))
        # distributivity
        assert (a & (b | c)) == ((a & b) | (a & c))
        assert (a | (b & c)) == ((a | b) & (a | c))
        # De Morgan + double negation
        assert ~(a & b) == (~a | ~b)
        assert ~(a | b) == (~a & ~b)
        assert ~~a == a
        # absorption, complements, units
        assert (a & (a | b)) == a
        assert (a | (a & b)) == a
        assert (a | ~a).is_true and (a & ~a).is_false
        assert (a & engine.true) == a and (a | engine.false) == a
        # derived operators
        assert (a - b) == (a & ~b)
        assert (a ^ b) == ((a | b) - (a & b))
        assert engine.ite(a, b, c) == ((a & b) | (~a & c))


def test_queries_match_brute_force(engine):
    rng = random.Random(7)
    for _ in range(25):
        a = _random_pred(engine, rng)
        b = _random_pred(engine, rng)
        ha, hb = _headers_of(a), _headers_of(b)
        assert a.sat_count() == len(ha)
        assert a.intersects(b) == bool(ha & hb)
        assert (a - b).is_false == (ha <= hb)
        assert _headers_of(a & b) == (ha & hb)
        assert _headers_of(a | b) == (ha | hb)
        assert _headers_of(a - b) == (ha - hb)
        assert _headers_of(~a) == set(range(1 << NUM_VARS)) - ha
        witness = a.any_assignment()
        if ha:
            assert witness is not None and a.evaluate(witness)
        else:
            assert witness is None


def test_equality_is_semantic_and_hash_consistent(engine):
    rng = random.Random(11)
    for _ in range(20):
        a = _random_pred(engine, rng)
        b = _random_pred(engine, rng)
        same = _headers_of(a) == _headers_of(b)
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b)
            assert a.node == b.node  # canonical representatives


def test_split(engine):
    rng = random.Random(13)
    for _ in range(12):
        a = _random_pred(engine, rng)
        b = _random_pred(engine, rng)
        inter, rest = a.split(b)
        assert inter == (a & b)
        assert rest == (a - b)
        assert (inter & rest).is_false
        assert (inter | rest) == a


def test_varargs_folds(engine):
    rng = random.Random(17)
    preds = [_random_pred(engine, rng) for _ in range(6)]
    union = engine.false
    for p in preds:
        union = union | p
    assert engine.disj_many(preds) == union
    assert engine.disj_many([]).is_false


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------
def test_signature_is_cofactor_occupancy(engine):
    """Bit i of the signature <=> headers exist in the i-th top slice."""
    rng = random.Random(19)
    sig_bits = min(8, NUM_VARS)
    rest = NUM_VARS - sig_bits
    for _ in range(25):
        p = _random_pred(engine, rng)
        sig = engine.signature(p)
        headers = _headers_of(p)
        for i in range(1 << sig_bits):
            occupied = any(
                h >> rest == i for h in headers
            )
            assert bool(sig >> i & 1) == occupied, (i, sig, sorted(headers))


@pytest.mark.parametrize(
    "pair", PAIRINGS, ids=lambda p: f"{p[0]}-vs-{p[1]}"
)
def test_signatures_agree_across_backends(pair):
    """The same set of headers signs identically over every node
    encoding — the signature is a property of the function, not of the
    store mr2's pruning happens to run on."""
    left = make_engine(pair[0])
    right = make_engine(pair[1])
    rng_l = random.Random(23)
    rng_r = random.Random(23)
    for _ in range(25):
        a = _random_pred(left, rng_l)
        b = _random_pred(right, rng_r)
        assert _headers_of(a) == _headers_of(b)  # same seeded construction
        assert left.signature(a) == right.signature(b)


# ---------------------------------------------------------------------------
# cross-engine import
# ---------------------------------------------------------------------------
def test_import_across_backends(pairing):
    src, dst = pairing
    rng = random.Random(31)
    preds = [_random_pred(src, rng) for _ in range(8)]
    preds += [src.false, src.true]
    # one-by-one and batched imports agree with brute-force semantics
    moved = dst.import_predicates(preds)
    assert len(moved) == len(preds)
    for orig, got in zip(preds, moved):
        assert got.engine is dst
        assert _headers_of(got) == _headers_of(orig)
        assert dst.import_predicate(orig) == got
    # and the round trip back is exact
    returned = src.import_predicates(moved)
    for orig, got in zip(preds, returned):
        assert got == orig and got.node == orig.node


def test_import_predicates_bulk_matches_per_pred_import(pairing):
    """One bulk import over handles sharing structure — duplicates and a
    complement included — lands on the same handles as importing each
    predicate on its own."""
    src, dst = pairing
    rng = random.Random(41)
    preds = [_random_pred(src, rng, max_cubes=8) for _ in range(24)]
    preds += [src.false, src.true, preds[0], ~preds[0]]
    bulk = dst.import_predicates(preds)
    assert bulk == [dst.import_predicate(p) for p in preds]
    assert bulk[-2] is bulk[0] and bulk[-1] == ~bulk[0]


def test_import_predicates_mixed_sources(engine):
    """One bulk import over handles from both node stores and the
    destination's own equals importing each handle on its own."""
    rng = random.Random(37)
    sources = [make_engine(kind) for kind in ENGINE_KINDS]
    mixed = [
        _random_pred(source, rng) for _ in range(4) for source in sources
    ]
    mixed += [sources[0].true, sources[1].false, _random_pred(engine, rng)]
    out = engine.import_predicates(mixed)
    assert out == [engine.import_predicate(p) for p in mixed]
    assert out[-3].is_true and out[-2].is_false
    assert out[-1] is mixed[-1]


def test_import_widens_narrower_sources(pairing):
    """A predicate from a narrower header space imports as a prefix:
    the missing low-order variables become don't-cares.  The other way
    round is refused."""
    src, dst = pairing
    narrow = PredicateEngine(3, bdd=type(src.bdd)(3))
    pred = narrow.cube([(0, True), (2, False)])  # 1?0 over 3 vars
    wide = dst.import_predicate(pred)
    expect = {
        h
        for h in range(1 << NUM_VARS)
        if _assignment(h)[0] and not _assignment(h)[2]
    }
    assert _headers_of(wide) == expect
    with pytest.raises(ValueError, match="cannot import"):
        narrow.import_predicates([narrow.true, wide])


# ---------------------------------------------------------------------------
# GC / memory surface
# ---------------------------------------------------------------------------
def test_collect_preserves_live_handles(engine):
    rng = random.Random(37)
    keep = [_random_pred(engine, rng) for _ in range(6)]
    semantics = [_headers_of(p) for p in keep]
    for _ in range(50):  # churn dead intermediates
        _random_pred(engine, rng) & _random_pred(engine, rng)
    freed = engine.collect()
    for pred, headers in zip(keep, semantics):
        assert _headers_of(pred) == headers
    if hasattr(engine.bdd, "collect"):
        # A handle is the one root: drop all but the first and a sweep
        # frees what only the others held, and the first still answers.
        assert freed > 0
        del keep[1:], pred
        assert engine.collect() > 0
        assert _headers_of(keep[0]) == semantics[0]
    else:  # the reference store has no collector: nothing is ever freed
        assert freed == 0
    assert engine.shared_node_count(keep) >= 0
    assert engine.memory_estimate_bytes() >= 0


# ---------------------------------------------------------------------------
# the inverse model is node-store-agnostic
# ---------------------------------------------------------------------------
def _boundary_updates(epoch="conf"):
    """A FIB mixing prefixes, a suffix and ECMP across three devices."""

    def rule(priority, ternaries, action):
        return Rule(
            priority=priority,
            match=Match({"dst": Pattern(tuple(ternaries))}),
            action=action,
        )

    ups = [
        (0, rule(1, [(8, 12)], 2)),       # dst=10** -> port 2
        (0, rule(2, [(1, 1)], 1)),        # dst=***1 -> port 1 (suffix)
        (1, rule(1, [(8, 8)], ecmp(2, 3))),  # dst=1*** -> ECMP
        (1, rule(2, [(0, 12)], DROP)),    # dst=00** -> drop
        (2, rule(1, [(4, 14)], 0)),       # dst=010* -> port 0
    ]
    return [
        RuleUpdate(UpdateOp.INSERT, device, r, epoch) for device, r in ups
    ]


@pytest.mark.parametrize(
    "pair", PAIRINGS, ids=lambda p: f"{p[0]}-vs-{p[1]}"
)
def test_inverse_model_equivalence(pair):
    """The same update stream yields the same EC table over every store:
    identical header -> behavior maps and identical EC partitions."""
    layout = dst_only_layout(4)
    writers = []
    for kind in pair:
        writer = ModelWriter(
            [0, 1, 2], layout, engine=make_engine(kind, layout.total_bits)
        )
        writer.submit(_boundary_updates())
        writer.flush()
        writers.append(writer)
    left, right = writers
    assert left.num_ecs() == right.num_ecs()
    for header in range(1 << layout.total_bits):
        assignment = _assignment(header, layout.total_bits)
        assert left.model.behavior(assignment) == right.model.behavior(
            assignment
        ), header
    left.model.check_invariants()
    right.model.check_invariants()


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_inverse_model_fast_apply_matches_reference(kind):
    """The signature-pruned fast path equals the historical cross
    product over every store, not just the product engine."""
    layout = dst_only_layout(4)
    fast = ModelWriter(
        [0, 1, 2], layout, engine=make_engine(kind, layout.total_bits)
    )
    fast.submit(_boundary_updates())
    fast.flush()
    slow = ModelWriter(
        [0, 1, 2], layout, engine=make_engine(kind, layout.total_bits)
    )
    slow.model.apply_overwrites = (
        lambda overwrites: apply_overwrites_reference(slow.model, overwrites)
    )
    slow.submit(_boundary_updates())
    slow.flush()
    assert fast.num_ecs() == slow.num_ecs()
    for header in range(1 << layout.total_bits):
        assignment = _assignment(header, layout.total_bits)
        assert fast.model.behavior(assignment) == slow.model.behavior(
            assignment
        )
