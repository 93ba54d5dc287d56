"""Cofactor signatures over every header field.

A signature cell is one assignment to the layout's signature variables
(:attr:`HeaderLayout.signature_vars`: the first field's top bits, then
the next fields' top bits), and every other variable is projected away.
Checked against brute force on a two-field layout whose cells leave out
a low bit of each field: a predicate's signature is the set of cells its
headers fall in, so it is sound, exact over ∨ and an over-approximation
over ∧.  Engines that compare signatures with one another — the
writer's, a read view's scope engine, the reference node store — use
one tuple and agree bit for bit.
"""

import pytest

from repro.bdd.engine import FALSE, TRUE
from repro.bdd.predicate import PredicateEngine
from repro.core.model_manager import ModelWriter
from repro.dataplane.rule import Rule
from repro.dataplane.update import insert
from repro.headerspace.fields import (
    HeaderLayout,
    dst_only_layout,
    dst_src_layout,
    five_tuple_layout,
)
from repro.headerspace.match import Match, MatchCompiler, Pattern

from .bdd_reference import ReferenceBDD
from .conftest import case_rng

# 12 variables: dst 0-8, src 9-11.  Cells: dst's top 8 bits x src's top
# 2 (vars 0-7, 9, 10); dst's last bit (8) and src's (11) are projected.
LAYOUT = HeaderLayout([("dst", 9), ("src", 3)])
KINDS = ["bdd", "reference"]


def make_engine(kind, layout=LAYOUT):
    n = layout.total_bits
    bdd = ReferenceBDD(n) if kind == "reference" else None
    return PredicateEngine(n, bdd=bdd, sig_vars=layout.signature_vars)


def headers_of(pred):
    """Every header (an int, var 0 the MSB) the predicate accepts."""
    n = pred.engine.num_vars
    decompose = pred.engine.bdd.decompose
    out = set()
    stack = [(pred.node, 0, 0)]
    while stack:
        u, var, prefix = stack.pop()
        if u == FALSE:
            continue
        if var == n:
            out.add(prefix)
            continue
        top, lo, hi = (n, u, u) if u == TRUE else decompose(u)
        if top > var:
            lo = hi = u
        stack.append((lo, var + 1, prefix << 1))
        stack.append((hi, var + 1, prefix << 1 | 1))
    return out


def cells_of(headers, sig_vars, num_vars):
    """The brute-force signature: one bit per cell some header is in."""
    sig = 0
    for h in headers:
        cell = 0
        for v in sig_vars:
            cell = cell << 1 | (h >> (num_vars - 1 - v)) & 1
        sig |= 1 << cell
    return sig


def random_match(rng, layout=LAYOUT):
    patterns = {}
    for f in layout.fields:
        if rng.random() < 0.8:
            patterns[f.name] = Pattern.ternary(
                rng.getrandbits(f.width), rng.getrandbits(f.width), f.width
            )
    return Match(patterns)


def random_pred(compiler, rng, layout=LAYOUT):
    """A union of one to three random ternary matches."""
    engine = compiler.engine
    return engine.disj_many(
        [compiler.compile(random_match(rng, layout)) for _ in range(rng.randint(1, 3))]
    )


class TestSignatureVars:
    @pytest.mark.parametrize(
        "layout, expected",
        [
            (dst_only_layout(16), tuple(range(8))),
            (dst_only_layout(4), tuple(range(4))),
            (dst_src_layout(12, 6), tuple(range(8)) + (12, 13)),
            (dst_src_layout(4, 8), tuple(range(10))),
            (dst_src_layout(6, 8), tuple(range(10))),
            (five_tuple_layout(16), tuple(range(8)) + (16, 17)),
            (HeaderLayout([("a", 3), ("b", 2), ("c", 2), ("d", 8)]),
             tuple(range(10))),
        ],
        ids=["dst16", "dst4", "dst12-src6", "dst4-src8", "dst6-src8",
             "five-tuple", "four-narrow"],
    )
    def test_top_bits_of_the_fields_up_to_ten_variables(self, layout, expected):
        assert layout.signature_vars == expected

    def test_engine_rejects_a_tuple_it_cannot_walk(self):
        for bad in ((1, 0), (0, 0), (0, 12)):
            with pytest.raises(ValueError):
                PredicateEngine(12, sig_vars=bad)


@pytest.mark.parametrize("kind", KINDS)
class TestAgainstBruteForce:
    N = LAYOUT.total_bits

    def _preds(self, kind, seed, count):
        compiler = MatchCompiler(make_engine(kind), LAYOUT)
        rng = case_rng(seed)
        return compiler.engine, [random_pred(compiler, rng) for _ in range(count)]

    def test_signature_is_the_cells_its_headers_occupy(self, kind):
        engine, preds = self._preds(kind, 0x5161, 24)
        for p in preds + [engine.true, engine.false]:
            want = cells_of(headers_of(p), LAYOUT.signature_vars, self.N)
            assert engine.signature(p) == want

    def test_sound_exact_over_or_and_over_approximate_over_and(self, kind):
        engine, preds = self._preds(kind, 0x5162, 16)
        sig = engine.signature
        disjoint_cells = coarse = 0
        for i, a in enumerate(preds):
            for b in preds[:i]:
                meet = headers_of(a) & headers_of(b)
                if not sig(a) & sig(b):
                    disjoint_cells += 1
                    assert not meet  # sound
                elif not meet:
                    coarse += 1  # projected bits tell them apart
                assert sig(a | b) == sig(a) | sig(b)
                assert sig(a & b) & ~(sig(a) & sig(b)) == 0
        assert disjoint_cells and coarse  # both sides exercised

    def test_projection_at_a_node_between_signature_variables(self, kind):
        # dst's last bit (var 8) lies between dst's top 8 and src's top 2.
        engine = make_engine(kind)
        lit = engine.literal
        p = (lit(8, True) & lit(9, True)) | (lit(8, False) & lit(10, True))
        want = cells_of(headers_of(p), LAYOUT.signature_vars, self.N)
        assert engine.signature(p) == want
        assert engine.signature(lit(8, True)) == engine.signature(engine.true)


@pytest.mark.parametrize("width", [4, 8, 12])
def test_one_field_masks_are_the_top_eight_bits(width):
    """A one-field layout keeps the 8-variable mask: bit ``i`` set iff
    some header's top ``min(8, width)`` bits read ``i``."""
    layout = dst_only_layout(width)
    bits = min(8, width)
    assert layout.signature_vars == tuple(range(bits))
    rng = case_rng(width)
    for kind in KINDS:
        ours = MatchCompiler(make_engine(kind, layout), layout)
        default = MatchCompiler(
            PredicateEngine(width, bdd=ReferenceBDD(width) if kind == "reference" else None),
            layout,
        )
        for _ in range(12):
            match = random_match(rng, layout)
            p = ours.compile(match)
            want = 0
            for h in headers_of(p):
                want |= 1 << (h >> (width - bits))
            assert ours.engine.signature(p) == want
            assert default.engine.signature(default.compile(match)) == want


def test_writer_scope_and_reference_engines_sign_alike():
    """The writer's engine, a read view's scope engine (serve's scope
    filter tests one against the other) and a reference-store engine
    built from the layout give every match the same signature."""
    layout = dst_src_layout(12, 6)
    writer = ModelWriter((0,), layout)
    writer.submit([insert(0, Rule(1, Match.dst_prefix(0, 1, layout), 1))])
    writer.flush()
    scope = writer.read_view().compiler
    n = layout.total_bits
    reference = MatchCompiler(
        PredicateEngine(n, bdd=ReferenceBDD(n), sig_vars=layout.signature_vars),
        layout,
    )
    compilers = [writer.compiler, scope, reference]
    assert len({c.engine.sig_vars for c in compilers}) == 1
    rng = case_rng(0x5163)
    for _ in range(40):
        match = random_match(rng, layout)
        sigs = {c.engine.signature(c.compile(match)) for c in compilers}
        assert len(sigs) == 1
