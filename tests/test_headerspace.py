"""Tests for header layouts, matches and interval sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.predicate import PredicateEngine
from repro.errors import HeaderSpaceError
from repro.headerspace.fields import (
    HeaderLayout,
    dst_only_layout,
    dst_src_layout,
    five_tuple_layout,
)
from repro.headerspace.intervals import IntervalSet, ternary_to_intervals
from repro.headerspace.match import Match, MatchCompiler, Pattern


def as_set(iset):
    out = set()
    for lo, hi in iset:
        out.update(range(lo, hi + 1))
    return out


class TestLayout:
    def test_offsets_and_total(self):
        layout = HeaderLayout([("dst", 16), ("src", 8)])
        assert layout.total_bits == 24
        assert layout.offset("dst") == 0
        assert layout.offset("src") == 16

    def test_flatten_roundtrip(self):
        layout = dst_src_layout(8, 4)
        values = {"dst": 0xAB, "src": 0x5}
        header = layout.flatten(values)
        assert header == (0xAB << 4) | 0x5
        assert layout.unflatten(header) == values

    def test_flatten_range_check(self):
        layout = dst_only_layout(4)
        with pytest.raises(HeaderSpaceError):
            layout.flatten({"dst": 16})

    def test_unknown_field(self):
        layout = dst_only_layout(8)
        with pytest.raises(HeaderSpaceError):
            layout.offset("nope")

    def test_duplicate_fields_rejected(self):
        with pytest.raises(HeaderSpaceError):
            HeaderLayout([("a", 4), ("a", 4)])

    def test_empty_layout_rejected(self):
        with pytest.raises(HeaderSpaceError):
            HeaderLayout([])

    def test_five_tuple(self):
        layout = five_tuple_layout(8)
        assert layout.field_names() == ("dst", "src", "proto", "dport")
        assert layout.total_bits == 8 + 8 + 2 + 8

    def test_bits_of(self):
        layout = dst_only_layout(4)
        assert layout.bits_of("dst", 0b1010) == [
            (0, True),
            (1, False),
            (2, True),
            (3, False),
        ]


class TestIntervalSet:
    def test_normalisation_merges_adjacent(self):
        s = IntervalSet([(0, 3), (4, 7), (10, 12)])
        assert s.intervals == ((0, 7), (10, 12))

    def test_cardinality_and_contains(self):
        s = IntervalSet([(2, 4), (8, 8)])
        assert s.cardinality() == 4
        assert s.contains(3)
        assert s.contains(8)
        assert not s.contains(5)
        assert not s.contains(9)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            IntervalSet.empty().sample()


class TestTernaryToIntervals:
    def test_prefix_is_one_interval(self):
        # 0b10?? → [8, 11]
        assert ternary_to_intervals(0b1000, 0b1100, 4) == [(8, 11)]

    def test_full_wildcard(self):
        assert ternary_to_intervals(0, 0, 4) == [(0, 15)]

    def test_suffix_explodes(self):
        # match low bit == 1 in a 4-bit field: 8 singleton intervals
        ivals = ternary_to_intervals(1, 1, 4)
        assert len(ivals) == 8
        assert all(lo == hi for lo, hi in ivals)
        assert {lo for lo, _ in ivals} == {1, 3, 5, 7, 9, 11, 13, 15}

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            ternary_to_intervals(1, 1, 12, max_intervals=100)

    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_semantics(self, value, mask):
        ivals = IntervalSet(ternary_to_intervals(value, mask, 4))
        expected = {x for x in range(16) if x & mask == value & mask}
        assert as_set(ivals) == expected


class TestPattern:
    def test_exact(self):
        p = Pattern.exact(5, 4)
        assert p.matches(5)
        assert not p.matches(4)

    def test_prefix(self):
        p = Pattern.prefix(0b1010, 2, 4)  # matches 10??
        assert p.matches(0b1000)
        assert p.matches(0b1011)
        assert not p.matches(0b0100)

    def test_zero_length_prefix_matches_all(self):
        p = Pattern.prefix(0, 0, 4)
        assert all(p.matches(v) for v in range(16))

    def test_suffix(self):
        p = Pattern.suffix(0b11, 2, 4)
        assert p.matches(0b0111)
        assert p.matches(0b1011)
        assert not p.matches(0b0110)

    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=50, deadline=None)
    def test_range_cover(self, a, b):
        lo, hi = min(a, b), max(a, b)
        p = Pattern.range(lo, hi, 4)
        for v in range(16):
            assert p.matches(v) == (lo <= v <= hi)

    def test_bad_range(self):
        with pytest.raises(HeaderSpaceError):
            Pattern.range(5, 3, 4)

    def test_bad_prefix_length(self):
        with pytest.raises(HeaderSpaceError):
            Pattern.prefix(0, 9, 8)


class TestMatch:
    def setup_method(self):
        self.layout = dst_src_layout(4, 4)
        self.engine = PredicateEngine(self.layout.total_bits)

    def _semantics_agree(self, match):
        pred = match.to_predicate(self.engine, self.layout)
        iset = match.to_interval_set(self.layout)
        for header in range(self.layout.universe_size):
            values = self.layout.unflatten(header)
            expected = match.matches(values)
            bits = {}
            for name in self.layout.field_names():
                bits.update(
                    dict(self.layout.bits_of(name, values[name]))
                )
            assert pred.evaluate(bits) == expected, (header, match)
            assert iset.contains(header) == expected, (header, match)

    def test_wildcard(self):
        m = Match.wildcard()
        assert m.is_wildcard
        assert m.to_predicate(self.engine, self.layout).is_true
        assert m.to_interval_set(self.layout) == IntervalSet.universe(256)

    def test_dst_prefix_semantics(self):
        self._semantics_agree(Match.dst_prefix(0b1000, 2, self.layout))

    def test_exact_two_fields(self):
        self._semantics_agree(Match.exact(self.layout, dst=3, src=7))

    def test_src_only_forces_interval_expansion(self):
        m = Match({"src": Pattern.prefix(0b10, 2, 4)})
        iset = m.to_interval_set(self.layout)
        assert len(iset) == 16  # one run per dst value
        self._semantics_agree(m)

    def test_suffix_match_semantics(self):
        self._semantics_agree(Match({"dst": Pattern.suffix(0b1, 1, 4)}))

    def test_range_match_semantics(self):
        self._semantics_agree(Match({"dst": Pattern.range(3, 11, 4)}))

    def test_match_equality_and_hash(self):
        a = Match.dst_prefix(4, 2, self.layout)
        b = Match.dst_prefix(4, 2, self.layout)
        assert a == b and a == a
        assert hash(a) == hash(b)
        assert a != Match.dst_prefix(4, 3, self.layout)
        assert a != Match.dst_prefix(8, 2, self.layout)
        assert a != "not a match"

    def test_pickle_rebuilds_the_match(self):
        import pickle

        a = Match({"dst": Pattern.range(3, 11, 4), "src": Pattern.exact(1, 4)})
        b = pickle.loads(pickle.dumps(a))
        assert b == a and hash(b) == hash(a)
        assert b.patterns == a.patterns

    @pytest.mark.parametrize("ternary", [(8, 24), (24, 31), (0, 16)])
    def test_mask_bits_above_the_width_are_an_error(self, ternary):
        """The BDD would drop the bits and ``matches`` would keep them."""
        m = Match({"dst": Pattern((ternary,))})
        for compile_ in (
            lambda: m.to_predicate(self.engine, self.layout),
            lambda: m.to_interval_set(self.layout),
        ):
            with pytest.raises(HeaderSpaceError) as info:
                compile_()
            message = str(info.value)
            assert "'dst'" in message
            assert f"[{ternary[0]}, {ternary[1]}]" in message
            assert "width 4" in message

    def test_a_field_outside_the_layout_is_an_error(self):
        """Both compilers reject it; the interval one used to skip it and
        return the whole space."""
        m = Match({"nope": Pattern(((1, 255),))})
        for compile_ in (
            lambda: m.to_predicate(self.engine, self.layout),
            lambda: m.to_interval_set(self.layout),
        ):
            with pytest.raises(HeaderSpaceError, match="unknown field 'nope'"):
                compile_()

    def test_matches_header(self):
        m = Match.exact(self.layout, dst=2)
        header = self.layout.flatten({"dst": 2, "src": 9})
        assert m.matches_header(header, self.layout)

    def test_compiler_memoizes(self):
        compiler = MatchCompiler(self.engine, self.layout)
        m = Match.dst_prefix(4, 2, self.layout)
        p1 = compiler.compile(m)
        ops_before = self.engine.metrics.total
        p2 = compiler.compile(Match.dst_prefix(4, 2, self.layout))
        assert p1 == p2
        assert self.engine.metrics.total == ops_before
        assert len(compiler) == 1
