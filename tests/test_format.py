"""Tests for predicate rendering."""

import pytest

from repro.bdd.predicate import PredicateEngine
from repro.headerspace.fields import dst_src_layout
from repro.headerspace.format import (
    cube_to_fields,
    format_predicate,
    iter_predicate_cubes,
)
from repro.headerspace.match import Match, Pattern

LAYOUT = dst_src_layout(4, 4)


@pytest.fixture()
def engine():
    return PredicateEngine(LAYOUT.total_bits)


class TestFormatting:
    def test_constants(self, engine):
        assert format_predicate(engine.false, LAYOUT) == "⊥"
        assert format_predicate(engine.true, LAYOUT) == "*"

    def test_prefix_renders_ternary(self, engine):
        pred = Match.dst_prefix(0b1000, 2, LAYOUT).to_predicate(engine, LAYOUT)
        text = format_predicate(pred, LAYOUT)
        assert "dst=10??" in text

    def test_two_field(self, engine):
        pred = Match(
            {"dst": Pattern.exact(3, 4), "src": Pattern.prefix(0b1000, 1, 4)}
        ).to_predicate(engine, LAYOUT)
        text = format_predicate(pred, LAYOUT)
        assert "dst=0011" in text and "src=1???" in text

    def test_cube_roundtrip_semantics(self, engine):
        """Every rendered cube, when re-parsed, lies inside the predicate."""
        pred = Match.dst_prefix(0b0100, 2, LAYOUT).to_predicate(engine, LAYOUT)
        for fields in iter_predicate_cubes(pred, LAYOUT):
            # materialize one concrete header from the cube
            values = {}
            for name, bits in fields.items():
                values[name] = int(bits.replace("?", "0"), 2)
            assignment = {}
            for name in LAYOUT.field_names():
                assignment.update(dict(LAYOUT.bits_of(name, values[name])))
            assert pred.evaluate(assignment)

    def test_truncation_marker(self, engine):
        # Exact (dst, src) pairs whose cubes cannot merge in the BDD cover.
        pairs = [(1, 2), (2, 5), (4, 9), (8, 14)]
        preds = [
            Match(
                {"dst": Pattern.exact(d, 4), "src": Pattern.exact(s, 4)}
            ).to_predicate(engine, LAYOUT)
            for d, s in pairs
        ]
        union = engine.disj_many(preds)
        cubes = list(iter_predicate_cubes(union, LAYOUT, limit=100))
        assert len(cubes) >= 4
        text = format_predicate(union, LAYOUT, limit=len(cubes) - 1)
        assert text.endswith("| ...")
