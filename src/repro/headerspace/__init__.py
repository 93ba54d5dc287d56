"""Header-space substrate: layouts, matches and interval sets."""

from .format import cube_to_fields, format_predicate, iter_predicate_cubes
from .fields import (
    HeaderField,
    HeaderLayout,
    dst_only_layout,
    dst_src_layout,
    five_tuple_layout,
)
from .intervals import Interval, IntervalSet, ternary_to_intervals
from .match import Match, MatchCompiler, Pattern

__all__ = [
    "cube_to_fields",
    "format_predicate",
    "iter_predicate_cubes",
    "HeaderField",
    "HeaderLayout",
    "dst_only_layout",
    "dst_src_layout",
    "five_tuple_layout",
    "Interval",
    "IntervalSet",
    "ternary_to_intervals",
    "Match",
    "MatchCompiler",
    "Pattern",
]
