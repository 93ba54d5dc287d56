"""Closed-interval sets over a finite integer universe.

This is the data representation at the heart of the Delta-net* baseline:
every match is a union of maximal intervals of the flattened header space,
and atoms are the elementary intervals induced by all rule boundaries.

Intervals are inclusive ``(lo, hi)`` pairs; an :class:`IntervalSet` keeps
them sorted, disjoint and non-adjacent (maximal), so equality is structural.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, List, Tuple

Interval = Tuple[int, int]


def _normalise(intervals: Iterable[Interval]) -> List[Interval]:
    items = sorted((lo, hi) for lo, hi in intervals if lo <= hi)
    merged: List[Interval] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1] + 1:
            last_lo, last_hi = merged[-1]
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


class IntervalSet:
    """An immutable union of disjoint, maximal closed intervals."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self.intervals: Tuple[Interval, ...] = tuple(_normalise(intervals))

    # -- constructors ----------------------------------------------------
    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def single(cls, lo: int, hi: int) -> "IntervalSet":
        if lo > hi:
            raise ValueError(f"bad interval [{lo}, {hi}]")
        return cls(((lo, hi),))

    @classmethod
    def universe(cls, size: int) -> "IntervalSet":
        return cls(((0, size - 1),))

    # -- queries ---------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def cardinality(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.intervals)

    def contains(self, point: int) -> bool:
        los = [lo for lo, _ in self.intervals]
        idx = bisect_right(los, point) - 1
        return idx >= 0 and self.intervals[idx][1] >= point

    def sample(self) -> int:
        if self.is_empty:
            raise ValueError("cannot sample an empty interval set")
        return self.intervals[0][0]

    # -- identity ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and other.intervals == self.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        body = ", ".join(f"[{lo},{hi}]" for lo, hi in self.intervals[:4])
        more = "..." if len(self.intervals) > 4 else ""
        return f"IntervalSet({body}{more})"


def ternary_to_intervals(
    value: int, mask: int, width: int, max_intervals: int = 1 << 20
) -> List[Interval]:
    """Decompose a ternary pattern into maximal intervals.

    The pattern matches ``x`` iff ``x & mask == value & mask``.  A prefix
    pattern (wildcards only in a trailing run) is a single interval; a suffix
    pattern (wildcards in the high bits) explodes to ``2**(#high wildcards)``
    intervals — exactly the degradation the paper observes for Delta-net* on
    LNet-smr.

    Raises
    ------
    ValueError
        If the decomposition would exceed ``max_intervals``.
    """
    full = (1 << width) - 1
    mask &= full
    value &= mask
    if mask == 0:
        return [(0, full)]
    # Trailing wildcard run: the low bits we can span contiguously.
    trailing = (mask & -mask).bit_length() - 1
    span = (1 << trailing) - 1
    # Wildcard bit positions above the trailing run.
    free_bits = [
        b for b in range(trailing, width) if not (mask >> b) & 1
    ]
    count = 1 << len(free_bits)
    if count > max_intervals:
        raise ValueError(
            f"ternary pattern expands to {count} intervals (> {max_intervals})"
        )
    intervals: List[Interval] = []
    for combo in range(count):
        base = value
        for i, bit in enumerate(free_bits):
            if (combo >> i) & 1:
                base |= 1 << bit
        intervals.append((base, base + span))
    return _normalise(intervals)
