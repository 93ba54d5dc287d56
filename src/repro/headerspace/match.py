"""Rule matches: per-field patterns with BDD and interval conversions.

A :class:`Match` is the ``match`` component of a forwarding rule — a
predicate over the header space, expressed structurally as one pattern per
field (absent fields are wildcards).  The same match can be compiled two
ways:

* to a BDD :class:`~repro.bdd.predicate.Predicate` (Flash, APKeep*);
* to an :class:`~repro.headerspace.intervals.IntervalSet` over the flattened
  header integer (Delta-net*).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bdd.predicate import Predicate, PredicateEngine
from ..errors import HeaderSpaceError
from .fields import HeaderLayout
from .intervals import IntervalSet, ternary_to_intervals

Ternary = Tuple[int, int]  # (value, mask): matches x iff x & mask == value & mask


@dataclass(frozen=True)
class Pattern:
    """A single-field ternary/range pattern.

    Exactly one canonical internal form is kept: a tuple of ternaries
    (value, mask).  Prefix and exact patterns are one ternary; ranges
    decompose into the minimal prefix cover.
    """

    ternaries: Tuple[Ternary, ...]

    # -- constructors ----------------------------------------------------
    @classmethod
    def exact(cls, value: int, width: int) -> "Pattern":
        mask = (1 << width) - 1
        return cls(((value & mask, mask),))

    @classmethod
    def prefix(cls, value: int, length: int, width: int) -> "Pattern":
        if not 0 <= length <= width:
            raise HeaderSpaceError(f"prefix length {length} out of [0, {width}]")
        mask = ((1 << length) - 1) << (width - length) if length else 0
        return cls(((value & mask, mask),))

    @classmethod
    def ternary(cls, value: int, mask: int, width: int) -> "Pattern":
        full = (1 << width) - 1
        return cls(((value & mask & full, mask & full),))

    @classmethod
    def suffix(cls, value: int, length: int, width: int) -> "Pattern":
        """Match the low ``length`` bits — the LNet-smr rule shape."""
        if not 0 <= length <= width:
            raise HeaderSpaceError(f"suffix length {length} out of [0, {width}]")
        mask = (1 << length) - 1
        return cls(((value & mask, mask),))

    @classmethod
    def range(cls, lo: int, hi: int, width: int) -> "Pattern":
        """Minimal prefix cover of the inclusive range [lo, hi]."""
        if lo > hi:
            raise HeaderSpaceError(f"bad range [{lo}, {hi}]")
        full = (1 << width) - 1
        if not 0 <= lo <= hi <= full:
            raise HeaderSpaceError(f"range [{lo}, {hi}] outside field width")
        ternaries: List[Ternary] = []
        while lo <= hi:
            # Largest aligned block starting at lo that fits in [lo, hi].
            size = lo & -lo if lo else full + 1
            while lo + size - 1 > hi:
                size >>= 1
            ternaries.append((lo, full & ~(size - 1)))
            lo += size
        return cls(tuple(ternaries))

    # -- queries ---------------------------------------------------------
    def matches(self, value: int) -> bool:
        return any(value & mask == tv for tv, mask in self.ternaries)

    def is_wildcard(self, width: int) -> bool:
        return any(mask == 0 for _, mask in self.ternaries)

    def to_intervals(self, width: int, max_intervals: int = 1 << 20) -> IntervalSet:
        out: List[Tuple[int, int]] = []
        for value, mask in self.ternaries:
            out.extend(ternary_to_intervals(value, mask, width, max_intervals))
        return IntervalSet(out)


def _check_width(field: str, pattern: Pattern, width: int) -> None:
    """Reject a ternary that cares about bits the field does not have.

    The BDD would drop those bits and :meth:`Pattern.matches` would keep
    them, so the two would disagree on which headers the rule matches.
    """
    for value, mask in pattern.ternaries:
        if mask >> width:
            raise HeaderSpaceError(
                f"field {field!r}: ternary [{value}, {mask}] has mask bits "
                f"at or above the field's width {width}"
            )


class Match:
    """A conjunction of per-field patterns; absent fields are wildcards.

    The hash is computed once, at construction: a match is a dict key on
    every hot path (the compile memo, the subspace router), and trace
    decoding hands out one object per distinct match, so equality is
    usually settled by identity.
    """

    __slots__ = ("patterns", "_key", "_hash")

    def __init__(self, patterns: Dict[str, Pattern]) -> None:
        self.patterns: Dict[str, Pattern] = dict(patterns)
        # Field names are unique, so the sort never compares two patterns.
        self._key = tuple(sorted(self.patterns.items()))
        self._hash = hash(self._key)

    # -- constructors ----------------------------------------------------
    @classmethod
    def wildcard(cls) -> "Match":
        return cls({})

    @classmethod
    def dst_prefix(cls, value: int, length: int, layout: HeaderLayout) -> "Match":
        width = layout.field("dst").width
        return cls({"dst": Pattern.prefix(value, length, width)})

    @classmethod
    def exact(cls, layout: HeaderLayout, **values: int) -> "Match":
        return cls(
            {
                name: Pattern.exact(v, layout.field(name).width)
                for name, v in values.items()
            }
        )

    # -- queries ---------------------------------------------------------
    @property
    def is_wildcard(self) -> bool:
        return not self.patterns

    def pattern(self, field: str) -> Optional[Pattern]:
        return self.patterns.get(field)

    def matches(self, values: Dict[str, int]) -> bool:
        """Whether a concrete header (field → value) satisfies this match."""
        return all(
            p.matches(values.get(field, 0)) for field, p in self.patterns.items()
        )

    def matches_header(self, header: int, layout: HeaderLayout) -> bool:
        return self.matches(layout.unflatten(header))

    # -- compilation -----------------------------------------------------
    def to_predicate(self, engine: PredicateEngine, layout: HeaderLayout) -> Predicate:
        """Compile to a BDD predicate (un-memoized; see MatchCompiler)."""
        result = engine.true
        for field, pattern in self.patterns.items():
            f = layout.field(field)
            _check_width(field, pattern, f.width)
            base = layout.offset(field)
            alt = engine.false
            for value, mask in pattern.ternaries:
                literals = [
                    (base + i, bool((value >> (f.width - 1 - i)) & 1))
                    for i in range(f.width)
                    if (mask >> (f.width - 1 - i)) & 1
                ]
                alt = alt | engine.cube(literals)
            result = result & alt
        return result

    def to_interval_set(
        self, layout: HeaderLayout, max_intervals: int = 1 << 20
    ) -> IntervalSet:
        """Compile to intervals of the flattened header integer.

        Fields are combined most-significant first.  When a constrained field
        sits above other constrained fields, values must be enumerated —
        this is the multi-field expansion cost the paper's Delta-net*
        extension pays on LNet-ecmp.
        """
        for name in self.patterns:
            layout.field(name)  # an unknown field is an error, not match-all
        per_field: List[IntervalSet] = []
        for f in layout.fields:
            pattern = self.patterns.get(f.name)
            if pattern is None:
                per_field.append(IntervalSet.universe(1 << f.width))
            else:
                _check_width(f.name, pattern, f.width)
                per_field.append(pattern.to_intervals(f.width, max_intervals))
        widths = [f.width for f in layout.fields]

        def combine(index: int) -> IntervalSet:
            if index == len(per_field):
                return IntervalSet.single(0, 0)
            rest_bits = sum(widths[index + 1 :])
            rest_size = 1 << rest_bits
            sub = combine(index + 1)
            field_ivals = per_field[index]
            full_sub = sub == IntervalSet.universe(rest_size)
            out: List[Tuple[int, int]] = []
            for lo, hi in field_ivals:
                if full_sub:
                    out.append((lo << rest_bits, ((hi + 1) << rest_bits) - 1))
                else:
                    span = hi - lo + 1
                    if span * len(sub) > max_intervals:
                        raise HeaderSpaceError(
                            "multi-field match expands beyond max_intervals"
                        )
                    for v in range(lo, hi + 1):
                        head = v << rest_bits
                        out.extend((head | slo, head | shi) for slo, shi in sub)
            if len(out) > max_intervals:
                raise HeaderSpaceError(
                    "match expands beyond max_intervals intervals"
                )
            return IntervalSet(out)

        return combine(0)

    # -- identity ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Match)
            and other._hash == self._hash
            and other._key == self._key
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never ship _hash.
        return Match, (self.patterns,)

    def __repr__(self) -> str:
        if not self.patterns:
            return "Match(*)"
        parts = []
        for field, pattern in self._key:
            terns = ",".join(f"{v:x}/{m:x}" for v, m in pattern.ternaries)
            parts.append(f"{field}={terns}")
        return f"Match({' '.join(parts)})"


class MatchCompiler:
    """Memoizing Match → Predicate compiler bound to one engine/layout.

    The memo is a bounded LRU: long churn streams compile an unbounded
    stream of distinct matches (every new prefix is a new key), and an
    unbounded dict both leaks and — because cached predicates are live
    handles — roots ever more BDD nodes against garbage collection.
    ``max_entries`` caps it; the oldest untouched entry is evicted
    first.  The current size is published as the ``match.cache.size``
    gauge and evictions count into ``match.cache.evictions``.
    """

    #: Default entry cap; at typical rule-match sizes this is a few MB
    #: of handles while comfortably covering one block's working set.
    DEFAULT_MAX_ENTRIES = 8192

    def __init__(
        self,
        engine: PredicateEngine,
        layout: HeaderLayout,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.engine = engine
        self.layout = layout
        self.max_entries = max_entries
        self._cache: "OrderedDict[Match, Predicate]" = OrderedDict()
        self._size_gauge = engine.registry.gauge("match.cache.size")
        self._evictions = engine.registry.counter("match.cache.evictions")

    def compile(self, match: Match) -> Predicate:
        cache = self._cache
        pred = cache.get(match)
        if pred is None:
            pred = match.to_predicate(self.engine, self.layout)
            cache[match] = pred
            if len(cache) > self.max_entries:
                cache.popitem(last=False)
                self._evictions.inc()
            self._size_gauge.set(len(cache))
        else:
            cache.move_to_end(match)
        return pred

    def __len__(self) -> int:
        return len(self._cache)
