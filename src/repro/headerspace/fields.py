"""Packet-header layouts.

A :class:`HeaderLayout` names the header fields a data plane matches on and
assigns each a bit width.  Bits are numbered from 0 (most significant bit of
the first field) so BDD variable order follows field order — prefix matches
become small cubes near the root, the ordering JDD-based verifiers use too.

The layout also defines the *flattened* integer view of a header (fields
concatenated most-significant-first) used by the Delta-net* baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..errors import HeaderSpaceError


@dataclass(frozen=True)
class HeaderField:
    """One named header field with a fixed bit width."""

    name: str
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise HeaderSpaceError(f"field {self.name!r} must have width > 0")
        if self.width > 64:
            raise HeaderSpaceError(f"field {self.name!r} is too wide (>64 bits)")

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1


class HeaderLayout:
    """An ordered collection of header fields.

    Parameters
    ----------
    fields:
        ``(name, width)`` pairs in match order; the first field occupies the
        most significant bits of the flattened header.
    """

    def __init__(self, fields: Iterable[Tuple[str, int]]) -> None:
        self.fields: List[HeaderField] = [HeaderField(n, w) for n, w in fields]
        if not self.fields:
            raise HeaderSpaceError("a layout needs at least one field")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise HeaderSpaceError(f"duplicate field names in {names}")
        self._by_name: Dict[str, HeaderField] = {f.name: f for f in self.fields}
        self._offsets: Dict[str, int] = {}
        offset = 0
        for f in self.fields:
            self._offsets[f.name] = offset
            offset += f.width
        self.total_bits = offset

    # ------------------------------------------------------------------
    def field(self, name: str) -> HeaderField:
        try:
            return self._by_name[name]
        except KeyError:
            raise HeaderSpaceError(f"unknown field {name!r}") from None

    def has_field(self, name: str) -> bool:
        return name in self._by_name

    def offset(self, name: str) -> int:
        """Index of the field's most significant bit in the variable order."""
        self.field(name)
        return self._offsets[name]

    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    #: Signature cells: at most this many variables (1,024 cells), of
    #: which the first field gives at most :data:`SIG_LEAD_BITS`.
    SIG_VARS = 10
    SIG_LEAD_BITS = 8

    @property
    def signature_vars(self) -> Tuple[int, ...]:
        """The variables a predicate's cofactor signature is taken over.

        The first field's top :data:`SIG_LEAD_BITS` bits, then the top
        bits of the following fields in order, up to :data:`SIG_VARS`
        variables: ``dst`` 8 × ``src`` 2 on ``dst_src_layout(12, 6)``.
        A one-field layout gets its top 8 bits, the engine's default
        (:meth:`~repro.bdd.predicate.PredicateEngine.signature`).  Every
        engine whose signatures are compared with one another must be
        built with the same tuple.
        """
        out: List[int] = []
        for f in self.fields:
            room = self.SIG_VARS - len(out)
            if not out:
                room = min(room, self.SIG_LEAD_BITS)
            base = self._offsets[f.name]
            out.extend(range(base, base + min(f.width, room)))
        return tuple(out)

    # ------------------------------------------------------------------
    # Flattened-integer view (Delta-net*)
    # ------------------------------------------------------------------
    @property
    def universe_size(self) -> int:
        return 1 << self.total_bits

    def flatten(self, values: Dict[str, int]) -> int:
        """Concatenate per-field values into one header integer.

        Missing fields default to 0.
        """
        header = 0
        for f in self.fields:
            value = values.get(f.name, 0)
            if not 0 <= value <= f.max_value:
                raise HeaderSpaceError(
                    f"value {value} out of range for field {f.name!r}"
                )
            header = (header << f.width) | value
        return header

    def unflatten(self, header: int) -> Dict[str, int]:
        """Split a flattened header integer back into per-field values."""
        if not 0 <= header < self.universe_size:
            raise HeaderSpaceError(f"header {header} outside the universe")
        values: Dict[str, int] = {}
        for f in reversed(self.fields):
            values[f.name] = header & f.max_value
            header >>= f.width
        return dict(reversed(list(values.items())))

    def bits_of(self, name: str, value: int) -> List[Tuple[int, bool]]:
        """``(variable, bit)`` literals for an exact field value, MSB first."""
        f = self.field(name)
        base = self._offsets[name]
        return [
            (base + i, bool((value >> (f.width - 1 - i)) & 1))
            for i in range(f.width)
        ]

    def __repr__(self) -> str:
        spec = ", ".join(f"{f.name}:{f.width}" for f in self.fields)
        return f"HeaderLayout({spec})"


def dst_only_layout(width: int = 16) -> HeaderLayout:
    """Common layout: a single destination-address field."""
    return HeaderLayout([("dst", width)])


def dst_src_layout(dst_width: int = 16, src_width: int = 8) -> HeaderLayout:
    """Layout for two-field rules such as LNet-ecmp's source-match ECMP."""
    return HeaderLayout([("dst", dst_width), ("src", src_width)])


def five_tuple_layout(addr_width: int = 16) -> HeaderLayout:
    """A reduced five-tuple layout for richer policies (HTTP example, Fig 2)."""
    return HeaderLayout(
        [
            ("dst", addr_width),
            ("src", addr_width),
            ("proto", 2),
            ("dport", 8),
        ]
    )
