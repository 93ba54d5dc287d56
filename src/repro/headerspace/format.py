"""Human-readable rendering of header-space predicates.

Turns a BDD predicate back into per-field ternary strings (the inverse of
match compilation) so operators can read verification output — e.g. a
blackhole's header space prints as ``dst=10?? src=****`` instead of a BDD
node id.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from ..bdd.predicate import Predicate
from .fields import HeaderLayout


def cube_to_fields(
    cube: Dict[int, bool], layout: HeaderLayout
) -> Dict[str, str]:
    """One BDD cube (variable → bit) as per-field ternary strings."""
    out: Dict[str, str] = {}
    for field in layout.fields:
        base = layout.offset(field.name)
        chars = []
        for i in range(field.width):
            bit = cube.get(base + i)
            chars.append("?" if bit is None else ("1" if bit else "0"))
        out[field.name] = "".join(chars)
    return out


def iter_predicate_cubes(
    pred: Predicate, layout: HeaderLayout, limit: int = 64
) -> Iterator[Dict[str, str]]:
    """The predicate's DNF cover as per-field ternary strings (capped)."""
    for count, cube in enumerate(pred.engine.bdd.iter_cubes(pred.node)):
        if count >= limit:
            return
        yield cube_to_fields(cube, layout)


def format_predicate(
    pred: Predicate, layout: HeaderLayout, limit: int = 8
) -> str:
    """A compact one-line rendering, e.g. ``dst=10??|dst=0001``."""
    if pred.is_false:
        return "⊥"
    if pred.is_true:
        return "*"
    parts: List[str] = []
    truncated = False
    for i, fields in enumerate(iter_predicate_cubes(pred, layout, limit + 1)):
        if i >= limit:
            truncated = True
            break
        interesting = [
            f"{name}={bits}" for name, bits in fields.items() if "?" not in bits
            or bits.strip("?")
        ]
        parts.append(" ".join(interesting) if interesting else "*")
    body = " | ".join(parts)
    return body + (" | ..." if truncated else "")
