"""Conflict-free inverse-model overwrite operators (§3.2, Definitions 9/14).

An overwrite ``(Δp, Δy)`` moves the header space selected by ``Δp`` to new
equivalence classes obtained by overwriting the actions in ``Δy``.  Atomic
overwrites change the action of a single device; MR2's reduce operators
compose atomic overwrites into compact ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..bdd.predicate import Predicate
from ..dataplane.rule import Action
from ..errors import OverwriteConflictError

ActionDelta = Tuple[Tuple[int, Action], ...]  # sorted ((device, action), ...)


def make_delta(assignments: Dict[int, Action]) -> ActionDelta:
    """Canonicalise a device→action mapping into a hashable delta."""
    return tuple(sorted(assignments.items()))


@dataclass(frozen=True)
class Overwrite:
    """A conflict-free overwrite operator ``(Δp, Δy)``."""

    predicate: Predicate
    delta: ActionDelta

    @property
    def is_noop(self) -> bool:
        return not self.delta

    def delta_dict(self) -> Dict[int, Action]:
        return dict(self.delta)

    def devices(self) -> Tuple[int, ...]:
        return tuple(d for d, _ in self.delta)

    def conflicts_with(self, other: "Overwrite") -> bool:
        """§3.2: conflict iff predicates intersect and the two deltas write
        different actions at the same device."""
        mine = dict(self.delta)
        for device, action in other.delta:
            if device in mine and mine[device] != action:
                if self.predicate.intersects(other.predicate):
                    return True
        return False

    def __repr__(self) -> str:
        delta = ", ".join(f"y{d}={a!r}" for d, a in self.delta)
        return f"Overwrite({self.predicate!r}, {{{delta}}})"


def atomic(predicate: Predicate, device: int, action: Action) -> Overwrite:
    return Overwrite(predicate, ((device, action),))


def check_conflict_free(overwrites: Iterable[Overwrite]) -> None:
    """Raise if any pair of overwrites conflicts (quadratic; for tests)."""
    items: List[Overwrite] = list(overwrites)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if a.conflicts_with(b):
                raise OverwriteConflictError(f"{a!r} conflicts with {b!r}")
