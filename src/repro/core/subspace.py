"""Input-space partition (§3.4) — per-subspace verifiers.

Partitioning the header space (e.g. one subspace per pod's destination
prefixes in LNet) shrinks both the inverse model each verifier maintains and
the set of rules it must consider.  ``Flash(partition=)`` runs one model
writer per subspace, all in one process.  A :class:`SubspacePartition`
owns the defining matches; its :meth:`~SubspacePartition.route_updates`
fans an update stream out to the subspaces a rule can affect, using the
cheap ternary intersection test (no BDD ops) once per distinct match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..dataplane.update import RuleUpdate
from ..errors import HeaderSpaceError
from ..headerspace.fields import HeaderLayout
from ..headerspace.match import Match, MatchCompiler
from .rule_index import matches_intersect


@dataclass(frozen=True)
class Subspace:
    """One header subspace, defined structurally by a match."""

    index: int
    name: str
    match: Match


class SubspacePartition:
    """A (not necessarily exhaustive) partition of the header space."""

    def __init__(self, layout: HeaderLayout, subspaces: Sequence[Subspace]) -> None:
        self.layout = layout
        self.subspaces = list(subspaces)
        if len({s.index for s in self.subspaces}) != len(self.subspaces):
            raise HeaderSpaceError("duplicate subspace indexes")
        # Rule match -> positions (in ``subspaces``) of the subspaces it
        # overlaps.  Keyed on the match itself: an ``id()`` is reused
        # once its object is collected.
        self._targets: Dict[Match, Tuple[int, ...]] = {}

    @classmethod
    def from_matches(
        cls, layout: HeaderLayout, matches: Sequence[Tuple[str, Match]]
    ) -> "SubspacePartition":
        return cls(
            layout,
            [Subspace(i, name, m) for i, (name, m) in enumerate(matches)],
        )

    @classmethod
    def dst_prefix_partition(
        cls,
        layout: HeaderLayout,
        prefixes: Sequence[Tuple[int, int]],
        names: Sequence[str] = (),
    ) -> "SubspacePartition":
        """Partition by destination prefixes given as (value, length)."""
        width = layout.field("dst").width
        matches = []
        for i, (value, length) in enumerate(prefixes):
            name = names[i] if i < len(names) else f"sub{i}"
            matches.append((name, Match.dst_prefix(value, length, layout)))
        return cls.from_matches(layout, matches)

    def __len__(self) -> int:
        return len(self.subspaces)

    def __iter__(self):
        return iter(self.subspaces)

    def route_updates(
        self, updates: Iterable[RuleUpdate]
    ) -> Dict[int, List[RuleUpdate]]:
        """Fan updates out per subspace index, keeping their order.

        Each distinct match is tested against the subspaces once; the
        memo is wiped wholesale when it outgrows the match compiler's
        default bound, so a stream of ever-new matches cannot grow it.
        """
        routed: Dict[int, List[RuleUpdate]] = {s.index: [] for s in self.subspaces}
        batches = list(routed.values())
        targets = self._targets
        for u in updates:
            match = u.rule.match
            hit = targets.get(match)
            if hit is None:
                if len(targets) >= MatchCompiler.DEFAULT_MAX_ENTRIES:
                    targets.clear()
                hit = targets[match] = tuple(
                    i
                    for i, s in enumerate(self.subspaces)
                    if matches_intersect(s.match, match)
                )
            for i in hit:
                batches[i].append(u)
        return routed
