"""Fast look-up for overlapped rules (§3.4) — a multi-dimension prefix trie.

Computing an atomic overwrite needs the rules whose match overlaps the
updated rule's match.  For LPM-style data planes the overlap set is tiny
compared to the table, so APKeep* indexes rules in a prefix trie keyed by
the cared bits of each field (in layout order) and falls back to a bucket
at the first wildcard bit.  Candidates from the trie are confirmed with an
exact ternary intersection test, so non-prefix (suffix/ternary) rules are
fully supported — they just index shallowly.  Flash keeps no index: its
Map scans the sorted table and skips what cannot overlap
(``repro.core.imt._carve``), with :func:`matches_intersect` for a
single insert.
"""

from __future__ import annotations

from typing import Dict, List

from ..dataplane.rule import Rule
from ..headerspace.fields import HeaderLayout
from ..headerspace.match import Match, Pattern


def patterns_intersect(a: Pattern, b: Pattern) -> bool:
    """Whether two single-field patterns share any value."""
    return any(
        (va ^ vb) & ma & mb == 0
        for va, ma in a.ternaries
        for vb, mb in b.ternaries
    )


def matches_intersect(a: Match, b: Match) -> bool:
    """Whether two matches overlap (per-field ternary test; no BDD ops)."""
    for field, pattern in a.patterns.items():
        other = b.patterns.get(field)
        if other is not None and not patterns_intersect(pattern, other):
            return False
    return True


class _TrieNode:
    __slots__ = ("children", "bucket")

    def __init__(self) -> None:
        self.children: Dict[int, "_TrieNode"] = {}
        self.bucket: List[Rule] = []


class RuleIndex:
    """Indexes one device's rules for fast overlapped-rule queries."""

    def __init__(self, layout: HeaderLayout, max_depth: int = 64) -> None:
        self.layout = layout
        self.max_depth = max_depth
        self._root = _TrieNode()
        self._size = 0

    # -- key derivation ----------------------------------------------------
    def _index_bits(self, match: Match) -> List[int]:
        """The trie path: cared bits of each field, MSB first, stopping at
        the first wildcard bit (prefix-style indexing)."""
        bits: List[int] = []
        for field in self.layout.fields:
            pattern = match.patterns.get(field.name)
            if pattern is None or len(pattern.ternaries) != 1:
                break  # wildcard or alternation: stop indexing here
            value, mask = pattern.ternaries[0]
            stopped = False
            for i in range(field.width - 1, -1, -1):  # MSB first
                bit = 1 << i
                if not mask & bit:
                    stopped = True
                    break
                bits.append(1 if value & bit else 0)
                if len(bits) >= self.max_depth:
                    return bits
            if stopped:
                break
        return bits

    # -- mutation -------------------------------------------------------------
    def add(self, rule: Rule) -> None:
        node = self._root
        for bit in self._index_bits(rule.match):
            node = node.children.setdefault(bit, _TrieNode())
        node.bucket.append(rule)
        self._size += 1

    def remove(self, rule: Rule) -> None:
        node = self._root
        for bit in self._index_bits(rule.match):
            child = node.children.get(bit)
            if child is None:
                raise KeyError(f"rule not indexed: {rule!r}")
            node = child
        node.bucket.remove(rule)
        self._size -= 1

    def __len__(self) -> int:
        return self._size

    # -- queries ---------------------------------------------------------------
    def overlapping(self, match: Match) -> List[Rule]:
        """Rules whose match intersects ``match``.

        Collects buckets along the query's path (coarser rules) plus the
        whole subtree under the query's stop point (finer rules), then
        confirms with the exact intersection test.
        """
        candidates: List[Rule] = []
        node = self._root
        candidates.extend(node.bucket)
        for bit in self._index_bits(match):
            node = node.children.get(bit)
            if node is None:
                node = None
                break
            candidates.extend(node.bucket)
        if node is not None:
            stack = [child for child in node.children.values()]
            while stack:
                sub = stack.pop()
                candidates.extend(sub.bucket)
                stack.extend(sub.children.values())
        return [r for r in candidates if matches_intersect(match, r.match)]
