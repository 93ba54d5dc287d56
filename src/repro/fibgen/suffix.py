"""Suffix-match routing generation (Table 2, LNet-smr).

LNet-smr is "StdFIB* with suffix match routing": switches with multiple
uplinks spread traffic by matching the *low-order* bits of the destination
address (the host suffix), a common trick in Clos fabrics for deterministic
ECMP.  Suffix matches put wildcards in the high bits — the degenerate case
for interval-based representations (one rule explodes into 2^(high bits)
intervals), reproducing the LNet-smr rows of Table 3 and Figure 6 where
Delta-net* loses badly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..dataplane.rule import Rule
from ..headerspace.fields import HeaderLayout
from ..headerspace.match import Match, Pattern
from ..network.topology import Topology
from .addressing import PrefixAssignment, assign_rack_prefixes, rack_destinations


def suffix_match_fib(
    topology: Topology,
    layout: HeaderLayout,
    assignments: Sequence[PrefixAssignment],
    suffix_bits: int = 2,
    base_priority: int = 1,
) -> Dict[int, List[Rule]]:
    """StdFIB plus suffix-match spreading rules.

    Where a switch has k > 1 equal-cost next hops toward a prefix, it adds
    one rule per suffix value at a higher priority: destination suffix ``s``
    goes to next hop ``s mod k``.  The spreading rules combine a dst-prefix
    pattern with a dst-suffix pattern — a single ternary with both leading
    and trailing cared bits and wildcards in between.
    """
    width = layout.field("dst").width
    rules: Dict[int, List[Rule]] = {s: [] for s in topology.switches()}
    for assignment in assignments:
        next_hops = topology.shortest_path_tree(assignment.device)
        prefix_mask = (
            ((1 << assignment.length) - 1) << (width - assignment.length)
            if assignment.length
            else 0
        )
        # One Match per distinct match, shared by every switch's rule.
        base = Match(
            {"dst": Pattern.prefix(assignment.value, assignment.length, width)}
        )
        usable = min(suffix_bits, max(0, width - assignment.length))
        mask = prefix_mask | ((1 << usable) - 1)
        suffix_matches = [
            Match({"dst": Pattern.ternary(assignment.value | suffix, mask, width)})
            for suffix in range(1 << usable)
        ]
        for switch in topology.switches():
            hops = next_hops.get(switch)
            if not hops:
                continue
            rules[switch].append(Rule(base_priority, base, hops[0]))
            if len(hops) > 1:
                for suffix, match in enumerate(suffix_matches):
                    rules[switch].append(
                        Rule(base_priority + 1, match, hops[suffix % len(hops)])
                    )
    return rules


def std_fib_suffix(
    topology: Topology, layout: HeaderLayout, suffix_bits: int = 2
) -> Dict[int, List[Rule]]:
    assignments = assign_rack_prefixes(
        topology, layout, rack_destinations(topology)
    )
    return suffix_match_fib(
        topology, layout, assignments, suffix_bits=suffix_bits
    )
