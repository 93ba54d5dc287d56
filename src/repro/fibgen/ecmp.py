"""StdFIB* generation (Table 2, LNet-ecmp): source-match ECMP.

The LNet-ecmp data plane extends StdFIB with *source-match ECMP*: where a
switch has several equal-cost next hops toward a prefix, it installs one
higher-priority rule per source-prefix bucket, hashing flows to paths by
source address.  These rules match on two fields (dst prefix AND src
prefix), which is precisely the non-prefix structure that degrades the
interval representation of Delta-net* (Table 3's LNet-ecmp row).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..dataplane.rule import Rule
from ..errors import HeaderSpaceError
from ..headerspace.fields import HeaderLayout
from ..headerspace.match import Match, Pattern
from ..network.topology import Topology
from .addressing import PrefixAssignment, assign_rack_prefixes, rack_destinations


def source_match_ecmp_fib(
    topology: Topology,
    layout: HeaderLayout,
    assignments: Sequence[PrefixAssignment],
    src_buckets: int = 4,
    base_priority: int = 1,
) -> Dict[int, List[Rule]]:
    """StdFIB plus per-source-bucket ECMP spreading rules.

    Every switch installs a base shortest-path rule per prefix; where it has
    k > 1 equal-cost next hops it adds ``src_buckets`` two-field rules at a
    higher priority, assigning source bucket ``b`` to next hop ``b mod k``.
    """
    if "src" not in layout.field_names():
        raise HeaderSpaceError("source-match ECMP needs a 'src' field")
    src_width = layout.field("src").width
    bucket_bits = max(1, (src_buckets - 1).bit_length())
    if bucket_bits > src_width:
        raise HeaderSpaceError("too many source buckets for the src field")

    src_patterns = [
        Pattern.prefix(bucket << (src_width - bucket_bits), bucket_bits, src_width)
        for bucket in range(src_buckets)
    ]
    rules: Dict[int, List[Rule]] = {s: [] for s in topology.switches()}
    for assignment in assignments:
        next_hops = topology.shortest_path_tree(assignment.device)
        dst_pattern = Pattern.prefix(
            assignment.value, assignment.length, layout.field("dst").width
        )
        # One Match per distinct match, shared by every switch's rule.
        base_match = Match({"dst": dst_pattern})
        bucket_matches = [
            Match({"dst": dst_pattern, "src": src_pattern})
            for src_pattern in src_patterns
        ]
        for switch in topology.switches():
            hops = next_hops.get(switch)
            if not hops:
                continue
            rules[switch].append(Rule(base_priority, base_match, hops[0]))
            if len(hops) > 1:
                for bucket, match in enumerate(bucket_matches):
                    action = hops[bucket % len(hops)]
                    rules[switch].append(
                        Rule(base_priority + 1, match, action)
                    )
    return rules


def std_fib_ecmp(
    topology: Topology, layout: HeaderLayout, src_buckets: int = 4
) -> Dict[int, List[Rule]]:
    assignments = assign_rack_prefixes(
        topology, layout, rack_destinations(topology)
    )
    return source_match_ecmp_fib(
        topology, layout, assignments, src_buckets=src_buckets
    )
