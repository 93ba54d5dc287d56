"""Tests for the FIB generators and the rule index / subspace helpers."""

import pytest

from repro.core.rule_index import RuleIndex, matches_intersect, patterns_intersect
from repro.core.subspace import SubspacePartition
from repro.dataplane.rule import DROP, Rule, next_hops_of
from repro.dataplane.update import insert
from repro.errors import HeaderSpaceError
from repro.fibgen.addressing import assign_rack_prefixes, rack_destinations
from repro.fibgen.ecmp import std_fib_ecmp
from repro.fibgen.planning import pod_addition_scenario
from repro.fibgen.shortest_path import std_fib
from repro.fibgen.suffix import std_fib_suffix
from repro.headerspace.fields import dst_only_layout, dst_src_layout
from repro.headerspace.match import Match, MatchCompiler, Pattern
from repro.bdd.predicate import PredicateEngine
from repro.network.generators import fabric, fat_tree, line


def small_fabric():
    return fabric(pods=2, tors_per_pod=2, fabrics_per_pod=2, spines_per_plane=1)


class TestAddressing:
    def test_assignment_density(self):
        topo = small_fabric()
        layout = dst_only_layout(8)
        racks = rack_destinations(topo)
        assignments = assign_rack_prefixes(topo, layout, racks)
        assert len(assignments) == 4
        assert all(a.length == 2 for a in assignments)
        values = [a.value for a in assignments]
        assert len(set(values)) == len(values)

    def test_prefix_label_attached(self):
        topo = small_fabric()
        layout = dst_only_layout(8)
        assignments = assign_rack_prefixes(topo, layout, rack_destinations(topo))
        rack = assignments[0].device
        assert topo.device(rack).label("prefixes") == [(assignments[0].value, 2)]

    def test_too_many_destinations(self):
        topo = fabric(pods=3, tors_per_pod=4, fabrics_per_pod=2, spines_per_plane=1)
        with pytest.raises(HeaderSpaceError):
            assign_rack_prefixes(topo, dst_only_layout(3), rack_destinations(topo))


def _walk(topo, fibs, layout, start, dst_values, max_hops=20):
    """Follow FIB next hops from start for the given header values."""
    from repro.dataplane.fib import FibTable

    tables = {}
    for device, rules in fibs.items():
        t = FibTable()
        for r in rules:
            t.insert(r)
        tables[device] = t
    current = start
    for _ in range(max_hops):
        if current not in tables:  # reached an external/rack node
            return current
        action = tables[current].lookup(dst_values)
        hops = next_hops_of(action)
        if not hops:
            return None
        current = hops[0]
    return None


class TestStdFib:
    def test_all_pairs_reach_destination(self):
        topo = small_fabric()
        layout = dst_only_layout(8)
        fibs = std_fib(topo, layout)
        for rack in topo.externals():
            value, length = topo.device(rack).label("prefixes")[0]
            header = {"dst": value}
            for switch in topo.switches():
                arrived = _walk(topo, fibs, layout, switch, header)
                assert arrived == rack, (
                    f"{topo.name_of(switch)} -> dst {value}: got {arrived}"
                )

    def test_rule_counts(self):
        topo = small_fabric()
        fibs = std_fib(topo, dst_only_layout(8))
        # Every switch can reach every one of 4 prefixes.
        assert all(len(rs) == 4 for rs in fibs.values())

    def test_line_topology(self):
        topo = line(3)
        host = topo.add_external("h")
        topo.add_link(2, host)
        fibs = std_fib(topo, dst_only_layout(4))
        assert _walk(topo, fibs, dst_only_layout(4), 0, {"dst": 0}) == host


class TestEcmpFib:
    def test_two_field_rules_present(self):
        topo = small_fabric()
        layout = dst_src_layout(8, 4)
        fibs = std_fib_ecmp(topo, layout, src_buckets=2)
        two_field = [
            r
            for rules in fibs.values()
            for r in rules
            if "src" in r.match.patterns
        ]
        assert two_field, "expected source-match ECMP rules"
        assert all(r.priority == 2 for r in two_field)

    def test_ecmp_spreads_across_hops(self):
        topo = small_fabric()
        layout = dst_src_layout(8, 4)
        fibs = std_fib_ecmp(topo, layout, src_buckets=2)
        # A ToR in pod 0 reaching a pod-1 prefix has 2 fabric uplinks.
        tor = topo.select(role="tor", pod=0)[0]
        spread = [
            r.action
            for r in fibs[tor]
            if "src" in r.match.patterns
        ]
        assert len(set(spread)) > 1

    def test_requires_src_field(self):
        topo = small_fabric()
        with pytest.raises(HeaderSpaceError):
            std_fib_ecmp(topo, dst_only_layout(8))


class TestSuffixFib:
    def test_suffix_rules_are_non_prefix(self):
        topo = small_fabric()
        layout = dst_only_layout(8)
        fibs = std_fib_suffix(topo, layout, suffix_bits=2)
        ternaries = [
            r.match.patterns["dst"].ternaries[0]
            for rules in fibs.values()
            for r in rules
            if r.priority == 2
        ]
        assert ternaries
        # Wildcard gap between prefix and suffix bits: mask is non-contiguous.
        def contiguous(mask):
            if mask == 0:
                return True
            shifted = mask >> ((mask & -mask).bit_length() - 1)
            return (shifted & (shifted + 1)) == 0

        assert any(not contiguous(m) for _, m in ternaries)

    def test_delivery_still_correct(self):
        topo = small_fabric()
        layout = dst_only_layout(8)
        fibs = std_fib_suffix(topo, layout, suffix_bits=1)
        for rack in topo.externals():
            value, length = topo.device(rack).label("prefixes")[0]
            for suffix in (0, 1):
                arrived = _walk(topo, fibs, layout, 0, {"dst": value | suffix})
                assert arrived == rack


@pytest.mark.parametrize(
    "generate, layout",
    [
        (std_fib, dst_only_layout(8)),
        (std_fib_ecmp, dst_src_layout(8, 4)),
        (std_fib_suffix, dst_only_layout(8)),
    ],
)
def test_one_match_object_per_distinct_match(generate, layout):
    """Switches share a match's object, so a compile cache hit is an ``is``."""
    fibs = generate(small_fabric(), layout)
    matches = [r.match for rules in fibs.values() for r in rules]
    assert len({id(m) for m in matches}) == len(set(matches)) < len(matches)


class TestPlanning:
    def test_small_pod_addition(self):
        scenario = pod_addition_scenario(k=4, prefixes_per_pod=2, dst_width=10)
        assert scenario.num_updates > 0
        # All updates are insertions of rules for the new pod's prefixes or
        # re-routes; the new FIB is strictly larger.
        assert scenario.total_rules_after > sum(
            len(rs) for rs in scenario.before.values()
        )

    def test_updates_transform_before_into_after(self):
        scenario = pod_addition_scenario(k=4, prefixes_per_pod=1, dst_width=10)
        state = {d: set(rs) for d, rs in scenario.before.items()}
        for u in scenario.updates:
            bucket = state.setdefault(u.device, set())
            if u.is_insert:
                bucket.add(u.rule)
            else:
                bucket.remove(u.rule)
        expected = {d: set(rs) for d, rs in scenario.after.items()}
        for device in expected:
            assert state.get(device, set()) == expected[device]

    def test_scale_grows_with_k(self):
        small = pod_addition_scenario(k=4, prefixes_per_pod=2, dst_width=12)
        large = pod_addition_scenario(k=6, prefixes_per_pod=2, dst_width=12)
        assert large.total_rules_after > small.total_rules_after


LAYOUT = dst_only_layout(8)


def prefix_rule(pri, value, length, action=1):
    return Rule(pri, Match.dst_prefix(value, length, LAYOUT), action)


class TestPatternsIntersect:
    def test_nested_prefixes(self):
        a = Pattern.prefix(0b10000000, 1, 8)
        b = Pattern.prefix(0b10100000, 3, 8)
        assert patterns_intersect(a, b)

    def test_disjoint_prefixes(self):
        a = Pattern.prefix(0b00000000, 1, 8)
        b = Pattern.prefix(0b10000000, 1, 8)
        assert not patterns_intersect(a, b)

    def test_suffix_vs_prefix(self):
        suffix = Pattern.suffix(0b1, 1, 8)
        prefix = Pattern.prefix(0b10000000, 4, 8)
        assert patterns_intersect(suffix, prefix)

    def test_matches_intersect_disjoint_field(self):
        layout = dst_src_layout(4, 4)
        a = Match({"dst": Pattern.prefix(0b0000, 2, 4)})
        b = Match({"dst": Pattern.prefix(0b1000, 2, 4)})
        assert not matches_intersect(a, b)
        c = Match({"src": Pattern.prefix(0b1000, 2, 4)})
        assert matches_intersect(a, c)  # different fields never conflict


class TestRuleIndex:
    def test_add_remove_len(self):
        index = RuleIndex(LAYOUT)
        r = prefix_rule(1, 0x80, 1)
        index.add(r)
        assert len(index) == 1
        index.remove(r)
        assert len(index) == 0

    def test_remove_missing_raises(self):
        index = RuleIndex(LAYOUT)
        with pytest.raises(KeyError):
            index.remove(prefix_rule(1, 0x80, 4))

    def test_overlapping_exact(self):
        index = RuleIndex(LAYOUT)
        inside = prefix_rule(1, 0b10100000, 3)
        outside = prefix_rule(1, 0b01000000, 2)
        coarse = prefix_rule(1, 0b10000000, 1)
        for r in (inside, outside, coarse):
            index.add(r)
        found = index.overlapping(Match.dst_prefix(0b10100000, 4, LAYOUT))
        assert inside in found and coarse in found and outside not in found

    def test_overlapping_matches_bruteforce(self):
        import random

        rng = random.Random(7)
        index = RuleIndex(LAYOUT)
        rules = []
        for i in range(60):
            if rng.random() < 0.7:
                length = rng.randint(0, 8)
                value = rng.randrange(256) & (
                    ((1 << length) - 1) << (8 - length) if length else 0
                )
                match = Match.dst_prefix(value, length, LAYOUT)
            else:
                match = Match(
                    {"dst": Pattern.suffix(rng.randrange(256), rng.randint(0, 4), 8)}
                )
            r = Rule(rng.randint(0, 5), match, i)
            rules.append(r)
            index.add(r)
        for _ in range(30):
            length = rng.randint(0, 8)
            value = rng.randrange(256)
            query = Match.dst_prefix(value, length, LAYOUT)
            expected = {r for r in rules if matches_intersect(query, r.match)}
            assert set(index.overlapping(query)) == expected


class TestSubspacePartition:
    def _partition(self):
        return SubspacePartition.dst_prefix_partition(
            LAYOUT, [(0x00, 2), (0x40, 2), (0x80, 2), (0xC0, 2)]
        )

    def test_exhaustive(self):
        """The four /2 subspaces are a quarter of the header space each
        and together cover all of it."""
        partition = self._partition()
        compiler = MatchCompiler(PredicateEngine(LAYOUT.total_bits), LAYOUT)
        union = compiler.engine.false
        for s in partition.subspaces:
            universe = compiler.compile(s.match)
            assert universe.sat_count() == 64
            union = union | universe
        assert union.is_true

    def test_route_updates(self):
        partition = self._partition()
        u1 = insert(0, prefix_rule(1, 0x00, 2))
        u2 = insert(0, prefix_rule(1, 0x80, 1))  # spans subspaces 2 and 3
        routed = partition.route_updates([u1, u2])
        assert routed[0] == [u1]
        assert routed[1] == []
        assert routed[2] == [u2]
        assert routed[3] == [u2]

    def test_wildcard_goes_everywhere(self):
        partition = self._partition()
        u = insert(0, Rule(1, Match.wildcard(), 1))
        routed = partition.route_updates([u])
        assert all(routed[i] == [u] for i in range(4))

    def _overlapping(self, layout):
        """Overlapping subspaces over two fields, one of them everything."""
        return SubspacePartition.from_matches(
            layout,
            [
                ("low", Match.dst_prefix(0, 1, layout)),
                ("mid", Match({"dst": Pattern.range(20, 47, 6)})),
                ("src3", Match.exact(layout, src=3)),
                ("all", Match.wildcard()),
                ("odd", Match({"dst": Pattern.suffix(1, 1, 6)})),
            ],
        )

    @staticmethod
    def _random_match(rng, layout):
        """Prefix, ternary, multi-ternary range, two-field or wildcard,
        built afresh so equal matches are rarely the same object."""
        kind = rng.randrange(5)
        if kind == 0:
            return Match.dst_prefix(rng.randrange(64), rng.randint(0, 6), layout)
        if kind == 1:
            value, mask = rng.randrange(64), rng.randrange(64)
            return Match({"dst": Pattern.ternary(value, mask, 6)})
        if kind == 2:
            lo = rng.randrange(64)
            return Match({"dst": Pattern.range(lo, rng.randint(lo, 63), 6)})
        if kind == 3:
            return Match(
                {
                    "dst": Pattern.prefix(rng.randrange(64), rng.randint(1, 3), 6),
                    "src": Pattern.exact(rng.randrange(4), 4),
                }
            )
        return Match.wildcard()

    @pytest.mark.parametrize("seed", range(3))
    def test_routing_equals_the_brute_force_filter(self, seed):
        import random

        layout = dst_src_layout(6, 4)
        partition = self._overlapping(layout)
        rng = random.Random(seed)
        pool = [self._random_match(rng, layout) for _ in range(12)]
        for _ in range(3):  # later calls answer from the memo
            updates = [
                insert(rng.randrange(4), Rule(1, rng.choice(pool), i))
                for i in range(60)
            ]
            routed = partition.route_updates(updates)
            assert list(routed) == [s.index for s in partition]
            for s in partition:
                assert routed[s.index] == [
                    u for u in updates if matches_intersect(s.match, u.rule.match)
                ]

    def test_routing_memo_stays_within_its_bound(self, monkeypatch):
        import random

        monkeypatch.setattr(MatchCompiler, "DEFAULT_MAX_ENTRIES", 16)
        layout = dst_src_layout(6, 4)
        partition = self._overlapping(layout)
        rng = random.Random(7)
        for _ in range(10):
            updates = [
                insert(0, Rule(1, Match.dst_prefix(rng.randrange(64), 6, layout), 1))
                for _ in range(8)
            ]  # 80 matches, most of them distinct
            routed = partition.route_updates(updates)
            assert len(partition._targets) <= 16
            for s in partition:
                assert routed[s.index] == [
                    u for u in updates if matches_intersect(s.match, u.rule.match)
                ]

    def test_universe_of(self):
        """A subspace's universe is its match compiled: a /2 is 64 headers."""
        partition = self._partition()
        compiler = MatchCompiler(PredicateEngine(LAYOUT.total_bits), LAYOUT)
        universe = compiler.compile(partition.subspaces[0].match)
        assert universe.sat_count() == 64
