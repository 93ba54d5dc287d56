"""Tests for rules, FIB tables, updates and traces."""

import pytest

from repro.dataplane.fib import FibSnapshot, FibTable
from repro.dataplane.rule import (
    DEFAULT_PRIORITY,
    DROP,
    Rule,
    default_rule,
    ecmp,
    next_hops_of,
)
from repro.dataplane.trace import (
    insert_then_delete,
    inserts_only,
    read_trace,
    shuffled,
    update_to_json,
    update_from_json,
    write_trace,
)
from repro.dataplane.update import (
    RuleUpdate,
    UpdateBlock,
    UpdateOp,
    apply_updates,
    delete,
    insert,
)
from repro.errors import DataPlaneError, RuleNotFoundError
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match

LAYOUT = dst_only_layout(4)


def rule(pri, value, length, action):
    return Rule(pri, Match.dst_prefix(value, length, LAYOUT), action)


class TestActions:
    def test_next_hops(self):
        assert next_hops_of(DROP) == ()
        assert next_hops_of(3) == (3,)
        assert next_hops_of((1, 2)) == (1, 2)
        assert next_hops_of(None) == ()

    def test_ecmp_canonicalisation(self):
        assert ecmp(3, 1, 3) == (1, 3)
        assert ecmp(5) == 5
        assert ecmp() == DROP

    def test_bad_action(self):
        with pytest.raises(TypeError):
            next_hops_of(3.5)


class TestRule:
    def test_default_rule(self):
        d = default_rule()
        assert d.is_default
        assert d.priority == DEFAULT_PRIORITY
        assert d.match.is_wildcard

    def test_priority_floor(self):
        with pytest.raises(ValueError):
            Rule(-2, Match.wildcard(), DROP)


class TestFibTable:
    def test_lookup_priority(self):
        t = FibTable()
        t.insert(rule(1, 0, 0, 10))          # catch-all at pri 1
        t.insert(rule(2, 0b1000, 1, 20))     # dst 1??? at pri 2
        assert t.lookup({"dst": 0b1010}) == 20
        assert t.lookup({"dst": 0b0010}) == 10

    def test_default_action(self):
        t = FibTable()
        assert t.lookup({"dst": 7}) == DROP
        t2 = FibTable(default_action=99)
        assert t2.lookup({"dst": 7}) == 99

    def test_equal_priority_earlier_wins(self):
        t = FibTable()
        first = rule(5, 0b1000, 1, 1)
        second = rule(5, 0b1000, 1, 2)
        t.insert(first)
        t.insert(second)
        assert t.lookup({"dst": 0b1000}) == 1

    def test_rules_sorted_descending(self):
        t = FibTable()
        for pri in [3, 1, 5, 2]:
            t.insert(rule(pri, 0, 0, pri))
        priorities = [r.priority for r in t.rules()]
        assert priorities == [5, 3, 2, 1, DEFAULT_PRIORITY]

    def test_delete(self):
        t = FibTable()
        r = rule(2, 0b1000, 2, 7)
        t.insert(r)
        assert len(t) == 1
        t.delete(rule(2, 0b1000, 2, 7))
        assert len(t) == 0

    def test_delete_missing_raises(self):
        t = FibTable()
        with pytest.raises(RuleNotFoundError):
            t.delete(rule(2, 0, 0, 7))

    def test_delete_among_equal_priority(self):
        t = FibTable()
        a, b = rule(2, 0b0000, 2, 1), rule(2, 0b0100, 2, 2)
        t.insert(a)
        t.insert(b)
        t.delete(a)
        assert t.rules(include_default=False) == [b]

    def test_default_rule_protected(self):
        t = FibTable()
        with pytest.raises(DataPlaneError):
            t.delete(default_rule())
        with pytest.raises(DataPlaneError):
            t.insert(default_rule())

    def test_copy_is_independent(self):
        t = FibTable()
        t.insert(rule(1, 0, 0, 1))
        c = t.copy()
        c.insert(rule(2, 0, 0, 2))
        assert len(t) == 1
        assert len(c) == 2

    def test_matching_rule(self):
        t = FibTable()
        r = rule(2, 0b1000, 1, 5)
        t.insert(r)
        assert t.matching_rule({"dst": 0b1100}) == r
        assert t.matching_rule({"dst": 0b0100}).is_default


class TestFibSnapshot:
    def test_behavior_vector(self):
        snap = FibSnapshot([0, 1])
        snap.table(0).insert(rule(1, 0b1000, 1, 1))
        behavior = snap.behavior({"dst": 0b1000})
        assert behavior == {0: 1, 1: DROP}

    def test_total_rules(self):
        snap = FibSnapshot([0, 1])
        snap.table(0).insert(rule(1, 0, 0, 1))
        snap.table(1).insert(rule(1, 0, 0, 1))
        assert snap.total_rules() == 2

    def test_unknown_device(self):
        snap = FibSnapshot([0])
        with pytest.raises(DataPlaneError):
            snap.table(5)

    def test_copy(self):
        snap = FibSnapshot([0])
        copy = snap.copy()
        copy.table(0).insert(rule(1, 0, 0, 1))
        assert snap.total_rules() == 0


class TestUpdates:
    def test_insert_delete_constructors(self):
        r = rule(1, 0, 0, 1)
        assert insert(0, r).is_insert
        assert delete(0, r).is_delete
        assert insert(0, r).inverse() == delete(0, r)

    def test_with_epoch(self):
        u = insert(0, rule(1, 0, 0, 1)).with_epoch("e1")
        assert u.epoch == "e1"

    def test_block_grouping(self):
        r = rule(1, 0, 0, 1)
        block = UpdateBlock([insert(0, r), insert(1, r), insert(0, rule(2, 0, 0, 2))])
        assert sorted(block.devices()) == [0, 1]
        assert len(block.updates_for(0)) == 2
        assert len(block) == 3

    def test_remove_cancelling_insert_then_delete(self):
        r = rule(1, 0, 0, 1)
        block = UpdateBlock([insert(0, r), delete(0, r)])
        assert block.remove_cancelling().is_empty()

    def test_remove_cancelling_delete_then_insert(self):
        r = rule(1, 0, 0, 1)
        block = UpdateBlock([delete(0, r), insert(0, r)])
        assert block.remove_cancelling().is_empty()

    def test_remove_cancelling_keeps_net_effect(self):
        r = rule(1, 0, 0, 1)
        block = UpdateBlock([insert(0, r), delete(0, r), insert(0, r)])
        net = block.remove_cancelling()
        assert len(net) == 1
        assert next(iter(net)).is_insert

    def test_remove_cancelling_distinct_rules_untouched(self):
        block = UpdateBlock([insert(0, rule(1, 0, 0, 1)), delete(0, rule(2, 0, 0, 2))])
        assert len(block.remove_cancelling()) == 2


class TestTraces:
    def _rules(self):
        return {
            0: [rule(1, 0b0000, 2, 1), rule(2, 0b0100, 2, 2)],
            1: [rule(1, 0b1000, 2, 3)],
        }

    def test_insert_then_delete_layout(self):
        trace = insert_then_delete(self._rules())
        assert len(trace) == 6
        assert all(u.is_insert for u in trace[:3])
        assert all(u.is_delete for u in trace[3:])
        # Deletions occur in insertion order.
        assert [u.rule for u in trace[:3]] == [u.rule for u in trace[3:]]

    def test_inserts_only(self):
        trace = inserts_only(self._rules())
        assert len(trace) == 3
        assert all(u.is_insert for u in trace)

    def test_shuffled_deterministic(self):
        trace = insert_then_delete(self._rules())
        assert shuffled(trace, seed=1) == shuffled(trace, seed=1)
        assert shuffled(trace, seed=1) != shuffled(trace, seed=2)

    def test_json_roundtrip(self):
        u = insert(3, rule(2, 0b0100, 2, (1, 2)), epoch="e7")
        restored = update_from_json(update_to_json(u))
        assert restored == u

    def test_trace_file_roundtrip(self, tmp_path):
        trace = insert_then_delete(self._rules())
        path = str(tmp_path / "trace.jsonl")
        count = write_trace(path, trace)
        assert count == len(trace)
        assert list(read_trace(path)) == trace

    def test_read_trace_canonicalises_ecmp_actions(self, tmp_path):
        """One spelling per action: a withdrawal written ``[1,2]`` removes
        the rule installed as ``[2,1]``, and ``[3]`` is next hop 3."""
        head = '{"device":0,"priority":1,"match":{"dst":[[8,12]]}'
        path = tmp_path / "trace.jsonl"
        path.write_text(
            f'{head},"op":"insert","action":[2,1]}}\n'
            f'{head},"op":"delete","action":[1,2]}}\n'
            f'{head},"op":"insert","action":[3]}}\n'
        )
        installed, withdrawn, single = read_trace(str(path))
        assert installed.rule == withdrawn.rule
        assert installed.rule.action == (1, 2)
        assert single.rule.action == 3
        snapshot = FibSnapshot([0])
        apply_updates(snapshot, [installed, withdrawn, single])
        assert [r.action for r in snapshot.table(0).rules()] == [3, DROP]

    HEAD = '{"device":0,"priority":1,"action":1,'

    def _trace(self, tmp_path, *lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(f"{self.HEAD}{line}}}\n" for line in lines))
        return str(path)

    def test_read_trace_canonicalises_ternaries(self, tmp_path):
        """One spelling per header set: value bits outside the mask are
        dropped and a field's ternaries are sorted and deduplicated, so a
        rule installed as ``[[9,12]]`` is withdrawn as ``[[8,12]]``."""
        path = self._trace(
            tmp_path,
            '"op":"insert","match":{"dst":[[9,12]]}',
            '"op":"delete","match":{"dst":[[8,12]]}',
            '"op":"insert","match":{"dst":[[3,3],[8,12],[11,15],[8,12]]}',
        )
        installed, withdrawn, multi = read_trace(path)
        assert installed.rule == withdrawn.rule
        assert installed.rule.match.pattern("dst").ternaries == ((8, 12),)
        assert multi.rule.match.pattern("dst").ternaries == (
            (3, 3), (8, 12), (11, 15),
        )
        snapshot = FibSnapshot([0])
        apply_updates(snapshot, [installed, withdrawn])
        assert [r.action for r in snapshot.table(0).rules()] == [DROP]
        assert installed.rule.match.matches({"dst": 9})

    def test_read_trace_interns_equal_matches(self, tmp_path):
        path = self._trace(
            tmp_path,
            '"op":"insert","match":{"dst":[[8,12]],"src":[[1,1]]}',
            '"op":"insert","match":{"src":[[1,1]],"dst":[[9,12]]}',
            '"op":"insert","match":{"dst":[[4,12]]}',
        )
        first, second, other = read_trace(path)
        assert first.rule.match is second.rule.match
        assert other.rule.match is not first.rule.match

    def test_interned_match_equals_a_constructed_one(self, tmp_path):
        (update,) = read_trace(
            self._trace(tmp_path, '"op":"insert","match":{"dst":[[8,12]]}')
        )
        built = Match.dst_prefix(0b1000, 2, LAYOUT)
        assert update.rule.match == built
        assert hash(update.rule.match) == hash(built)

    @pytest.mark.parametrize("bad", ["[8,true]", "[-8,12]", "[8,-1]"])
    def test_bad_ternary_fails_at_its_line_before_the_intern_lookup(
        self, tmp_path, bad
    ):
        """A line repeating an earlier match but for one bad ternary is
        checked, not served from the intern table."""
        path = self._trace(
            tmp_path,
            '"op":"insert","match":{"dst":[[8,12],[0,15]]}',
            f'"op":"insert","match":{{"dst":[[8,12],{bad}]}}',
        )
        with pytest.raises(DataPlaneError, match=f"{path}:2: ternary"):
            list(read_trace(path))


class TestWellBehavedness:
    """Definition 4 / footnote 2: detecting ambiguous same-priority rules."""

    def _compiler(self):
        from repro.bdd.predicate import PredicateEngine
        from repro.headerspace.match import MatchCompiler

        return MatchCompiler(PredicateEngine(LAYOUT.total_bits), LAYOUT)

    def test_clean_table_has_no_conflicts(self):
        from repro.dataplane.fib import find_rule_conflicts

        t = FibTable()
        t.insert(rule(2, 0b0000, 1, 1))
        t.insert(rule(2, 0b1000, 1, 2))  # same priority, disjoint
        t.insert(rule(3, 0b0000, 2, 9))  # overlapping, higher priority
        assert find_rule_conflicts(t, self._compiler()) == []

    def test_conflicting_pair_found(self):
        from repro.dataplane.fib import find_rule_conflicts

        t = FibTable()
        a, b = rule(2, 0b0000, 1, 1), rule(2, 0b0000, 2, 2)
        t.insert(a)
        t.insert(b)
        conflicts = find_rule_conflicts(t, self._compiler())
        assert conflicts == [(a, b)]

    def test_same_action_overlap_allowed(self):
        from repro.dataplane.fib import find_rule_conflicts

        t = FibTable()
        t.insert(rule(2, 0b0000, 1, 7))
        t.insert(rule(2, 0b0000, 2, 7))  # overlap, same action: fine
        assert find_rule_conflicts(t, self._compiler()) == []

    def test_snapshot_checker_raises(self):
        from repro.dataplane.fib import check_well_behaved
        from repro.errors import DataPlaneError

        snap = FibSnapshot([0, 1])
        snap.table(1).insert(rule(2, 0b0000, 1, 1))
        snap.table(1).insert(rule(2, 0b0000, 2, 2))
        with pytest.raises(DataPlaneError) as err:
            check_well_behaved(snap, self._compiler())
        assert "device 1" in str(err.value)

    def test_snapshot_checker_passes_clean(self):
        from repro.dataplane.fib import check_well_behaved

        snap = FibSnapshot([0])
        snap.table(0).insert(rule(1, 0, 0, 1))
        check_well_behaved(snap, self._compiler())
