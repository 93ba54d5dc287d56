"""Tests for the operator query layer (repro.analysis)."""

from repro.analysis import ec_summary, find_blackholes, trace_header
from repro.core.model_manager import ModelWriter
from repro.dataplane.rule import DROP, Rule
from repro.dataplane.update import delete, insert
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match
from repro.network.generators import line, ring

LAYOUT = dst_only_layout(4)


def build_line():
    topo = line(3)
    sink = topo.add_external("sink")
    topo.add_link(2, sink)
    manager = ModelWriter(topo.switches(), LAYOUT)
    manager.submit(
        [
            insert(0, Rule(1, Match.wildcard(), 1)),
            insert(1, Rule(1, Match.wildcard(), 2)),
            insert(2, Rule(1, Match.wildcard(), sink)),
        ]
    )
    manager.flush()
    return topo, manager, sink


class TestTraceHeader:
    def test_delivery(self):
        topo, manager, sink = build_line()
        trace = trace_header(manager, topo, 0, {"dst": 5})
        assert trace.outcome == "delivered"
        assert trace.delivered_to == sink
        assert trace.path == [0, 1, 2, sink]

    def test_drop(self):
        topo, manager, sink = build_line()
        manager.submit([delete(2, Rule(1, Match.wildcard(), sink))])
        manager.flush()
        trace = trace_header(manager, topo, 0, {"dst": 5})
        assert trace.outcome == "dropped"
        assert trace.path == [0, 1, 2]

    def test_loop(self):
        topo = ring(4)
        manager = ModelWriter(topo.switches(), LAYOUT)
        manager.submit(
            [
                insert(0, Rule(1, Match.wildcard(), 1)),
                insert(1, Rule(1, Match.wildcard(), 0)),
            ]
        )
        manager.flush()
        trace = trace_header(manager, topo, 0, {"dst": 1})
        assert trace.looped


class TestBlackholes:
    def test_detects_dropping_device(self):
        topo, manager, sink = build_line()
        manager.submit(
            [insert(1, Rule(2, Match.dst_prefix(0b1000, 1, LAYOUT), DROP))]
        )
        manager.flush()
        holes = find_blackholes(manager, topo)
        assert any(h.device == 1 and h.headers() == 8 for h in holes)

    def test_scoped_to_expected_space(self):
        topo, manager, sink = build_line()
        manager.submit(
            [insert(1, Rule(2, Match.dst_prefix(0b1000, 1, LAYOUT), DROP))]
        )
        manager.flush()
        low = manager.compiler.compile(Match.dst_prefix(0, 1, LAYOUT))
        holes = find_blackholes(manager, topo, expected_delivered=low)
        assert all(h.device != 1 for h in holes)

    def test_clean_network_no_blackholes(self):
        topo, manager, sink = build_line()
        assert find_blackholes(manager, topo) == []


class TestEcSummaryAndDiff:
    def test_summary_lines(self):
        topo, manager, sink = build_line()
        lines = ec_summary(manager, topo)
        assert len(lines) == 1
        assert "|EC|=" in lines[0]
