"""Tests for verification graphs and decremental reachability (DGQ)."""

import random

import pytest

from repro.ce2d.reachability import DgqReachability
from repro.ce2d.verification_graph import VerificationGraph
from repro.dataplane.rule import DROP
from repro.network.generators import figure3_example
from repro.spec.ast import SelectorContext
from repro.spec.dfa import compile_path_set
from repro.spec.parser import parse_path_set


@pytest.fixture()
def topo():
    return figure3_example()


def build_graph(topo, expression, sources=("S",)):
    automaton = compile_path_set(parse_path_set(expression))
    return VerificationGraph(
        topo,
        automaton,
        [topo.id_of(s) for s in sources],
        SelectorContext(),
    )


class TestVerificationGraph:
    def test_initial_reachability(self, topo):
        graph = build_graph(topo, "S .* D")
        assert graph.accept_reachable()
        assert graph.num_nodes > 0
        assert all(node[0] == topo.id_of("S") for node in graph.sources)

    def test_waypoint_graph(self, topo):
        graph = build_graph(topo, "S .* [W|Y] .* D")
        assert graph.accept_reachable()
        # Accepting nodes are D-states whose automaton passed a waypoint.
        assert graph.accept_devices() == {topo.id_of("D")}

    def test_dead_source_prunes(self, topo):
        graph = build_graph(topo, "A .* D")  # source S never matches 'A'
        # Built with source S: the automaton dies immediately.
        automaton = compile_path_set(parse_path_set("A .* D"))
        graph = VerificationGraph(
            topo, automaton, [topo.id_of("S")], SelectorContext()
        )
        assert not graph.accept_reachable()

    def test_prune_device_to_action(self, topo):
        graph = build_graph(topo, "S .* D")
        s = topo.id_of("S")
        w = topo.id_of("W")
        removed = graph.prune_device(s, w)  # S forwards only to W
        assert removed
        for node, succs in graph.out_edges.items():
            if node[0] == s:
                assert all(succ[0] == w for succ in succs)

    def test_prune_drop_removes_all(self, topo):
        graph = build_graph(topo, "S .* D")
        graph.prune_device(topo.id_of("S"), DROP)
        assert not graph.accept_reachable()

    def test_clone_is_independent(self, topo):
        graph = build_graph(topo, "S .* D")
        copy = graph.clone()
        copy.prune_device(topo.id_of("S"), DROP)
        assert graph.accept_reachable()
        assert not copy.accept_reachable()

    def test_synced_accept_search(self, topo):
        graph = build_graph(topo, "S .* D")
        names = ["S", "W", "C", "D"]
        ids = [topo.id_of(n) for n in names]
        # Pin each device on the path to the next hop.
        for u, v in zip(ids, ids[1:]):
            graph.prune_device(u, v)
        path = graph.synced_accept_search(set(ids))
        assert path is not None
        assert [topo.name_of(d) for d, _ in path] == names
        # Without S synced, no fully-synced path exists.
        assert graph.synced_accept_search(set(ids[1:])) is None


def traversal_accepting(graph):
    """The oracle: accepting nodes a full traversal reaches."""
    reached = graph.reachable_from_sources()
    return {n for n in graph.accepting if n in reached}


class TestDgqAgainstTraversal:
    def test_simple_deletion_sequence(self, topo):
        graph = build_graph(topo, "S .* D")
        dgq = DgqReachability(graph)
        assert dgq.accept_reachable()
        removed = graph.prune_device(topo.id_of("S"), topo.id_of("W"))
        dgq.delete_edges(removed)
        assert dgq.accept_reachable() == graph.accept_reachable()
        removed = graph.prune_device(topo.id_of("W"), DROP)
        dgq.delete_edges(removed)
        assert not dgq.accept_reachable()
        assert dgq.accept_reachable() == graph.accept_reachable()

    def test_reachable_accepting_sets_agree(self, topo):
        graph = build_graph(topo, "S .* [W|Y] .* D")
        mirror = graph.clone()
        dgq = DgqReachability(graph)
        rng = random.Random(3)
        devices = [topo.id_of(n) for n in ["S", "A", "B", "E", "W", "Y", "C"]]
        for device in devices:
            nbrs = sorted(topo.neighbors(device))
            action = rng.choice(nbrs + [DROP])
            dgq.delete_edges(graph.prune_device(device, action))
            mirror.prune_device(device, action)
            assert dgq.reachable_accepting() == traversal_accepting(mirror), (
                topo.name_of(device),
                action,
            )

    def test_randomized_agreement(self, topo):
        rng = random.Random(11)
        for trial in range(25):
            graph = build_graph(topo, "S .* D")
            mirror = graph.clone()
            dgq = DgqReachability(graph)
            order = [topo.id_of(n) for n in ["S", "A", "B", "E", "W", "Y", "C", "D"]]
            rng.shuffle(order)
            for device in order:
                nbrs = sorted(topo.neighbors(device))
                action = rng.choice(nbrs + [DROP, DROP])
                dgq.delete_edges(graph.prune_device(device, action))
                mirror.prune_device(device, action)
                assert dgq.accept_reachable() == mirror.accept_reachable(), trial

    def test_num_reachable_shrinks(self, topo):
        graph = build_graph(topo, "S .* D")
        dgq = DgqReachability(graph)
        before = dgq.num_reachable
        dgq.delete_edges(graph.prune_device(topo.id_of("A"), DROP))
        assert dgq.num_reachable <= before

    def test_copied_forest_tracks_traversal(self, topo):
        """A forest copied from a pruned parent, then pruned further, spans
        exactly what a traversal reaches after every deletion; neither the
        parent nor the template it came from moves."""
        rng = random.Random(5)
        names = ["S", "A", "B", "E", "W", "Y", "C", "D"]
        for trial in range(25):
            template = build_graph(topo, "S .* [W|Y] .* D")
            forest = DgqReachability(template)
            frozen = snapshot(template, forest)
            parent = template.clone()
            parent_forest = forest.copy(parent)
            order = [topo.id_of(n) for n in names]
            rng.shuffle(order)
            cut = rng.randint(0, len(order))
            for device in order[:cut]:
                action = rng.choice(sorted(topo.neighbors(device)) + [DROP])
                parent_forest.delete_edges(parent.prune_device(device, action))
            parent_state = snapshot(parent, parent_forest)
            child = parent.clone()
            child_forest = parent_forest.copy(child)
            assert_spans_reachable(child_forest, child)
            for device in order[cut:]:
                action = rng.choice(sorted(topo.neighbors(device)) + [DROP, DROP])
                child_forest.delete_edges(child.prune_device(device, action))
                assert_spans_reachable(child_forest, child)
            assert snapshot(parent, parent_forest) == parent_state
            assert snapshot(template, forest) == frozen


def snapshot(graph, forest):
    return (
        {n: set(e) for n, e in graph.out_edges.items()},
        dict(forest.parent),
        {n: set(c) for n, c in forest.children.items() if c},
    )


def assert_spans_reachable(forest, graph):
    """The forest's nodes are what a traversal reaches, and every tree
    edge is a graph edge its child's children set agrees with."""
    assert set(forest.parent) == graph.reachable_from_sources()
    for node, up in forest.parent.items():
        if up is None:
            assert node in graph.sources
        else:
            assert node in graph.out_edges[up]
            assert node in forest.children[up]
    assert all(
        forest.parent[kid] == node
        for node, kids in forest.children.items()
        for kid in kids
    )
