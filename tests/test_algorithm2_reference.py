"""Algorithm 2's incremental ecTable vs a rebuild-from-scratch reference.

The trickiest part of consistent partial verification is maintaining one
verification graph per equivalence class as ECs split and merge across
flushes (ecTable duplication, L7-10 of Algorithm 2).  This suite checks the
incremental path against a reference that, after every device batch,
builds a *fresh* verifier and judges the current model in one shot — any
provenance/duplication bug shows up as a verdict divergence.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ce2d.regex_verifier import RegexVerifier
from repro.results import Verdict
from repro.core.model_manager import ModelWriter
from repro.dataplane.rule import DROP, Rule
from repro.dataplane.update import insert
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match
from repro.network.topology import Topology
from repro.spec.requirement import requirement

LAYOUT = dst_only_layout(3)


def random_topology(rng):
    n = rng.randint(4, 6)
    topo = Topology()
    for i in range(n):
        topo.add_device(f"s{i}")
    for i in range(1, n):
        topo.add_link(i, rng.randrange(i))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        if not topo.has_link(u, v):
            topo.add_link(u, v)
    sink = topo.add_external("sink", prefixes=[(0, 0)])
    topo.add_link(rng.randrange(n), sink)
    return topo


def random_updates(topo, device, rng):
    """Up to three rules with random prefixes — forces EC splits/merges."""
    updates = []
    for pri in range(1, rng.randint(1, 4)):
        length = rng.randint(0, 3)
        value = rng.randrange(8)
        action = rng.choice(sorted(topo.neighbors(device)) + [DROP])
        if action != DROP:
            updates.append(
                insert(device, Rule(pri, Match.dst_prefix(value, length, LAYOUT), action))
            )
    return updates


def fresh_verdict(req, topo, manager, synced):
    """Ground truth: a fresh verifier judging the current model in one shot."""
    reference = RegexVerifier(req, topo, LAYOUT, manager.compiler)
    return reference.on_model_update(
        manager.model.as_deltas(), sorted(synced), manager.model
    ).verdict


class TestIncrementalMatchesReference:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_stepwise_verdicts_match(self, seed):
        rng = random.Random(seed)
        topo = random_topology(rng)
        req = requirement(
            "reach", topo, LAYOUT, Match.wildcard(), ["s0"], "s0 .* >"
        )
        manager = ModelWriter(topo.switches(), LAYOUT)
        incremental = RegexVerifier(req, topo, LAYOUT, manager.compiler)
        synced = set()
        order = list(topo.switches())
        rng.shuffle(order)
        for device in order:
            manager.submit(random_updates(topo, device, rng))
            lineage = manager.flush()
            synced.add(device)
            got = incremental.on_model_update(lineage, [device], manager.model)
            expected = fresh_verdict(req, topo, manager, synced)
            assert got.verdict == expected, (seed, device, synced)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_waypoint_requirement_matches(self, seed):
        rng = random.Random(seed)
        topo = random_topology(rng)
        waypoint = topo.name_of(rng.choice(topo.switches()[1:]))
        req = requirement(
            "way", topo, LAYOUT, Match.wildcard(), ["s0"],
            f"s0 .* {waypoint} .* >",
        )
        manager = ModelWriter(topo.switches(), LAYOUT)
        incremental = RegexVerifier(req, topo, LAYOUT, manager.compiler)
        synced = set()
        order = list(topo.switches())
        rng.shuffle(order)
        for device in order:
            manager.submit(random_updates(topo, device, rng))
            lineage = manager.flush()
            synced.add(device)
            got = incremental.on_model_update(lineage, [device], manager.model)
            expected = fresh_verdict(req, topo, manager, synced)
            assert got.verdict == expected, (seed, device, synced)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_graph_count_tracks_relevant_ecs(self, seed):
        """ecTable holds exactly the ECs intersecting the packet space."""
        rng = random.Random(seed)
        topo = random_topology(rng)
        space = Match.dst_prefix(0, 1, LAYOUT)  # half the space
        req = requirement("half", topo, LAYOUT, space, ["s0"], "s0 .* >")
        manager = ModelWriter(topo.switches(), LAYOUT)
        incremental = RegexVerifier(req, topo, LAYOUT, manager.compiler)
        space_pred = manager.compiler.compile(space)
        for device in topo.switches():
            manager.submit(random_updates(topo, device, rng))
            lineage = manager.flush()
            incremental.on_model_update(lineage, [device], manager.model)
            relevant = sum(
                1
                for pred, _ in manager.model.entries()
                if pred.intersects(space_pred)
            )
            assert incremental.num_graphs == relevant, (seed, device)
