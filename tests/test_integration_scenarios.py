"""Realistic end-to-end scenarios across every module boundary.

Deliberately broad integration tests: a fabric data center with per-rack
requirements, fault injection (misconfigured next hop, dropped prefix,
cross-pod loop) and the full Flash stack — generators → traces → dispatcher
→ Fast IMT → CE2D → verdicts.
"""

import pytest

from repro.bdd.predicate import PredicateEngine
from repro.results import LoopReport, Verdict
from repro.core.model_manager import ModelWriter
from repro.core.subspace import SubspacePartition
from repro.dataplane.rule import DROP, Rule
from repro.dataplane.update import insert
from repro.difftest import ReferenceOracle, ScenarioGenerator
from repro.difftest.compare import (
    ModelView,
    derive_verdicts,
    view_from_inverse_model,
    view_from_oracle,
)
from repro.difftest.runner import diff_views
from repro.fibgen.shortest_path import std_fib
from repro.flash import Flash
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match, MatchCompiler
from repro.network.generators import fabric
from repro.spec.requirement import requirement

LAYOUT = dst_only_layout(8)


@pytest.fixture(scope="module")
def clean_fabric():
    topo = fabric(pods=2, tors_per_pod=2, fabrics_per_pod=2, spines_per_plane=1)
    fibs = std_fib(topo, LAYOUT)
    return topo, fibs


def rack_requirements(topo):
    """Per-rack all-ToR reachability requirements."""
    reqs = []
    for rack in topo.externals():
        value, length = topo.device(rack).label("prefixes")[0]
        reqs.append(
            requirement(
                f"reach-{topo.name_of(rack)}",
                topo,
                LAYOUT,
                Match.dst_prefix(value, length, LAYOUT),
                ["[role=tor]"],
                ". .* >",
            )
        )
    return reqs


def feed_all(flash, topo, fibs, mutate=None):
    """Feed every device's FIB as one epoch; `mutate(device, rules)` can
    inject faults."""
    reports = []
    for device in topo.switches():
        rules = list(fibs.get(device, ()))
        if mutate is not None:
            rules = mutate(device, rules)
        reports = flash.receive(
            device, "epoch", [insert(device, r) for r in rules]
        )
    return reports


class TestCleanFabric:
    def test_all_requirements_satisfied_and_loop_free(self, clean_fabric):
        topo, fibs = clean_fabric
        reqs = rack_requirements(topo)
        flash = Flash(topo, LAYOUT, requirements=reqs, check_loops=True)
        reports = feed_all(flash, topo, fibs)
        assert all(r.verdict is Verdict.SATISFIED for r in reports), reports

    def test_with_subspace_partition(self, clean_fabric):
        topo, fibs = clean_fabric
        partition = SubspacePartition.dst_prefix_partition(
            LAYOUT, [(0x00, 1), (0x80, 1)]
        )
        reqs = rack_requirements(topo)
        flash = Flash(
            topo, LAYOUT, requirements=reqs, check_loops=True,
            partition=partition,
        )
        reports = feed_all(flash, topo, fibs)
        assert flash.first_violation() is None
        assert all(r.verdict is not Verdict.VIOLATED for r in reports)

    def test_subspace_models_merge_to_the_oracle(self):
        """Random scenarios verified as two dst-prefix subspaces, one
        model writer each: the shards' EC tables, imported into one
        engine, are the brute-force oracle's model and give its
        verdicts."""
        generator = ScenarioGenerator(seed=1717, profile="smoke")
        for scenario in generator.stream(40):
            layout = scenario.build_layout()
            topology = scenario.build_topology()
            switches = sorted(topology.switches())
            top_bit = 1 << (layout.field("dst").width - 1)
            partition = SubspacePartition.dst_prefix_partition(
                layout, [(0, 1), (top_bit, 1)]
            )
            routed = partition.route_updates(scenario.updates)
            comparison = PredicateEngine(layout.total_bits)
            entries = []
            for subspace in partition:
                writer = ModelWriter(
                    switches, layout, subspace_match=subspace.match
                )
                writer.submit(routed[subspace.index])
                writer.flush()
                shard = view_from_inverse_model(
                    subspace.name, comparison, writer.model, switches
                )
                entries += shard.entries
            merged = ModelView("partitioned", comparison, switches, entries)
            oracle = ReferenceOracle(topology, layout)
            oracle.process_updates(scenario.updates)
            reference = view_from_oracle("oracle", comparison, oracle)
            divergences = diff_views(
                topology, layout, switches, merged, reference
            )
            assert not divergences, (scenario.name, divergences)
            compiler = MatchCompiler(comparison, layout)
            requirements = scenario.build_requirements(topology, layout)
            spaces = [compiler.compile(r.packet_space) for r in requirements]
            assert derive_verdicts(
                merged.action_entries(), topology, requirements, spaces
            ) == derive_verdicts(
                reference.action_entries(), topology, requirements, spaces
            ), scenario.name


class TestFaultInjection:
    def test_dropped_prefix_breaks_one_requirement(self, clean_fabric):
        topo, fibs = clean_fabric
        reqs = rack_requirements(topo)
        victim_rack = topo.externals()[0]
        value, length = topo.device(victim_rack).label("prefixes")[0]
        victim_match = Match.dst_prefix(value, length, LAYOUT)
        victim_tor = topo.select(role="tor", pod=0)[0]

        def mutate(device, rules):
            if device != victim_tor:
                return rules
            # The ToR drops the victim prefix instead of delivering it.
            return [
                Rule(r.priority + 1, r.match, DROP)
                if r.match == victim_match
                else r
                for r in rules
            ] + [r for r in rules if r.match == victim_match]

        flash = Flash(topo, LAYOUT, requirements=reqs, check_loops=False)
        feed_all(flash, topo, fibs, mutate)
        verdicts = {}
        for report in flash.deterministic_reports():
            verdicts[report.requirement] = report.verdict
        victim_req = f"reach-{topo.name_of(victim_rack)}"
        assert verdicts[victim_req] is Verdict.VIOLATED
        # Other racks' requirements stay satisfied.
        others = [v for k, v in verdicts.items() if k != victim_req]
        assert all(v is Verdict.SATISFIED for v in others)

    def test_cross_pod_loop_detected(self, clean_fabric):
        topo, fibs = clean_fabric
        # Two fabric switches point a foreign prefix at each other.
        fab_a = topo.select(role="fabric", pod=0)[0]
        fab_b = None
        for candidate in topo.select(role="spine"):
            if topo.has_link(fab_a, candidate):
                fab_b = candidate
                break
        assert fab_b is not None
        foreign = Match.dst_prefix(0xC0, 2, LAYOUT)

        def mutate(device, rules):
            if device == fab_a:
                return rules + [Rule(9, foreign, fab_b)]
            if device == fab_b:
                return rules + [Rule(9, foreign, fab_a)]
            return rules

        flash = Flash(topo, LAYOUT, check_loops=True)
        feed_all(flash, topo, fibs, mutate)
        violation = flash.first_violation()
        assert violation is not None
        assert isinstance(violation, LoopReport)
        assert set(violation.loop_path) >= {fab_a, fab_b}

    def test_loop_found_before_full_epoch(self, clean_fabric):
        """The cross-pod loop is reported as soon as both culprits sync."""
        topo, fibs = clean_fabric
        fab_a = topo.select(role="fabric", pod=0)[0]
        fab_b = next(
            c for c in topo.select(role="spine") if topo.has_link(fab_a, c)
        )
        foreign = Match.dst_prefix(0xC0, 2, LAYOUT)
        flash = Flash(topo, LAYOUT, check_loops=True)
        r = flash.receive(
            fab_a, "e", [insert(fab_a, Rule(9, foreign, fab_b))]
        )
        assert all(x.verdict is Verdict.UNKNOWN for x in r)
        r = flash.receive(
            fab_b, "e", [insert(fab_b, Rule(9, foreign, fab_a))]
        )
        assert any(x.verdict is Verdict.VIOLATED for x in r)
        # Only 2 of the switches have reported.
        group = flash.dispatcher.verifier_for("e")
        assert group.num_synced == 2
