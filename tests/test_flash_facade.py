"""End-to-end tests for the Flash facade (Figure 1 workflow)."""

import pytest

from repro import (
    DROP,
    Flash,
    Match,
    Rule,
    SubspacePartition,
    Verdict,
    delete,
    dst_only_layout,
    insert,
    internet2,
    requirement,
)
from repro.results import LoopReport
from repro.network.generators import fabric, figure3_example, ring
from repro.routing.openr import OpenRSimulation

LAYOUT = dst_only_layout(8)


def fwd(topo, u, v, pri=1):
    return insert(topo.id_of(u), Rule(pri, Match.wildcard(), topo.id_of(v)))


class TestFlashOnline:
    def test_loop_detection_via_epochs(self):
        topo = ring(4)
        flash = Flash(topo, LAYOUT)
        flash.receive(0, "e1", [insert(0, Rule(1, Match.wildcard(), 1))])
        reports = flash.receive(1, "e1", [insert(1, Rule(1, Match.wildcard(), 0))])
        assert any(r.verdict is Verdict.VIOLATED for r in reports)
        assert flash.first_violation() is not None

    def test_requirement_verification(self):
        topo = figure3_example()
        req = requirement(
            "waypoint", topo, LAYOUT, Match.wildcard(), ["S"], "S .* [W|Y] .* D"
        )
        flash = Flash(topo, LAYOUT, requirements=[req], check_loops=False)
        flash.receive(topo.id_of("S"), "e", [fwd(topo, "S", "A")])
        reports = flash.receive(topo.id_of("A"), "e", [fwd(topo, "A", "S")])
        assert any(r.verdict is Verdict.VIOLATED for r in reports)

    def test_epoch_switch_discards_stale_verifier(self):
        topo = ring(4)
        flash = Flash(topo, LAYOUT)
        flash.receive(0, "e1", [insert(0, Rule(1, Match.wildcard(), 1))])
        flash.receive(0, "e2", [insert(0, Rule(2, Match.wildcard(), 3))])
        assert flash.dispatcher.verifier_for("e1") is None
        assert flash.dispatcher.verifier_for("e2") is not None

    def test_shared_verification_graphs_outlive_an_epochs_pruning(self):
        """Every epoch clones one graph per requirement: e1 prunes S to
        its next hop A, and e2, where S forwards to W, still judges on the
        unpruned graph — its verdicts equal a fresh Flash's."""
        topo = figure3_example()
        reqs = [
            requirement(
                "waypoint", topo, LAYOUT, Match.wildcard(), ["S"], "S .* [W|Y] .* D"
            ),
            requirement("cover", topo, LAYOUT, Match.wildcard(), ["S"], "cover (S W C)"),
        ]
        to_a = Rule(1, Match.wildcard(), topo.id_of("A"))
        used = Flash(topo, LAYOUT, requirements=reqs)
        used.receive(topo.id_of("S"), "e1", [insert(topo.id_of("S"), to_a)])
        used.receive(topo.id_of("A"), "e1", [fwd(topo, "A", "S")])
        assert used.first_violation() is not None
        fresh = Flash(topo, LAYOUT, requirements=reqs)
        s_to_w = [fwd(topo, "S", "W")]
        steps = [
            ("S", [delete(topo.id_of("S"), to_a)] + s_to_w, s_to_w),
            ("W", [fwd(topo, "W", "C")], None),
            ("C", [fwd(topo, "C", "D")], None),
            ("D", [], None),
        ]
        for name, batch, first_time in steps:
            device = topo.id_of(name)
            ours = used.receive(device, "e2", batch)
            theirs = fresh.receive(device, "e2", first_time or batch)
            assert [(r.verdict, getattr(r, "detail", "")) for r in ours] == [
                (r.verdict, getattr(r, "detail", "")) for r in theirs
            ], name
        assert [r.verdict for r in ours[1:]] == [Verdict.SATISFIED] * 2


class TestUnpartitionedTrunk:
    def test_ingest_then_read_view_sees_the_model(self):
        flash = Flash(ring(4), LAYOUT, check_loops=False)
        flash.ingest(0, [insert(0, Rule(1, Match.wildcard(), 1))])
        view = flash.read_view()
        assert view.num_ecs() >= 1

    def test_member_gets_the_callers_batch_untouched(self):
        flash = Flash(ring(4), LAYOUT)
        (member,) = flash.trunk.members
        seen = []
        apply = member.apply
        member.apply = lambda updates: seen.append(updates) or apply(updates)
        batch = [insert(0, Rule(1, Match.wildcard(), 1))]
        flash.ingest(0, batch)
        assert len(seen) == 1 and seen[0] is batch


class TestFlashOffline:
    def test_offline_loop_free(self):
        topo = ring(4)
        flash = Flash(topo, LAYOUT)
        updates = [
            insert(0, Rule(1, Match.wildcard(), 1)),
            insert(1, Rule(1, Match.wildcard(), 2)),
            insert(2, Rule(1, Match.wildcard(), 3)),
            # device 3 drops: no loop
        ]
        reports = flash.verify_offline(updates)
        loops = [r for r in reports if isinstance(r, LoopReport)]
        assert loops[-1].verdict is Verdict.SATISFIED

    def test_offline_loop_found(self):
        topo = ring(4)
        flash = Flash(topo, LAYOUT)
        updates = [
            insert(0, Rule(1, Match.wildcard(), 1)),
            insert(1, Rule(1, Match.wildcard(), 2)),
            insert(2, Rule(1, Match.wildcard(), 3)),
            insert(3, Rule(1, Match.wildcard(), 0)),
        ]
        flash.verify_offline(updates)
        assert flash.first_violation() is not None


class TestFlashWithSubspaces:
    def test_partitioned_loop_detection(self):
        topo = ring(4)
        partition = SubspacePartition.dst_prefix_partition(
            LAYOUT, [(0x00, 1), (0x80, 1)]
        )
        flash = Flash(topo, LAYOUT, partition=partition)
        # Loop only in the high half of the space.
        high = Match.dst_prefix(0x80, 1, LAYOUT)
        flash.receive(0, "e", [insert(0, Rule(2, high, 1))])
        reports = flash.receive(1, "e", [insert(1, Rule(2, high, 0))])
        assert any(r.verdict is Verdict.VIOLATED for r in reports)

    def test_trunk_routes_through_the_partition(self):
        partition = SubspacePartition.dst_prefix_partition(
            LAYOUT, [(0x00, 1), (0x80, 1)]
        )
        flash = Flash(ring(4), LAYOUT, partition=partition)
        assert flash.trunk.partition is partition
        batches = []
        for member in flash.trunk.members:
            apply = member.apply
            member.apply = lambda u, apply=apply: batches.append(u) or apply(u)
        low = insert(0, Rule(1, Match.dst_prefix(0x00, 1, LAYOUT), 1))
        anywhere = insert(0, Rule(2, Match.wildcard(), DROP))
        flash.ingest(0, [low, anywhere])
        assert batches == [[low, anywhere], [anywhere]]

    def test_partitioned_read_view_raises(self):
        """One model per subspace (§3.4) and no single view of them all:
        the facade refuses instead of serving the first subspace alone."""
        from repro.dataplane.trace import inserts_only
        from repro.fibgen.shortest_path import std_fib

        topo = fabric(2, 2, 2, 2)
        layout = dst_only_layout(6)
        partition = SubspacePartition.dst_prefix_partition(
            layout, [(0, 1), (1 << 5, 1)]
        )
        flash = Flash(topo, layout, check_loops=False, partition=partition)
        flash.verify_offline(inserts_only(std_fib(topo, layout)))
        with pytest.raises(ValueError, match=r"members\[i\]\.read_view\(\)"):
            flash.read_view()
        views = [member.read_view() for member in flash.trunk.members]
        headers = sum(p.sat_count() for v in views for p, _ in v.entries())
        assert headers == 1 << 6

    def test_group_members_must_follow_the_partition(self):
        from repro.ce2d.verifier import SubspaceVerifier
        from repro.flash import EpochGroupVerifier

        partition = SubspacePartition.dst_prefix_partition(
            LAYOUT, [(0x00, 1), (0x80, 1)]
        )
        whole = SubspaceVerifier(ring(4), LAYOUT)
        with pytest.raises(ValueError):
            EpochGroupVerifier([whole], partition=partition)
        with pytest.raises(ValueError):
            EpochGroupVerifier([whole, whole])

    def test_partitioned_requirements_routed(self):
        topo = figure3_example()
        partition = SubspacePartition.dst_prefix_partition(
            LAYOUT, [(0x00, 1), (0x80, 1)]
        )
        low_req = requirement(
            "low-reach",
            topo,
            LAYOUT,
            Match.dst_prefix(0x00, 1, LAYOUT),
            ["S"],
            "S .* D",
        )
        flash = Flash(
            topo, LAYOUT, requirements=[low_req], partition=partition,
            check_loops=False,
        )
        group = flash._make_verifier("e")
        # Requirement only attached to the low subspace's verifier.
        attached = [len(v.regex_verifiers) for v in group.members]
        assert attached == [1, 0]

    def test_state_is_one_slot_per_subspace_and_checker(self):
        topo = figure3_example()
        low = Match.dst_prefix(0x00, 1, LAYOUT)
        high = Match.dst_prefix(0x80, 1, LAYOUT)
        flash = Flash(
            topo,
            LAYOUT,
            requirements=[
                # Listed high first: the state follows member order, not this.
                requirement("high-reach", topo, LAYOUT, high, ["S"], "S .* D"),
                requirement("low-reach", topo, LAYOUT, low, ["S"], "S .* D"),
            ],
            partition=SubspacePartition.dst_prefix_partition(
                LAYOUT, [(0x00, 1), (0x80, 1)]
            ),
        )
        # S → W → C → D → NET for the low half; the high half dies at S.
        hops = {"S": "W", "W": "C", "C": "D", "D": "NET"}
        transcript = []
        for device in topo.switches():  # S A B E C D W Y
            hop = hops.get(topo.name_of(device))
            updates = (
                [] if hop is None
                else [insert(device, Rule(1, low, topo.id_of(hop)))]
            )
            transcript += flash.receive(device, "e", updates)
        assert len(transcript) == 8 * 4  # (loops + one regex) × 2 a batch
        held = flash.deterministic_reports()
        assert [
            (getattr(r, "requirement", "loops"), r.verdict) for r in held
        ] == [
            ("loops", Verdict.SATISFIED),
            ("low-reach", Verdict.SATISFIED),
            ("loops", Verdict.SATISFIED),
            ("high-reach", Verdict.VIOLATED),
        ]
        # Each is the handed-back report at which its verdict was settled:
        # loops with the last device (Y), low-reach with the path's last
        # (W), high-reach with S's own batch.
        settled = [7 * 4, 6 * 4 + 1, 7 * 4 + 2, 3]
        assert all(r is transcript[at] for r, at in zip(held, settled))
        assert flash.first_violation() is transcript[3]


class TestFlashWithSimulation:
    def test_attach_to_simulation(self):
        topo = internet2()
        buggy = topo.id_of("kans")
        sim = OpenRSimulation(topo, LAYOUT, buggy_nodes=[buggy], seed=2)
        flash = Flash(topo, LAYOUT)
        flash.attach_to(sim)
        sim.bootstrap()
        sim.run()
        violation = flash.first_violation()
        assert violation is not None
        assert violation.verdict is Verdict.VIOLATED
