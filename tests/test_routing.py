"""Tests for the discrete-event simulator and the OpenR-like routing stack."""

import pytest

from repro.ce2d.dispatcher import CE2DDispatcher
from repro.results import Verdict
from repro.ce2d.verifier import SubspaceVerifier
from repro.dataplane.rule import next_hops_of
from repro.errors import SimulationError
from repro.headerspace.fields import dst_only_layout
from repro.network.generators import internet2, line, ring
from repro.routing.events import EventLoop
from repro.routing.linkstate import KvStore, LinkState, link_key
from repro.routing.openr import OpenRSimulation

LAYOUT = dst_only_layout(8)


class TestEventLoop:
    def test_ordering(self):
        loop = EventLoop()
        order = []
        loop.schedule(0.2, lambda: order.append("b"))
        loop.schedule(0.1, lambda: order.append("a"))
        loop.schedule(0.3, lambda: order.append("c"))
        loop.run()
        assert order == ["a", "b", "c"]
        assert loop.now == pytest.approx(0.3)

    def test_fifo_for_same_time(self):
        loop = EventLoop()
        order = []
        loop.schedule(0.1, lambda: order.append(1))
        loop.schedule(0.1, lambda: order.append(2))
        loop.run()
        assert order == [1, 2]

    def test_run_until(self):
        loop = EventLoop()
        fired = []
        loop.schedule(0.1, lambda: fired.append(1))
        loop.schedule(0.5, lambda: fired.append(2))
        loop.run(until=0.2)
        assert fired == [1]
        assert loop.now == pytest.approx(0.2)
        loop.run()
        assert fired == [1, 2]

    def test_nested_scheduling(self):
        loop = EventLoop()
        fired = []

        def outer():
            fired.append("outer")
            loop.schedule(0.1, lambda: fired.append("inner"))

        loop.schedule(0.1, outer)
        loop.run()
        assert fired == ["outer", "inner"]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        loop = EventLoop()
        loop.schedule(0.5, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.schedule_at(0.1, lambda: None)


class TestKvStore:
    def test_merge_by_version(self):
        kv = KvStore()
        kv.seed([(0, 1)])
        assert kv.is_up((0, 1))
        assert kv.merge((0, 1), LinkState(1, False))
        assert not kv.is_up((0, 1))
        assert not kv.merge((0, 1), LinkState(0, True))  # stale
        assert not kv.is_up((0, 1))

    def test_epoch_tag_changes_with_versions(self):
        kv = KvStore()
        kv.seed([(0, 1), (1, 2)])
        t0 = kv.epoch_tag()
        kv.merge((0, 1), LinkState(1, False))
        t1 = kv.epoch_tag()
        assert t0 != t1

    def test_equal_stores_equal_tags(self):
        a, b = KvStore(), KvStore()
        a.seed([(0, 1)])
        b.seed([(0, 1)])
        assert a.epoch_tag() == b.epoch_tag()
        a.merge((0, 1), LinkState(3, False))
        b.merge((0, 1), LinkState(3, False))
        assert a.epoch_tag() == b.epoch_tag()

    def test_link_key_canonical(self):
        assert link_key(3, 1) == (1, 3) == link_key(1, 3)

    def test_multi_hash_tags(self):
        """Footnote 6: concatenated salted hashes reduce collision odds."""
        kv = KvStore()
        kv.seed([(0, 1), (1, 2)])
        single = kv.epoch_tag()
        double = kv.epoch_tag(num_hashes=2)
        assert double.startswith(single)
        assert len(double) > len(single)
        other = KvStore()
        other.seed([(0, 1), (1, 2)])
        assert other.epoch_tag(num_hashes=2) == double


class TestOpenRSimulation:
    def test_bootstrap_converges_and_tags_agree(self):
        topo = internet2()
        sim = OpenRSimulation(topo, LAYOUT, seed=1)
        sim.bootstrap()
        sim.run()
        devices = {b.device for b in sim.batches}
        assert devices == set(topo.switches())
        tags = {b.tag for b in sim.batches}
        assert len(tags) == 1  # all computed from the same network state

    def test_bootstrap_fibs_route_correctly(self):
        topo = line(4)
        sim = OpenRSimulation(topo, LAYOUT, seed=1)
        sim.bootstrap()
        sim.run()
        # Follow node 0's FIB to node 3's prefix owner hop by hop.
        dest = next(d for d in sim.destinations if d.owner == 3)
        current = 0
        for _ in range(5):
            if current == 3:
                break
            rule = sim.nodes[current].fib[dest]
            current = next_hops_of(rule.action)[0]
        assert current == 3

    def test_link_failure_triggers_new_epoch_and_reroute(self):
        topo = ring(4)
        sim = OpenRSimulation(topo, LAYOUT, seed=1)
        sim.bootstrap()
        sim.run()
        bootstrap_tag = sim.batches[0].tag
        sim.fail_link(0, 1, at=sim.loop.now + 1.0)
        sim.run()
        new_tags = {b.tag for b in sim.batches if b.tag != bootstrap_tag}
        assert len(new_tags) == 1
        # Node 0 now reaches node 1's prefix the long way (via 3).
        dest = next(d for d in sim.destinations if d.owner == 1)
        rule = sim.nodes[0].fib[dest]
        assert next_hops_of(rule.action)[0] == 3

    def test_one_match_object_per_distinct_match(self):
        # Every Decision run reuses the simulation's Match per
        # destination, so a compile-cache hit or a Rule comparison in
        # the verifier meets the same object, not an equal copy.
        topo = ring(4)
        sim = OpenRSimulation(topo, LAYOUT, seed=1)
        sim.bootstrap()
        sim.run()
        sim.fail_link(0, 1, at=sim.loop.now + 1.0)
        sim.recover_link(0, 1, at=sim.loop.now + 2.0)
        sim.run()
        matches = [u.rule.match for b in sim.batches for u in b.updates]
        assert len(matches) > len(set(matches))
        assert len({id(m) for m in matches}) == len(set(matches))

    def test_dampened_node_sends_late(self):
        topo = ring(4)
        sim = OpenRSimulation(topo, LAYOUT, dampening={2: 60.0}, seed=1)
        sim.bootstrap()
        sim.run()
        late = [b for b in sim.batches if b.device == 2]
        early = [b for b in sim.batches if b.device != 2]
        assert late and early
        assert min(b.time for b in late) > max(b.time for b in early)
        assert min(b.time for b in late) >= 60.0

    def test_buggy_node_creates_loop(self):
        topo = internet2()
        buggy = topo.id_of("kans")
        sim = OpenRSimulation(topo, LAYOUT, buggy_nodes=[buggy], seed=1)
        sim.bootstrap()
        sim.run()
        # Feed the converged FIBs to a loop-checking verifier.
        verifier = SubspaceVerifier(topo, LAYOUT, check_loops=True)
        for batch in sim.batches:
            reports = verifier.receive(batch.device, batch.updates)
        final = next(iter(verifier.deterministic_reports()), None)
        assert final is not None
        assert final.verdict is Verdict.VIOLATED

    def test_correct_network_is_loop_free(self):
        topo = internet2()
        sim = OpenRSimulation(topo, LAYOUT, seed=1)
        sim.bootstrap()
        sim.run()
        verifier = SubspaceVerifier(topo, LAYOUT, check_loops=True)
        for batch in sim.batches:
            reports = verifier.receive(batch.device, batch.updates)
        assert reports[0].verdict is Verdict.SATISFIED

    def test_unknown_link_rejected(self):
        topo = ring(4)
        sim = OpenRSimulation(topo, LAYOUT)
        with pytest.raises(SimulationError):
            sim.fail_link(0, 2, at=0.1)


class TestOpenRWithDispatcher:
    """End-to-end: simulation feeding CE2D through epoch dispatch."""

    def _run(self, sim, topo):
        trunk = SubspaceVerifier(topo, LAYOUT)
        dispatcher = CE2DDispatcher(
            trunk,
            lambda tag: SubspaceVerifier(
                topo, LAYOUT, epoch=tag, check_loops=True, manager=trunk.manager
            ),
        )
        transcript = []  # every report the dispatcher handed back
        sim.add_collector(
            lambda when, device, tag, updates: transcript.extend(
                dispatcher.receive(device, tag, updates, now=when)
            )
        )
        return transcript

    def test_ce2d_no_false_loop_on_two_failures(self):
        """Figure 8's headline: CE2D reports no transient loops."""
        topo = internet2()
        sim = OpenRSimulation(topo, LAYOUT, seed=3)
        transcript = self._run(sim, topo)
        sim.bootstrap()
        sim.run()
        sim.fail_link_by_name("chic", "atla", at=sim.loop.now + 0.5)
        sim.fail_link_by_name("chic", "kans", at=sim.loop.now + 0.55)
        sim.run()
        violations = [r for r in transcript if r.verdict is Verdict.VIOLATED]
        assert violations == []

    def test_ce2d_detects_buggy_loop_before_dampened_node(self):
        """Figure 9's headline: the loop is reported long before 60 s."""
        topo = internet2()
        buggy = topo.id_of("kans")
        dampened = topo.id_of("seat")
        sim = OpenRSimulation(
            topo,
            LAYOUT,
            buggy_nodes=[buggy],
            dampening={dampened: 60.0},
            seed=5,
        )
        transcript = self._run(sim, topo)
        sim.bootstrap()
        sim.run()
        loops = [r for r in transcript if r.verdict is Verdict.VIOLATED]
        assert loops, "expected an early consistent loop report"
        assert min(r.time for r in loops) < 1.0  # far earlier than 60 s


class TestLinkEvents:
    def test_recovery_restores_shortest_path(self):
        topo = ring(4)
        sim = OpenRSimulation(topo, LAYOUT, seed=1)
        sim.bootstrap()
        sim.run()
        dest = next(d for d in sim.destinations if d.owner == 1)
        sim.fail_link(0, 1, at=sim.loop.now + 1.0)
        sim.run()
        assert next_hops_of(sim.nodes[0].fib[dest].action)[0] == 3
        sim.recover_link(0, 1, at=sim.loop.now + 1.0)
        sim.run()
        assert next_hops_of(sim.nodes[0].fib[dest].action)[0] == 1

    def test_partitioned_destination_removed_from_fib(self):
        topo = line(3)
        sim = OpenRSimulation(topo, LAYOUT, seed=1)
        sim.bootstrap()
        sim.run()
        dest = next(d for d in sim.destinations if d.owner == 2)
        assert dest in sim.nodes[0].fib
        sim.fail_link(1, 2, at=sim.loop.now + 1.0)
        sim.run()
        assert dest not in sim.nodes[0].fib  # node 2 unreachable → no rule

    def test_decision_debounce_coalesces_messages(self):
        """Two near-simultaneous events trigger one recomputation per node
        (the decision-delay debounce), not two."""
        topo = ring(4)
        sim = OpenRSimulation(topo, LAYOUT, seed=1, decision_delay=0.5)
        sim.bootstrap()
        sim.run()
        batches_before = len(sim.batches)
        sim.fail_link(0, 1, at=sim.loop.now + 0.1)
        sim.fail_link(2, 3, at=sim.loop.now + 0.101)
        sim.run()
        new_batches = [b for b in sim.batches[batches_before:]]
        per_device = {}
        for b in new_batches:
            per_device[b.device] = per_device.get(b.device, 0) + 1
        # With a long debounce each device recomputes exactly once.
        assert all(count == 1 for count in per_device.values()), per_device

    def test_two_events_two_epochs_when_debounce_short(self):
        topo = ring(4)
        sim = OpenRSimulation(topo, LAYOUT, seed=1, decision_delay=0.001)
        sim.bootstrap()
        sim.run()
        start_tags = {b.tag for b in sim.batches}
        sim.fail_link(0, 1, at=sim.loop.now + 1.0)
        sim.run()
        sim.fail_link(2, 3, at=sim.loop.now + 1.0)
        sim.run()
        tags = {b.tag for b in sim.batches} - start_tags
        assert len(tags) == 2


class TestWeightedLinks:
    def test_costs_steer_paths(self):
        """OSPF-style weights: an expensive direct link loses to a detour."""
        topo = ring(4)  # 0-1-2-3-0
        sim = OpenRSimulation(
            topo, LAYOUT, link_costs={(0, 1): 10}, seed=1
        )
        sim.bootstrap()
        sim.run()
        dest = next(d for d in sim.destinations if d.owner == 1)
        # 0 → 3 → 2 → 1 costs 3 < direct cost 10.
        assert next_hops_of(sim.nodes[0].fib[dest].action)[0] == 3

    def test_bad_cost_rejected(self):
        topo = ring(4)
        with pytest.raises(SimulationError):
            OpenRSimulation(topo, LAYOUT, link_costs={(0, 1): 0})
        with pytest.raises(SimulationError):
            OpenRSimulation(topo, LAYOUT, link_costs={(0, 2): 3})

    def test_unit_costs_unchanged(self):
        topo = ring(4)
        default = OpenRSimulation(topo, LAYOUT, seed=2)
        explicit = OpenRSimulation(
            topo, LAYOUT, link_costs={(0, 1): 1}, seed=2
        )
        for sim in (default, explicit):
            sim.bootstrap()
            sim.run()
        d0 = {(b.device, b.tag): len(b.updates) for b in default.batches}
        d1 = {(b.device, b.tag): len(b.updates) for b in explicit.batches}
        assert d0 == d1
