"""Tests for the BGP-like path-vector substrate and Appendix-D.1 causal
convergence detection."""

import pytest

from repro.ce2d.causal import CausalConvergenceDetector
from repro.results import Verdict
from repro.dataplane.rule import DROP
from repro.errors import DispatchError
from repro.flash import Flash
from repro.headerspace.fields import dst_only_layout
from repro.network.generators import internet2, line, ring
from repro.routing.bgp import BgpSimulation

LAYOUT = dst_only_layout(8)
PREFIX = (0x40, 4)


class TestBgpProtocol:
    def test_announcement_propagates(self):
        topo = line(4)
        sim = BgpSimulation(topo, LAYOUT)
        sim.announce_prefix(0, PREFIX)
        sim.run()
        # Every other router ends with a FIB entry toward the origin.
        for router in (1, 2, 3):
            rule = sim.nodes[router].fib[PREFIX]
            assert rule.action == router - 1

    def test_best_path_prefers_shorter(self):
        topo = ring(4)  # node 2 has two 2-hop paths to 0
        sim = BgpSimulation(topo, LAYOUT)
        sim.announce_prefix(0, PREFIX)
        sim.run()
        assert sim.nodes[1].fib[PREFIX].action == 0
        assert sim.nodes[3].fib[PREFIX].action == 0
        assert sim.nodes[2].fib[PREFIX].action in (1, 3)

    def test_withdrawal_clears_fibs(self):
        topo = line(3)
        sim = BgpSimulation(topo, LAYOUT)
        sim.announce_prefix(0, PREFIX)
        sim.run()
        sim.withdraw_prefix(0, PREFIX)
        sim.run()
        assert PREFIX not in sim.nodes[1].fib
        assert PREFIX not in sim.nodes[2].fib

    def test_loop_prevention_via_as_path(self):
        topo = ring(3)
        sim = BgpSimulation(topo, LAYOUT)
        sim.announce_prefix(0, PREFIX)
        sim.run()
        # No router points away from the origin.
        assert sim.nodes[1].fib[PREFIX].action == 0
        assert sim.nodes[2].fib[PREFIX].action == 0

    def test_unknown_router_rejected(self):
        topo = line(2)
        sim = BgpSimulation(topo, LAYOUT)
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            sim.announce_prefix(99, PREFIX)


class TestCausalConvergence:
    def test_event_converges_exactly_at_quiescence(self):
        topo = ring(4)
        sim = BgpSimulation(topo, LAYOUT)
        detector = CausalConvergenceDetector()
        progression = []
        sim.add_collector(
            lambda rec: progression.append(
                (rec.time, detector.observe(rec) is not None)
            )
        )
        root = sim.announce_prefix(0, PREFIX)
        sim.run()
        assert detector.is_converged(root)
        # Converged exactly once, on the last record.
        completions = [done for _, done in progression if done]
        assert len(completions) == 1
        assert progression[-1][1]

    def test_two_events_tracked_independently(self):
        topo = line(3)
        sim = BgpSimulation(topo, LAYOUT)
        detector = CausalConvergenceDetector()
        sim.add_collector(detector.observe)
        root_a = sim.announce_prefix(0, (0x00, 4))
        sim.run()
        root_b = sim.announce_prefix(2, (0x80, 4))
        sim.run()
        assert detector.is_converged(root_a)
        assert detector.is_converged(root_b)
        updates_a = detector.updates_of(root_a)
        assert updates_a
        assert all(u.epoch == root_a for u in updates_a)

    def test_mid_wave_not_converged(self):
        topo = line(5)
        sim = BgpSimulation(topo, LAYOUT)
        detector = CausalConvergenceDetector()
        sim.add_collector(detector.observe)
        root = sim.announce_prefix(0, PREFIX)
        sim.run(until=sim.message_delay * 1.5)  # only one hop propagated
        assert not detector.is_converged(root)
        assert detector.pending_events() == [root]
        sim.run()
        assert detector.is_converged(root)

    def test_late_record_rejected(self):
        detector = CausalConvergenceDetector()

        class Rec:
            def __init__(self, root, consumed, emitted):
                self.root_event = root
                self.device = 0
                self.consumed = consumed
                self.emitted = emitted
                self.updates = []
                self.time = 0.0

        assert detector.observe(Rec(1, (), ())) is not None  # trivially done
        with pytest.raises(DispatchError):
            detector.observe(Rec(1, (), ()))

    def test_unknown_event_query(self):
        detector = CausalConvergenceDetector()
        with pytest.raises(DispatchError):
            detector.updates_of(42)

    def test_converged_callback(self):
        topo = line(3)
        sim = BgpSimulation(topo, LAYOUT)
        seen = []
        detector = CausalConvergenceDetector(on_converged=lambda s: seen.append(s.root))
        sim.add_collector(detector.observe)
        root = sim.announce_prefix(0, PREFIX)
        sim.run()
        assert seen == [root]


class TestBgpWithFlash:
    def test_converged_event_verifies_loop_free(self):
        """End to end: BGP wave → causal grouping → Flash verification."""
        topo = internet2()
        sim = BgpSimulation(topo, LAYOUT)
        flash = Flash(topo, LAYOUT, check_loops=True)
        detector = CausalConvergenceDetector()

        def feed_on_convergence(state):
            per_device = {}
            for u in state.updates:
                per_device.setdefault(u.device, []).append(u)
            reports = []
            for device in topo.switches():
                reports = flash.receive(
                    device, f"bgp-{state.root}", per_device.get(device, [])
                )
            return reports

        detector.on_converged = feed_on_convergence
        sim.add_collector(detector.observe)
        owner = topo.id_of("seat")
        sim.announce_prefix(owner, PREFIX)
        sim.run()
        verdicts = [r.verdict for r in flash.deterministic_reports()]
        assert verdicts[-1] is Verdict.SATISFIED  # loop-free converged state


class TestBgpProperties:
    """Randomized BGP: converged FIBs equal shortest-path ground truth."""

    @pytest.mark.parametrize("seed", range(8))
    def test_converged_fibs_are_shortest_paths(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(4, 7)
        from repro.network.topology import Topology

        topo = Topology()
        for i in range(n):
            topo.add_device(f"r{i}")
        for i in range(1, n):
            topo.add_link(i, rng.randrange(i))
        for _ in range(rng.randint(0, n)):
            u, v = rng.sample(range(n), 2)
            if not topo.has_link(u, v):
                topo.add_link(u, v)
        owner = rng.randrange(n)
        sim = BgpSimulation(topo, LAYOUT)
        detector = CausalConvergenceDetector()
        sim.add_collector(detector.observe)
        root = sim.announce_prefix(owner, PREFIX)
        sim.run()
        assert detector.is_converged(root)
        dist = {owner: 0}
        frontier = [owner]
        while frontier:
            nxt = []
            for u in frontier:
                for v in topo.neighbors(u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        for router in topo.switches():
            if router == owner:
                assert PREFIX not in sim.nodes[router].fib
                continue
            hop = sim.nodes[router].fib[PREFIX].action
            assert dist[hop] == dist[router] - 1, (seed, router)

    @pytest.mark.parametrize("seed", range(4))
    def test_announce_withdraw_announce_converges(self, seed):
        topo = internet2()
        sim = BgpSimulation(topo, LAYOUT)
        detector = CausalConvergenceDetector()
        sim.add_collector(detector.observe)
        owner = topo.switches()[seed % 9]
        events = [
            sim.announce_prefix(owner, PREFIX),
        ]
        sim.run()
        events.append(sim.withdraw_prefix(owner, PREFIX))
        sim.run()
        events.append(sim.announce_prefix(owner, PREFIX))
        sim.run()
        assert all(detector.is_converged(e) for e in events)
        assert detector.pending_events() == []
        # After the final announcement every router routes again.
        for router in topo.switches():
            if router != owner:
                assert PREFIX in sim.nodes[router].fib
