"""Tests for epoch tracking, the dispatcher, Algorithm 2 and Algorithm 3."""

import dataclasses
import itertools
import random
from pathlib import Path

import pytest

from repro.bdd.predicate import Predicate
from repro.ce2d.dispatcher import CE2DDispatcher
from repro.ce2d.epoch import EpochTracker
from repro.ce2d.loop_detector import LoopDetector
from repro.ce2d.regex_verifier import RegexVerifier
from repro.results import Verdict
from repro.ce2d.verifier import SubspaceVerifier
from repro.dataplane.rule import DROP, Rule
from repro.dataplane.update import delete, insert
from repro.difftest.corpus import iter_cases
from repro.flash import Flash
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match
from repro.network.generators import figure3_example, line, ring
from repro.network.topology import Topology
from repro.spec.requirement import Multiplicity, requirement

from .ce2d_oracles import EagerLoopDetector, MemoFreeRegexVerifier

LAYOUT = dst_only_layout(4)
CORPUS_DIR = Path(__file__).parent / "corpus"


def fwd(topo, device_name, next_name, pri=1):
    """An 'everything to next hop' rule for tests."""
    topo_id = topo.id_of(device_name)
    rule = Rule(pri, Match.wildcard(), topo.id_of(next_name))
    return insert(topo_id, rule)


class TestEpochTracker:
    def test_first_tag_becomes_active(self):
        t = EpochTracker()
        assert t.observe(0, "e1")
        assert t.is_active("e1")

    def test_successor_deactivates_predecessor(self):
        t = EpochTracker()
        t.observe(0, "e1")
        t.observe(0, "e2")
        assert not t.is_active("e1")
        assert t.is_inactive("e1")
        assert t.is_active("e2")

    def test_cross_device_inactivation(self):
        # Paper's example: t2 seen before t3 on one device kills t2 globally.
        t = EpochTracker()
        t.observe(0, "t1")            # S at t1
        t.observe(1, "t2")            # A at t2
        t.observe(2, "t2")            # B at t2
        assert t.active_tags() == {"t1", "t2"}
        for dev in (0, 1, 2):
            t.observe(dev, "t3")
        assert t.active_tags() == {"t3"}
        # Late arrival of t2 from a dampened device does not resurrect it.
        assert not t.observe(3, "t2") or not t.is_active("t2")
        assert not t.is_active("t2")

    def test_same_tag_idempotent(self):
        t = EpochTracker()
        t.observe(0, "e")
        assert not t.observe(0, "e")

    def test_devices_at(self):
        t = EpochTracker()
        t.observe(0, "e")
        t.observe(1, "e")
        t.observe(2, "f")
        assert sorted(t.devices_at("e")) == [0, 1]
        assert t.latest_of(2) == "f"

    def test_active_tags_in_first_observation_order(self):
        # Not hash order: the dispatcher schedules epochs by iterating this.
        import random

        tags = [f"epoch-{i}" for i in range(50)]
        random.Random(7).shuffle(tags)
        t = EpochTracker()
        for device, tag in enumerate(tags):
            t.observe(device, tag)
        assert list(t.active_tags()) == tags
        t.observe(0, tags[10])  # retires tags[0]; tags[10] keeps its place
        assert list(t.active_tags()) == tags[1:]


class TestLoopDetector:
    """Algorithm 3 on small crafted topologies."""

    def _feed(self, verifier, topo, hops):
        """Sync devices one at a time with 'forward to next' rules."""
        reports = []
        for device_name, next_name in hops:
            reports.extend(
                verifier.receive(
                    topo.id_of(device_name), [fwd(topo, device_name, next_name)]
                )
            )
        return reports

    def test_deterministic_loop_found_early(self):
        topo = ring(4)  # 0-1-2-3-0
        verifier = SubspaceVerifier(topo, LAYOUT, check_loops=True)
        # 0 → 1 and 1 → 0 form a 2-loop; devices 2 and 3 still unsynced.
        r1 = verifier.receive(0, [insert(0, Rule(1, Match.wildcard(), 1))])
        assert r1[0].verdict is Verdict.UNKNOWN
        r2 = verifier.receive(1, [insert(1, Rule(1, Match.wildcard(), 0))])
        assert r2[0].verdict is Verdict.VIOLATED
        assert set(r2[0].loop_path) >= {0, 1}

    def test_loop_via_hyper_node_is_not_deterministic(self):
        # Figure 5(a): C and X unsynchronised; A→C&X possible loop only.
        topo = Topology()
        for name in "ABCX":
            topo.add_device(name)
        out = topo.add_external("out")
        topo.add_link_by_name("A", "B")
        topo.add_link_by_name("A", "C")
        topo.add_link_by_name("C", "X")
        topo.add_link_by_name("X", "B")
        topo.add_link(topo.id_of("C"), out)
        verifier = SubspaceVerifier(topo, LAYOUT, check_loops=True)
        # The shipped search does not count potential loops; the eager
        # oracle, fed the same stream, shows there was one.
        oracle = EagerLoopDetector(topo)
        verifier.add_checker(oracle)
        reports = self._feed(verifier, topo, [("B", "A"), ("A", "C")])
        assert all(r.verdict is Verdict.UNKNOWN for r in reports)
        assert oracle.potential_loops > 0

    def test_figure5b_loop_detected_with_unsynced_x(self):
        # Figure 5(b): C synchronised; B→A→X→B... the paper's case is that a
        # loop through the synced part closes regardless of X — here we build
        # the deterministic variant: A→B, B→C, C→A all synced, X dark.
        topo = Topology()
        for name in "ABCX":
            topo.add_device(name)
        topo.add_link_by_name("A", "B")
        topo.add_link_by_name("B", "C")
        topo.add_link_by_name("C", "A")
        topo.add_link_by_name("C", "X")
        verifier = SubspaceVerifier(topo, LAYOUT, check_loops=True)
        reports = self._feed(
            verifier, topo, [("A", "B"), ("B", "C"), ("C", "A")]
        )
        assert reports[-1].verdict is Verdict.VIOLATED

    def test_no_loop_reports_satisfied_when_converged(self):
        topo = line(3)
        sink = topo.add_external("sink")
        topo.add_link(2, sink)
        verifier = SubspaceVerifier(topo, LAYOUT, check_loops=True)
        verifier.receive(0, [insert(0, Rule(1, Match.wildcard(), 1))])
        verifier.receive(1, [insert(1, Rule(1, Match.wildcard(), 2))])
        reports = verifier.receive(2, [insert(2, Rule(1, Match.wildcard(), sink))])
        assert reports[0].verdict is Verdict.SATISFIED

    def test_drop_action_is_loop_free(self):
        topo = ring(3)
        verifier = SubspaceVerifier(topo, LAYOUT, check_loops=True)
        for device in topo.switches():
            reports = verifier.receive(device, [])  # default action DROP
        assert reports[0].verdict is Verdict.SATISFIED

    def test_loop_on_subset_of_header_space(self):
        """A loop for one EC only (prefix-specific loop)."""
        topo = ring(4)
        verifier = SubspaceVerifier(topo, LAYOUT, check_loops=True)
        half = Match.dst_prefix(0b1000, 1, LAYOUT)
        verifier.receive(0, [insert(0, Rule(2, half, 1))])
        reports = verifier.receive(1, [insert(1, Rule(2, half, 0))])
        assert reports[0].verdict is Verdict.VIOLATED

    def test_disjoint_half_spaces_no_loop(self):
        """0→1 for one half, 1→0 for the other: no packet loops."""
        topo = ring(4)
        verifier = SubspaceVerifier(topo, LAYOUT, check_loops=True)
        high = Match.dst_prefix(0b1000, 1, LAYOUT)
        low = Match.dst_prefix(0b0000, 1, LAYOUT)
        verifier.receive(0, [insert(0, Rule(2, high, 1))])
        reports = verifier.receive(1, [insert(1, Rule(2, low, 0))])
        assert reports[0].verdict is Verdict.UNKNOWN  # 2, 3 still dark

    def test_incremental_no_rescan(self):
        topo = ring(4)
        verifier = SubspaceVerifier(topo, LAYOUT, check_loops=True)
        verifier.receive(2, [insert(2, Rule(1, Match.wildcard(), 3))])
        verifier.receive(3, [insert(3, Rule(1, Match.wildcard(), 0))])
        r = verifier.receive(0, [insert(0, Rule(1, Match.wildcard(), 1))])
        assert r[0].verdict is Verdict.UNKNOWN
        r = verifier.receive(1, [insert(1, Rule(1, Match.wildcard(), 2))])
        assert r[0].verdict is Verdict.VIOLATED


class TestRegexVerifierEndToEnd:
    def _figure3_requirement(self, topo, multiplicity=Multiplicity.UNICAST):
        return requirement(
            "waypoint",
            topo,
            LAYOUT,
            Match.wildcard(),
            ["S"],
            "S .* [W|Y] .* D",
            multiplicity,
        )

    def test_satisfied_via_waypoint(self):
        topo = figure3_example()
        req = self._figure3_requirement(topo)
        verifier = SubspaceVerifier(topo, LAYOUT, requirements=[req])
        hops = [("S", "W"), ("W", "C"), ("C", "D")]
        last = None
        for u, v in hops:
            last = verifier.receive(topo.id_of(u), [fwd(topo, u, v)])
        # S→W→C→D satisfies even though A,B,E,Y,D are unsynced... D must be
        # synced too (it is the accepting device but takes no further hop).
        assert last[0].verdict in (Verdict.SATISFIED, Verdict.UNKNOWN)
        last = verifier.receive(topo.id_of("D"), [])
        assert last[0].verdict is Verdict.SATISFIED

    def test_paper_update_sequence_violation(self):
        """Figure 4(b): after Updates 1 and 2 of epoch [1,1,...], the
        requirement is consistently violated before W/Y/C ever report."""
        topo = figure3_example()
        req = self._figure3_requirement(topo)
        verifier = SubspaceVerifier(topo, LAYOUT, requirements=[req])
        # Update 1: S forwards to A (link S-W is down).
        r = verifier.receive(topo.id_of("S"), [fwd(topo, "S", "A")])
        assert r[0].verdict is Verdict.UNKNOWN
        # Update 2: A forwards back to S; B forwards to E (link B-Y down).
        r = verifier.receive(topo.id_of("A"), [fwd(topo, "A", "S")])
        assert r[0].verdict is Verdict.VIOLATED
        # The verdict is final; further updates cannot flip it.
        r = verifier.receive(topo.id_of("B"), [fwd(topo, "B", "E")])
        assert r[0].verdict is Verdict.VIOLATED

    def test_early_violation_when_cut(self):
        topo = figure3_example()
        req = requirement(
            "reach", topo, LAYOUT, Match.wildcard(), ["S"], "S .* D"
        )
        verifier = SubspaceVerifier(topo, LAYOUT, requirements=[req])
        # S drops everything: no path can exist no matter what others do.
        reports = verifier.receive(topo.id_of("S"), [])
        assert reports[0].verdict is Verdict.VIOLATED

    def test_cover_requirement(self):
        topo = figure3_example()
        req = requirement(
            "cover-shortest",
            topo,
            LAYOUT,
            Match.wildcard(),
            ["S"],
            "cover (S W C)",
        )
        verifier = SubspaceVerifier(topo, LAYOUT, requirements=[req])
        # S must forward to W (the only graph successor of S here).
        r = verifier.receive(topo.id_of("S"), [fwd(topo, "S", "A")])
        assert r[0].verdict is Verdict.VIOLATED

    def test_cover_satisfied(self):
        topo = figure3_example()
        req = requirement(
            "cover-shortest", topo, LAYOUT, Match.wildcard(), ["S"],
            "cover (S W C)",
        )
        verifier = SubspaceVerifier(topo, LAYOUT, requirements=[req])
        r = verifier.receive(topo.id_of("S"), [fwd(topo, "S", "W")])
        assert r[0].verdict is Verdict.UNKNOWN
        r = verifier.receive(topo.id_of("W"), [fwd(topo, "W", "C")])
        assert r[0].verdict is Verdict.UNKNOWN
        r = verifier.receive(topo.id_of("C"), [fwd(topo, "C", "D")])
        assert r[0].verdict is Verdict.SATISFIED

    def test_cover_rechecks_a_device_that_re_reports(self):
        # S, synchronised, re-reports under the same tag and stops
        # forwarding to W: the ECs that batch changed are checked again.
        topo = figure3_example()
        req = requirement(
            "cover-shortest", topo, LAYOUT, Match.wildcard(), ["S"],
            "cover (S W C)",
        )
        s_to_w = Rule(1, Match.wildcard(), topo.id_of("W"))
        s_to_a = Rule(1, Match.wildcard(), topo.id_of("A"))
        verifier = SubspaceVerifier(topo, LAYOUT, requirements=[req])
        flash = Flash(topo, LAYOUT, requirements=[req], check_loops=False)
        for device, next_name in (("S", "W"), ("W", "C"), ("C", "D")):
            batch = [fwd(topo, device, next_name)]
            r = verifier.receive(topo.id_of(device), batch)
            f = flash.receive(topo.id_of(device), "e1", batch)
        assert r[0].verdict is f[0].verdict is Verdict.SATISFIED
        again = [delete(topo.id_of("S"), s_to_w), insert(topo.id_of("S"), s_to_a)]
        r = verifier.receive(topo.id_of("S"), again)
        assert r[0].verdict is Verdict.VIOLATED
        r = flash.receive(topo.id_of("S"), "e1", again)
        assert r[0].verdict is Verdict.VIOLATED


    def test_cover_fresh_sync_conjoins_only_ecs_its_signature_admits(self):
        """A fresh sync checks the model's in-space ECs; an EC whose
        signature misses the space's is settled without a conjunction."""
        topo = figure3_example()
        high = Match.dst_prefix(0b1000, 1, LAYOUT)
        req = requirement(
            "cover-high", topo, LAYOUT, high, ["S"], "cover (S W C)"
        )
        verifier = SubspaceVerifier(
            topo, LAYOUT, requirements=[req], check_loops=False
        )
        engine = verifier.manager.compiler.engine
        s = topo.id_of("S")
        low = Rule(2, Match.dst_prefix(0b0000, 1, LAYOUT), topo.id_of("A"))
        batch = [fwd(topo, "S", "W"), insert(s, low)]
        assert verifier.receive(s, batch)[0].verdict is Verdict.UNKNOWN
        space = verifier.regex_verifiers[0].space
        entries = list(verifier.manager.model.entries())
        admitted = sum(
            1
            for pred, _ in entries
            if engine.signature(pred) & engine.signature(space)
        )
        assert 0 < admitted < len(entries)
        engine.metrics.reset()
        # W drops everything: C, its successor on the graph, is missing.
        r = verifier.receive(topo.id_of("W"), [])
        assert r[0].verdict is Verdict.VIOLATED
        assert engine.metrics.total == admitted


def _with_memo_free_twins(topo, layout, requirements, subspace_match=None):
    """A verifier whose every regex checker has a memo-free twin attached
    as a custom checker, so both see the same deltas and model."""
    verifier = SubspaceVerifier(
        topo, layout, requirements=requirements, subspace_match=subspace_match
    )
    for req in requirements:
        verifier.add_checker(
            MemoFreeRegexVerifier(
                req,
                topo,
                layout,
                verifier.manager.compiler,
                universe=verifier.manager.model.universe,
            )
        )
    return verifier


def _assert_twins_agree(reports, count, context):
    for ours, twin in zip(reports[:count], reports[count:]):
        assert (ours.requirement, ours.verdict, ours.detail) == (
            twin.requirement,
            twin.verdict,
            twin.detail,
        ), context


def _corpus_scenarios():
    for path, case in iter_cases(CORPUS_DIR):
        yield pytest.param(getattr(case, "scenario", case), id=path.stem)


class TestRegexSpaceCarryOver:
    """The inside/outside carry-over against a verifier without it."""

    @pytest.mark.parametrize("scenario", _corpus_scenarios())
    def test_corpus_reports_equal_memo_free_oracle(self, scenario):
        topo, layout = scenario.build_topology(), scenario.build_layout()
        specs = [s for s in scenario.requirements if "cover" not in s.expression]
        # Each requirement again on the low half of dst, so the space has an
        # outside for ECs to be in.
        half = Match.dst_prefix(0, 1, layout)
        specs += [
            dataclasses.replace(s, name=f"{s.name}/low", packet_space=half)
            for s in specs
        ]
        reqs = [s.build(topo, layout) for s in specs]
        verifier = _with_memo_free_twins(topo, layout, reqs)
        per_device = {d: [] for d in topo.switches()}
        for update in scenario.updates:
            per_device[update.device].append(update)
        # The scenario's own sync order, then every device confirming an
        # unchanged FIB (every EC keeps its node: all probes, no conjunction).
        for device in (*scenario.order, *scenario.order):
            reports = verifier.receive(device, per_device.pop(device, []))
            _assert_twins_agree(reports, len(reqs), (scenario.name, device))

    def test_universe_disjoint_from_space_reports_as_before(self):
        """A subspace verifier whose universe misses the requirement's
        packet space: the initial EC is never in the ecTable."""
        topo = figure3_example()
        req = requirement(
            "reach-high",
            topo,
            LAYOUT,
            Match.dst_prefix(0b1000, 1, LAYOUT),
            ["S"],
            "S .* D",
        )
        low = Match.dst_prefix(0b0000, 1, LAYOUT)
        verifier = _with_memo_free_twins(topo, LAYOUT, [req], subspace_match=low)
        ours, twin = verifier.regex_verifiers[0], verifier.custom_checkers[0]
        assert ours.report().detail == twin.report().detail == "0 ECs in space"
        steps = [("S", [fwd(topo, "S", "A")]), ("A", []), ("S", [])]
        for name, batch in steps:
            reports = verifier.receive(topo.id_of(name), batch)
            _assert_twins_agree(reports, 1, name)
            assert reports[0].verdict is Verdict.UNKNOWN
            assert reports[0].detail == "0 ECs in space"

    def test_ec_leaving_and_reentering_the_space_is_retested(self, monkeypatch):
        """Nothing outlives one update: a predicate that drops out of the
        EC list and comes back is tested against the space again, while an
        EC that merely stays costs no conjunction."""
        topo = figure3_example()
        high = Match.dst_prefix(0b1000, 1, LAYOUT)
        req = requirement("reach-high", topo, LAYOUT, high, ["S"], "S .* D")
        verifier = _with_memo_free_twins(topo, LAYOUT, [req])
        ours = verifier.regex_verifiers[0]
        tested = []
        intersects = Predicate.intersects

        def spy(pred, other):
            if other is ours.space:
                tested.append(pred.node)
            return intersects(pred, other)

        monkeypatch.setattr(Predicate, "intersects", spy)
        s, a = topo.id_of("S"), topo.id_of("A")
        split = Rule(2, high, a)

        def step(device, batch):
            tested.clear()
            reports = verifier.receive(device, batch)
            _assert_twins_agree(reports, 1, (device, batch))
            nodes = {p.node for p, _ in verifier.manager.model.entries()}
            # The twin tests every EC; we test the rest.
            return nodes, len(tested) - len(nodes)

        whole, _ = step(s, [fwd(topo, "S", "W")])
        assert len(whole) == 1
        halves, ours_tested = step(a, [insert(a, split)])
        assert len(halves) == 2 and not (halves & whole)
        # Both halves are new nodes; the low one's signature misses the
        # space's, so only the high one costs a conjunction.
        assert ours_tested == 1
        _, ours_tested = step(a, [])
        assert ours_tested == 0  # unchanged ECs: probes only
        merged, ours_tested = step(a, [delete(a, split)])
        assert merged == whole  # the same predicate node is back ...
        assert ours_tested == 1  # ... and is tested again


    def test_signatures_settle_ecs_outside_the_space(self):
        """An EC whose signature misses the space's costs no conjunction:
        of the ECs a step makes, only those that may meet it are tested."""
        topo = figure3_example()
        high = Match.dst_prefix(0b1000, 1, LAYOUT)
        req = requirement("reach-high", topo, LAYOUT, high, ["S"], "S .* D")
        verifier = SubspaceVerifier(
            topo, LAYOUT, requirements=[req], check_loops=False
        )
        engine = verifier.manager.compiler.engine
        a = topo.id_of("A")
        rules = [
            Rule(3, Match.dst_prefix(v, 3, LAYOUT), hop)
            for v, hop in ((0b0000, "B"), (0b0010, "D"), (0b0100, "S"))
        ]
        rules.append(Rule(3, Match.dst_prefix(0b1100, 2, LAYOUT), "C"))
        batch = [insert(a, Rule(r.priority, r.match, topo.id_of(r.action)))
                 for r in rules]
        lineage = verifier.apply(batch)
        engine.metrics.reset()
        verifier.observe(lineage, [a])
        # Three ECs in the low half, one in the high half, and what is left
        # of the universe, which meets both: two conjunctions, not five.
        assert len(lineage.changed) == 5
        assert engine.metrics.total == 2


def _epoch_stream(rng, epochs=4):
    """A random switch graph plus two fixed devices, and epoch-tagged
    batches in arrival order, each re-rolling one priority slot:

    * ``x`` hangs off ``s0`` and never installs a rule, so it drops
      everything from the moment it synchronises;
    * ``s1`` sends everything to the external ``h`` above any other rule.

    Epoch ``e``'s batches arrive from time ``e`` on: ``x`` and ``s1``
    first, so two requirements are decided early, the others within 1.5,
    so a batch may land in the next epoch, which sees it as lineage only.
    """
    topo = Topology()
    n = rng.randint(4, 6)
    for i in range(n):
        topo.add_device(f"s{i}")
    for i in range(1, n):
        topo.add_link(i, rng.randrange(i))
    for _ in range(rng.randint(1, n)):
        u, v = rng.sample(range(n), 2)
        if not topo.has_link(u, v):
            topo.add_link(u, v)
    x = topo.add_device("x")
    topo.add_link(x, 0)
    h = topo.add_external("h")
    topo.add_link(1, h)
    state = {d: {} for d in range(n)}
    arrivals, last = [], {}
    for e in range(epochs):
        tag = f"e{e}"
        arrivals.append((e, x, tag, []))
        for device in range(n):
            updates = []
            if device == 1 and e == 0:
                updates.append(insert(1, Rule(9, Match.wildcard(), h), epoch=tag))
            pri = rng.randint(1, 2)
            old = state[device].get(pri)
            action = rng.choice(sorted(topo.neighbors(device)) + [DROP])
            match = Match.dst_prefix(rng.randrange(16), rng.randint(0, 3), LAYOUT)
            new = Rule(pri, match, action)
            if old is not None:
                updates.append(delete(device, old, epoch=tag))
            updates.append(insert(device, new, epoch=tag))
            state[device][pri] = new
            lag = 0.0 if device == 1 else 0.01 + 1.49 * rng.random()
            # A device's own batches keep their order.
            last[device] = max(e + lag, last.get(device, -1.0) + 0.001)
            arrivals.append((last[device], device, tag, updates))
    arrivals.sort(key=lambda arrival: arrival[0])
    return topo, [arrival[1:] for arrival in arrivals]


class TestRegexTwinOnEpochStreams:
    """Flash's requirement-local, latched checkers against memo-free twins
    on multi-epoch tagged streams, lineage-only calls included."""

    @pytest.mark.parametrize("threshold", [None, 1])
    @pytest.mark.parametrize("seed", range(12))
    def test_every_batch_equals_memo_free_twin(self, seed, threshold):
        rng = random.Random(seed)
        topo, arrivals = _epoch_stream(rng)
        low = Match.dst_prefix(0, 1, LAYOUT)
        reqs = [
            # Violated once x synchronises, while the table keeps splitting.
            requirement("blackhole", topo, LAYOUT, Match.wildcard(), ["x"], "x .* s0"),
            # Satisfied once s1 synchronises.
            requirement("to-h", topo, LAYOUT, low, ["s1"], "s1 .* h"),
        ]
        for i in range(2):
            u, v = rng.sample([f"s{d}" for d in range(len(topo.switches()) - 1)], 2)
            space = Match.dst_prefix(rng.randrange(16), rng.randint(0, 2), LAYOUT)
            reqs.append(requirement(f"r{i}", topo, LAYOUT, space, [u], f"{u} .* {v}"))
        flash = Flash(topo, LAYOUT, requirements=reqs, block_threshold=threshold)
        make = flash.dispatcher.factory

        def with_twins(tag):
            group = make(tag)
            for member in group.members:
                for ours in member.regex_verifiers:
                    member.add_checker(
                        MemoFreeRegexVerifier(
                            ours.requirement,
                            topo,
                            LAYOUT,
                            member.manager.compiler,
                            universe=member.manager.model.universe,
                        )
                    )
            return group

        flash.dispatcher.factory = with_twins
        details_after_deciding = set()
        for device, tag, updates in arrivals:
            flash.receive(device, tag, updates)
            for group in flash.dispatcher.verifiers.values():
                for member in group.members:
                    for ours, twin in zip(
                        member.regex_verifiers, member.custom_checkers
                    ):
                        got, want = ours.report(), twin.report()
                        assert (got.requirement, got.verdict, got.detail) == (
                            want.requirement,
                            want.verdict,
                            want.detail,
                        ), (seed, threshold, device, tag)
                        if ours._decided is not None:
                            details_after_deciding.add((tag, got.requirement, got.detail))
        # Some requirement was decided and its table still moved on.
        decided = [(t, r) for t, r, _ in details_after_deciding]
        assert len(set(decided)) < len(decided), seed


class TestLineageOnlyJudging:
    def test_lineage_only_call_judges_only_newborn_entries(self, monkeypatch):
        """Nobody synchronised, so an entry that was there keeps its graph
        and its verdict: only the entries the call created are judged."""
        topo = figure3_example()
        req = requirement("reach", topo, LAYOUT, Match.wildcard(), ["S"], "S .* D")
        verifier = SubspaceVerifier(topo, LAYOUT, requirements=[req])
        ours = verifier.regex_verifiers[0]
        judged = []
        judge = RegexVerifier._judge

        def spy(self, entry):
            if self is ours:
                judged.append(entry)
            return judge(self, entry)

        monkeypatch.setattr(RegexVerifier, "_judge", spy)
        a, b = topo.id_of("A"), topo.id_of("B")
        high = Match.dst_prefix(0b1000, 1, LAYOUT)
        quarter = Match.dst_prefix(0b0100, 2, LAYOUT)
        verifier.receive(topo.id_of("S"), [fwd(topo, "S", "W")])
        # A, outside the epoch, splits the space in halves; then B splits
        # the low half, leaving the high one as it was.
        for device, rule in [(a, Rule(2, high, b)), (b, Rule(2, quarter, a))]:
            before = {id(e) for e in ours._table.values()}
            judged.clear()
            assert verifier.observe(verifier.apply([insert(device, rule)]), ()) == []
            born = {id(e) for e in ours._table.values()} - before
            assert born and sorted(map(id, judged)) == sorted(born)
        assert len(ours._table) == 3
        assert {e.verdict for e in ours._table.values()} == {Verdict.UNKNOWN}


def loop_dispatcher(topo, **kwargs):
    """A bare dispatcher: one trunk model, loop checkers per epoch over it."""
    trunk = SubspaceVerifier(topo, LAYOUT)
    return CE2DDispatcher(
        trunk,
        lambda tag: SubspaceVerifier(
            topo, LAYOUT, epoch=tag, check_loops=True, manager=trunk.manager
        ),
        **kwargs,
    )


class TestDispatcher:

    def test_creates_verifier_for_active_epoch(self):
        topo = ring(4)
        dispatcher = loop_dispatcher(topo)
        dispatcher.receive(0, "e1", [insert(0, Rule(1, Match.wildcard(), 1))])
        assert dispatcher.verifier_for("e1") is not None

    def test_stale_epoch_dropped(self):
        topo = ring(4)
        dispatcher = loop_dispatcher(topo)
        dispatcher.receive(0, "e1", [])
        dispatcher.receive(0, "e2", [])
        assert dispatcher.verifier_for("e1") is None
        assert dispatcher.verifier_for("e2") is not None

    def test_updates_for_inactive_epoch_queued_not_dispatched(self):
        topo = ring(4)
        dispatcher = loop_dispatcher(topo)
        dispatcher.receive(0, "e2", [])            # device 0 already at e2
        dispatcher.receive(0, "e3", [])            # e2 now inactive
        dispatcher.receive(1, "e2", [])            # stale: queued, dropped
        assert dispatcher.verifier_for("e2") is None
        v3 = dispatcher.verifier_for("e3")
        assert v3.num_synced == 1  # only device 0

    def test_loop_detected_within_epoch(self):
        topo = ring(4)
        dispatcher = loop_dispatcher(topo)
        dispatcher.receive(0, "e1", [insert(0, Rule(1, Match.wildcard(), 1))])
        reports = dispatcher.receive(
            1, "e1", [insert(1, Rule(1, Match.wildcard(), 0))]
        )
        assert any(r.verdict is Verdict.VIOLATED for r in reports)
        assert dispatcher.deterministic_reports()

    def test_two_parallel_epochs(self):
        topo = ring(4)
        dispatcher = loop_dispatcher(topo)
        dispatcher.receive(0, "eA", [insert(0, Rule(1, Match.wildcard(), 1))])
        dispatcher.receive(1, "eB", [insert(1, Rule(1, Match.wildcard(), 2))])
        assert dispatcher.tracker.active_tags() == {"eA", "eB"}
        assert set(dispatcher.verifiers) == {"eA", "eB"}

    def test_max_live_verifiers_backoff(self):
        topo = ring(4)
        dispatcher = loop_dispatcher(topo, max_live_verifiers=1)
        dispatcher.receive(0, "eA", [])
        dispatcher.receive(1, "eB", [])
        assert len(dispatcher.verifiers) == 1

    def test_freed_slot_goes_to_the_oldest_deferred_epoch(self):
        topo = ring(8)
        dispatcher = loop_dispatcher(topo, max_live_verifiers=1)
        for device in range(7):
            dispatcher.receive(device, f"e{device}", [])
        assert list(dispatcher.verifiers) == ["e0"]
        for device in range(6):
            # The device moves on, its epoch retires, and the slot goes to
            # the next-oldest of the epochs still waiting — with one
            # checker pass over the device already there.
            dispatcher.receive(device, "e7", [])
            assert list(dispatcher.verifiers) == [f"e{device + 1}"]
            assert dispatcher.latest_verifier().synced == {device + 1}

    def test_requires_epoch_tag(self):
        from repro.errors import DispatchError

        topo = ring(4)
        dispatcher = loop_dispatcher(topo)
        with pytest.raises(DispatchError):
            dispatcher.receive(0, None, [])


class TestRejectedBatch:
    """No validator in front: a batch the model rejects is rejected once."""

    @staticmethod
    def _host(topo, device, value):
        rule = Rule(1, Match.dst_prefix(value, 4, LAYOUT), (device + 1) % 4)
        return rule, insert(device, rule)

    def test_rejection_poisons_no_later_epoch(self):
        from repro.errors import RuleNotFoundError
        from repro.flash import Flash

        topo = ring(4)
        flash = Flash(topo, LAYOUT, check_loops=True)
        accepted = [self._host(topo, 0, 0x1)]
        flash.receive(0, "e1", [accepted[0][1]])
        missing, _ = self._host(topo, 0, 0x7)
        tracker = flash.dispatcher.tracker
        with pytest.raises(RuleNotFoundError):
            flash.receive(0, "e2", [delete(0, missing)])
        # The rejected batch left tracker, trunk and verifiers as they were.
        assert tracker.latest_of(0) == "e1"
        assert list(flash.dispatcher.verifiers) == ["e1"]
        # The same device, then another one, in a new epoch: no stale error.
        for device, value in ((0, 0x3), (0, 0x4), (1, 0x5)):
            accepted.append(self._host(topo, device, value))
            assert flash.receive(device, "e3", [accepted[-1][1]])
        view = flash.read_view()
        for value in range(LAYOUT.universe_size):
            behavior = view.behavior(dict(LAYOUT.bits_of("dst", value)))
            expected = {d: DROP for d in topo.switches()}
            for rule, update in accepted:
                if rule.match == Match.dst_prefix(value, 4, LAYOUT):
                    expected[update.device] = rule.action
            assert behavior == expected, value
