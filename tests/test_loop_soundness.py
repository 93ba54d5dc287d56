"""Soundness of early loop detection (the Appendix-D.4 guarantee) plus the
§5.1 custom-checker extension point.

The strongest test we can run: when the detector claims VIOLATED from
*partial* information, every possible completion of the unsynchronised
devices' FIBs must still contain that loop; and on fully-synchronised
models the verdict must match a brute-force cycle search over every EC.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.results import Verdict, VerificationReport
from repro.ce2d.loop_detector import LoopDetector
from repro.core.inverse_model import Lineage
from repro.ce2d.verifier import Checker, SubspaceVerifier
from repro.dataplane.rule import DROP, Rule, next_hops_of
from repro.dataplane.update import delete, insert
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match
from repro.network.generators import line
from repro.network.topology import Topology
from repro.telemetry import Telemetry

from .ce2d_oracles import EagerLoopDetector
from .conftest import case_rng

LAYOUT = dst_only_layout(3)


def random_topology(rng):
    n = rng.randint(4, 6)
    topo = Topology()
    for i in range(n):
        topo.add_device(f"s{i}")
    for i in range(1, n):
        topo.add_link(i, rng.randrange(i))
    for _ in range(rng.randint(1, n)):
        u, v = rng.sample(range(n), 2)
        if not topo.has_link(u, v):
            topo.add_link(u, v)
    return topo


def random_action(topo, device, rng):
    return rng.choice(sorted(topo.neighbors(device)) + [DROP])


def random_fibs(topo, rng):
    fibs = {}
    halves = [Match.dst_prefix(0, 1, LAYOUT), Match.dst_prefix(4, 1, LAYOUT)]
    for switch in topo.switches():
        updates = []
        for pri, half in enumerate(halves, start=1):
            action = random_action(topo, switch, rng)
            if action != DROP:
                updates.append(insert(switch, Rule(pri, half, action)))
        fibs[switch] = updates
    return fibs


def brute_force_has_loop(topo, fibs):
    """Ground truth on a complete data plane: walk every header from every
    switch and look for a revisit."""
    from repro.dataplane.fib import FibSnapshot

    snapshot = FibSnapshot(topo.switches())
    for updates in fibs.values():
        for u in updates:
            snapshot.table(u.device).insert(u.rule)
    for header in range(LAYOUT.universe_size):
        values = LAYOUT.unflatten(header)
        for start in topo.switches():
            current, seen = start, set()
            while True:
                if current in seen:
                    return True
                seen.add(current)
                action = snapshot.table(current).lookup(values)
                hops = next_hops_of(action)
                if not hops or hops[0] not in snapshot.tables:
                    break
                current = hops[0]
    return False


class TestFullSyncMatchesBruteForce:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_converged_verdict_equals_ground_truth(self, seed):
        rng = random.Random(seed)
        topo = random_topology(rng)
        fibs = random_fibs(topo, rng)
        verifier = SubspaceVerifier(topo, LAYOUT, check_loops=True)
        for device in topo.switches():
            reports = verifier.receive(device, fibs[device])
        expected = brute_force_has_loop(topo, fibs)
        final = reports[0].verdict
        assert final is (Verdict.VIOLATED if expected else Verdict.SATISFIED), seed


class TestPartialSyncSoundness:
    @given(st.integers(0, 10_000), st.data())
    @settings(max_examples=40, deadline=None)
    def test_early_violation_survives_any_completion(self, seed, data):
        rng = random.Random(seed)
        topo = random_topology(rng)
        fibs = random_fibs(topo, rng)
        switches = list(topo.switches())
        rng.shuffle(switches)
        verifier = SubspaceVerifier(topo, LAYOUT, check_loops=True)
        violated_after = None
        for i, device in enumerate(switches):
            reports = verifier.receive(device, fibs[device])
            if reports[0].verdict is Verdict.VIOLATED:
                violated_after = i
                break
        if violated_after is None:
            return  # nothing to check this run
        synced = switches[: violated_after + 1]
        unsynced = switches[violated_after + 1 :]
        # Any completion of the unsynced FIBs must still loop: try several
        # random completions plus the all-drop completion.
        completions = [dict.fromkeys(unsynced, [])]
        for _ in range(3):
            crng = random.Random(data.draw(st.integers(0, 10_000)))
            completions.append(
                {d: random_fibs(topo, crng)[d] for d in unsynced}
            )
        for completion in completions:
            candidate = {d: fibs[d] for d in synced}
            candidate.update(completion)
            assert brute_force_has_loop(topo, candidate), (
                seed,
                synced,
                completion,
            )


class CountingModel:
    """Model stub: forwards ``action_of`` and ``entries``, recording every
    pair asked and how often the table was listed."""

    def __init__(self, model):
        self._model = model
        self.asked = []
        self.listed = 0

    def action_of(self, vector, device):
        self.asked.append((device, vector))
        return self._model.action_of(vector, device)

    def entries(self):
        self.listed += 1
        return self._model.entries()


def mixed_topology(rng):
    """Connected switches with extra links and one or two external sinks."""
    topo = random_topology(rng)
    for i in range(rng.randint(1, 2)):
        sink = topo.add_external(f"sink{i}")
        topo.add_link(rng.choice(topo.switches()), sink)
    return topo


def mixed_batch(topo, device, rng, installed):
    """Inserts with single / ECMP / DROP / stale next hops, and withdrawals
    of rules the device installed earlier (a re-report)."""
    batch = [delete(device, rule) for rule in installed if rng.random() < 0.5]
    installed[:] = [r for r in installed if all(r != u.rule for u in batch)]
    nbrs = sorted(topo.neighbors(device))
    strangers = [d for d in topo.device_ids() if d != device and d not in nbrs]
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.5:
            action = rng.choice(nbrs)
        elif roll < 0.75 and len(nbrs) > 1:
            action = tuple(rng.sample(nbrs, 2))
        elif roll < 0.9 and strangers:
            action = rng.choice(strangers)  # stale: no such link
        else:
            action = DROP
        match = Match.dst_prefix(rng.randrange(8), rng.randint(0, 3), LAYOUT)
        rule = Rule(rng.randint(1, 99), match, action)
        if all(rule.priority != r.priority for r in installed):
            installed.append(rule)
            batch.append(insert(device, rule))
    return batch


def assert_forwarding_cycle(topo, loop_path, synced, model):
    """``loop_path`` closes, stays on synchronised switches, follows links,
    and some EC takes every one of its hops."""
    assert loop_path[0] == loop_path[-1] and len(loop_path) >= 3
    assert set(loop_path) <= synced & set(topo.switches())
    hops = list(zip(loop_path, loop_path[1:]))
    assert all(topo.has_link(u, v) for u, v in hops)
    assert any(
        all(v in next_hops_of(model.action_of(vector, u)) for u, v in hops)
        for _, vector in model.entries()
    )


class TestDemandDrivenSearch:
    """The shipped detector against the eager whole-table oracle."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_eager_oracle_after_every_update(self, seed):
        """Re-reports after every device: the hyper-node DFS from the first."""
        rng = case_rng(seed)
        topo = mixed_topology(rng)
        verifier = SubspaceVerifier(topo, LAYOUT)
        detector = LoopDetector(topo)
        oracle = EagerLoopDetector(topo)

        class Both(Checker):
            def on_model_update(self, lineage, new_synced, model):
                oracle.on_model_update(lineage, new_synced, model)
                return detector.on_model_update(lineage, new_synced, model)

        verifier.add_checker(Both())
        switches = topo.switches()
        # Every switch once in random order, with re-reports in between.
        order = rng.sample(switches, len(switches))
        order = [d for dev in order for d in (dev, rng.choice(switches))]
        installed = {d: [] for d in switches}
        for device in order:
            was_violated = detector.verdict is Verdict.VIOLATED
            verifier.receive(device, mixed_batch(topo, device, rng, installed[device]))
            context = (seed, device)
            assert detector.verdict is oracle.verdict, context
            assert detector.synced == oracle.synced
            if detector.verdict is Verdict.VIOLATED and not was_violated:
                assert_forwarding_cycle(
                    topo, detector.loop_path, detector.synced,
                    verifier.manager.model,
                )

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_fast_path_matches_eager_oracle(self, seed):
        """Every switch synchronises exactly once, sometimes two in one
        update (an epoch opening late), with lineage-only updates from
        not yet synchronised switches in between: the synchronised-only
        search throughout."""
        rng = case_rng(seed)
        topo = mixed_topology(rng)
        verifier = SubspaceVerifier(topo, LAYOUT)
        detector = LoopDetector(topo)
        oracle = EagerLoopDetector(topo)
        model = verifier.manager.model
        installed = {d: [] for d in topo.switches()}
        pending = rng.sample(topo.switches(), len(installed))
        while pending:
            if rng.random() < 0.3:
                outsider = rng.choice(pending)
                lineage = verifier.apply(
                    mixed_batch(topo, outsider, rng, installed[outsider])
                )
                detector.on_model_update(lineage, (), model)
                oracle.on_model_update(lineage, (), model)
            cut = rng.randint(1, 2)
            now, pending = pending[:cut], pending[cut:]
            batch = [u for d in now for u in mixed_batch(topo, d, rng, installed[d])]
            lineage = verifier.apply(batch)
            was_violated = detector.verdict is Verdict.VIOLATED
            detector.on_model_update(lineage, now, model)
            oracle.on_model_update(lineage, now, model)
            assert detector.verdict is oracle.verdict, (seed, now)
            if detector.verdict is Verdict.VIOLATED and not was_violated:
                assert_forwarding_cycle(
                    topo, detector.loop_path, detector.synced, model
                )
        assert detector.verdict is not Verdict.UNKNOWN
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_next_hop_table_holds_live_vectors_only(self, seed):
        """Lineage-only splits between syncs, and sometimes a re-report:
        verdicts equal the eager oracle's; a model look-up is a miss of the
        epoch's next-hop table; after a search the table holds live vectors
        of synchronised switches only, and a lineage-only call leaves it as
        it was."""
        rng = case_rng(seed)
        topo = mixed_topology(rng)
        verifier = SubspaceVerifier(topo, LAYOUT)
        detector = LoopDetector(topo)
        oracle = EagerLoopDetector(topo)
        model = verifier.manager.model
        installed = {d: [] for d in topo.switches()}
        pending = rng.sample(topo.switches(), len(installed))
        while pending and detector.verdict is Verdict.UNKNOWN:
            if rng.random() < 0.5:
                outsider = rng.choice(pending)
                lineage = verifier.apply(
                    mixed_batch(topo, outsider, rng, installed[outsider])
                )
                before = {d: dict(hops) for d, hops in detector._hops.items()}
                detector.on_model_update(lineage, (), CountingModel(model))
                oracle.on_model_update(lineage, (), model)
                assert detector._hops == before
            now = [pending.pop(0)]
            if detector.synced and rng.random() < 0.2:
                now.append(rng.choice(sorted(detector.synced)))  # re-report
            batch = [u for d in now for u in mixed_batch(topo, d, rng, installed[d])]
            lineage = verifier.apply(batch)
            held = {(d, v) for d, hops in detector._hops.items() for v in hops}
            stub = CountingModel(model)
            detector.on_model_update(lineage, now, stub)
            oracle.on_model_update(lineage, now, model)
            assert detector.verdict is oracle.verdict, (seed, now)
            assert not held & set(stub.asked), seed  # misses only
            if detector.verdict is not Verdict.UNKNOWN:
                assert detector._hops == {}  # no search runs again
                continue
            live = {vec for _, vec in model.entries()}
            assert set(detector._hops) <= detector.synced
            assert all(set(hops) <= live for hops in detector._hops.values())
            total = sum(map(len, detector._hops.values()))
            assert total <= len(detector.synced) * len(model)

    @pytest.mark.parametrize("rereport", [False, True])
    def test_only_a_same_tag_rereport_leaves_the_fast_path(self, rereport):
        """Syncing 0 (→ 1, still dark) walks one device on the fast path;
        the hyper-node DFS also resolves 2, an exit of hyper node {1}.  A
        lineage-only update keeps the fast path, a re-report leaves it."""
        topo = line(3)
        sink = topo.add_external("sink")
        topo.add_link(2, sink)
        telemetry = Telemetry()
        verifier = SubspaceVerifier(
            topo, LAYOUT, check_loops=True, telemetry=telemetry
        )
        oracle = EagerLoopDetector(topo)
        verifier.add_checker(oracle)
        lookups = telemetry.registry.counter("ce2d.loop.lookups")
        low = Match.dst_prefix(0, 1, LAYOUT)
        verifier.receive(2, [insert(2, Rule(1, Match.wildcard(), sink))])
        # Device 1, outside the epoch, splits the table: lineage only.
        verifier.observe(verifier.apply([insert(1, Rule(1, low, 0))]), ())
        if rereport:
            verifier.receive(2, [insert(2, Rule(2, low, sink))])
        before = lookups.value
        reports = verifier.receive(0, [insert(0, Rule(1, Match.wildcard(), 1))])
        assert reports[0].verdict is reports[1].verdict is Verdict.UNKNOWN
        ecs = len(verifier.manager.model)
        assert lookups.value - before == (2 if rereport else 1) * ecs
        # 1 joins with the rule it sent while outside: 0 → 1 → 0 for low.
        reports = verifier.receive(1, [])
        assert reports[0].verdict is reports[1].verdict is Verdict.VIOLATED

    def test_no_new_device_means_no_lookup(self):
        """An update that synchronises nobody costs no model look-up."""
        topo = line(4)
        sink = topo.add_external("sink")
        topo.add_link(3, sink)
        telemetry = Telemetry()
        verifier = SubspaceVerifier(
            topo, LAYOUT, check_loops=True, telemetry=telemetry
        )
        model = CountingModel(verifier.manager.model)
        detector = verifier.loop_detector
        for device, nxt in [(0, 1), (1, 2)]:
            verifier.receive(device, [insert(device, Rule(1, Match.wildcard(), nxt))])
        searches = telemetry.registry.counter("ce2d.loop.searches").value
        eager = EagerLoopDetector(topo)
        eager.synced = {0, 1}
        for resend in ([], [0], [1, 0]):
            report = detector.on_model_update(Lineage(), resend, model)
            assert report.verdict is Verdict.UNKNOWN
            eager.on_model_update(Lineage(), resend, model._model)
        assert model.asked == [] and model.listed == 0
        assert eager.lookups == 3 * 2 * len(model._model) > 0  # what it used to cost
        assert telemetry.registry.counter("ce2d.loop.searches").value == searches

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_lookups_bounded_by_walk_not_by_table(self, seed):
        rng = case_rng(seed)
        topo = mixed_topology(rng)
        telemetry = Telemetry()
        verifier = SubspaceVerifier(topo, LAYOUT, telemetry=telemetry)
        detector = LoopDetector(topo, telemetry=telemetry)
        oracle = EagerLoopDetector(topo)
        totals = {"lookups": 0, "searches": 0}

        class Counted(Checker):
            def on_model_update(self, lineage, new_synced, model):
                stub = CountingModel(model)
                fresh = set(new_synced) - detector.synced
                was_violated = detector.verdict is Verdict.VIOLATED
                report = detector.on_model_update(lineage, new_synced, stub)
                oracle.on_model_update(lineage, new_synced, model)
                # Memoised: no (device, EC) pair is resolved twice.
                assert len(stub.asked) == len(set(stub.asked)), seed
                visited = {device for device, _ in stub.asked}
                assert visited <= detector.synced
                assert len(stub.asked) <= len(visited) * len(model)
                if not fresh or was_violated:
                    assert stub.asked == []
                else:
                    totals["searches"] += len(fresh)
                totals["lookups"] += len(stub.asked)
                return report

        verifier.add_checker(Counted())
        installed = {d: [] for d in topo.switches()}
        for device in rng.sample(topo.switches(), len(installed)):
            verifier.receive(device, mixed_batch(topo, device, rng, installed[device]))
        assert totals["lookups"] <= oracle.lookups
        counters = telemetry.registry
        assert counters.counter("ce2d.loop.lookups").value == totals["lookups"]
        if detector.verdict is not Verdict.VIOLATED:  # a raise skips starts
            assert counters.counter("ce2d.loop.searches").value == totals["searches"]

    def test_chain_looks_up_only_the_devices_walked(self):
        """Syncing the device next to the sink walks one hop: |ECs| look-ups
        where the eager table paid |synced| × |ECs|."""
        topo = line(6)
        sink = topo.add_external("sink")
        topo.add_link(5, sink)
        telemetry = Telemetry()
        verifier = SubspaceVerifier(
            topo, LAYOUT, check_loops=True, telemetry=telemetry
        )
        halves = [Match.dst_prefix(0, 1, LAYOUT), Match.dst_prefix(4, 1, LAYOUT)]
        for device in range(5):
            verifier.receive(
                device, [insert(device, Rule(1, half, device + 1)) for half in halves]
            )
        lookups = telemetry.registry.counter("ce2d.loop.lookups")
        before = lookups.value
        reports = verifier.receive(
            5, [insert(5, Rule(1, half, sink)) for half in halves]
        )
        assert reports[0].verdict is Verdict.SATISFIED
        assert lookups.value - before == len(verifier.manager.model)

    def test_rereport_in_fully_synced_epoch_starts_no_search(self):
        """Pins today's semantics, which the free empty update relies on.

        Algorithm 3 starts its DFS only at newly synchronised devices, so a
        device that re-reports inside an epoch whose switches have all
        synchronised starts no search — even when its new rule closes a
        forwarding loop.  The verdict stays ``satisfied`` (the gap recorded
        in benchmarks/ledger/README.md and as a ROADMAP open item); changing
        that changes the ledger's golden digests.
        """
        topo = line(3)
        sink = topo.add_external("sink")
        topo.add_link(2, sink)
        telemetry = Telemetry()
        verifier = SubspaceVerifier(
            topo, LAYOUT, check_loops=True, telemetry=telemetry
        )
        for device, nxt in [(0, 1), (1, 2), (2, sink)]:
            reports = verifier.receive(
                device, [insert(device, Rule(1, Match.wildcard(), nxt))]
            )
        assert reports[0].verdict is Verdict.SATISFIED
        searches = telemetry.registry.counter("ce2d.loop.searches")
        assert searches.value == 3
        # Device 1 re-reports: 0 → 1 → 0 now loops in the data plane.
        reports = verifier.receive(1, [insert(1, Rule(2, Match.wildcard(), 0))])
        assert reports[0].verdict is Verdict.SATISFIED
        assert searches.value == 3


class TestCustomChecker:
    """The §5.1 extension point: a blackhole (all-DROP device) detector."""

    class BlackholeChecker(Checker):
        def __init__(self, topology):
            self.topology = topology
            self.blackholes = set()

        def on_model_update(self, lineage, new_synced, model):
            for device in new_synced:
                if all(
                    model.action_of(vector, device) in (DROP, None)
                    for _, vector in model.entries()
                ):
                    self.blackholes.add(device)
            return VerificationReport(
                requirement="no-blackholes",
                verdict=Verdict.VIOLATED if self.blackholes else Verdict.UNKNOWN,
                detail=f"blackholes={sorted(self.blackholes)}",
            )

    def test_custom_checker_runs_and_reports(self):
        topo = random_topology(random.Random(1))
        verifier = SubspaceVerifier(topo, LAYOUT)
        checker = self.BlackholeChecker(topo)
        verifier.add_checker(checker)
        first = topo.switches()[0]
        reports = verifier.receive(first, [])  # all-DROP device
        assert reports[-1].verdict is Verdict.VIOLATED
        assert first in checker.blackholes
        assert "blackholes" in reports[-1].detail

    def test_custom_checker_sees_every_sync(self):
        topo = random_topology(random.Random(2))
        verifier = SubspaceVerifier(topo, LAYOUT)
        seen = []

        class Recorder(Checker):
            def on_model_update(self, lineage, new_synced, model):
                seen.extend(new_synced)
                return VerificationReport("rec", Verdict.UNKNOWN)

        verifier.add_checker(Recorder())
        for device in topo.switches():
            verifier.receive(device, [])
        assert seen == topo.switches()
