"""End-to-end dispatcher properties under randomized multi-epoch arrivals.

Complements test_consistency_properties (single-verifier) by driving the
full Flash dispatcher: devices progress through a chain of epochs with
cumulative FIB diffs, arrival order across devices is random, and some
devices lag behind (long tail).  Properties:

* within one epoch, deterministic verdicts never contradict each other;
* the newest epoch's verdict equals a from-scratch verification of the
  final FIB state;
* stale-epoch verifiers never outlive their epoch.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.results import LoopReport, Verdict
from repro.dataplane.fib import FibSnapshot
from repro.dataplane.rule import DROP, Rule, next_hops_of
from repro.dataplane.update import delete, insert
from repro.flash import Flash
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match
from repro.network.topology import Topology

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


def random_rule(topo, device, pri, rng):
    action = rng.choice(sorted(topo.neighbors(device)) + [DROP])
    length = rng.randint(0, 2)
    value = rng.randrange(8)
    if action == DROP:
        return None
    return Rule(pri, Match.dst_prefix(value, length, LAYOUT), action)


def build_epoch_chain(topo, rng, epochs=3):
    """Per device, a chain of cumulative FIB states with diff updates."""
    state = {d: {} for d in topo.switches()}  # device → {pri: rule}
    batches = {d: [] for d in topo.switches()}  # device → [(tag, updates)]
    for e in range(epochs):
        tag = f"e{e}"
        for device in topo.switches():
            updates = []
            # Each epoch, each device re-rolls one priority slot.
            pri = rng.randint(1, 2)
            old = state[device].get(pri)
            new = random_rule(topo, device, pri, rng)
            if old is not None and old != new:
                updates.append(delete(device, old, epoch=tag))
                del state[device][pri]
            if new is not None and new != old:
                updates.append(insert(device, new, epoch=tag))
                state[device][pri] = new
            batches[device].append((tag, updates))
    return batches, state


def brute_force_loop(topo, final_state):
    snapshot = FibSnapshot(topo.switches())
    for device, rules in final_state.items():
        for rule in rules.values():
            snapshot.table(device).insert(rule)
    for header in range(LAYOUT.universe_size):
        values = LAYOUT.unflatten(header)
        for start in topo.switches():
            current, seen = start, set()
            while True:
                if current in seen:
                    return True
                seen.add(current)
                hops = next_hops_of(snapshot.table(current).lookup(values))
                if not hops or hops[0] not in snapshot.tables:
                    break
                current = hops[0]
    return False


def random_interleaving(batches, rng):
    """``(device, tag, updates)`` in a random order across devices that
    keeps each device's epoch order."""
    pending = {d: list(b) for d, b in batches.items()}
    while any(pending.values()):
        device = rng.choice([d for d, b in pending.items() if b])
        yield (device, *pending[device].pop(0))


def held_verdicts(flash, transcript):
    """What ``flash.deterministic_reports()`` must be, from the transcript
    alone: per live epoch, per checker in slot order (loops, then the
    requirements), the first report of the last run of equal verdicts."""
    expected = []
    for tag in flash.dispatcher.verifiers:
        slots = {}  # checker → the report opening its current run
        for report in transcript:
            if report.epoch != tag:
                continue
            checker = getattr(report, "requirement", None)
            if checker not in slots or slots[checker].verdict is not report.verdict:
                slots[checker] = report
        order = [None] + [r.name for r in flash.requirements]
        expected += [
            slots[c] for c in order
            if c in slots and slots[c].verdict is not Verdict.UNKNOWN
        ]
    return expected


class TestDispatcherEndToEnd:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_final_epoch_matches_ground_truth(self, seed):
        rng = random.Random(seed)
        topo = random_topology(rng)
        batches, final_state = build_epoch_chain(topo, rng)
        flash = Flash(topo, LAYOUT, check_loops=True)
        transcript = []
        for device, tag, updates in random_interleaving(batches, rng):
            transcript += flash.receive(device, tag, updates)
        expected = brute_force_loop(topo, final_state)
        final_reports = [
            r
            for r in transcript
            if isinstance(r, LoopReport) and r.epoch == "e2"
        ]
        assert final_reports
        final = final_reports[-1].verdict
        assert final is (Verdict.VIOLATED if expected else Verdict.SATISFIED), seed

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_no_contradictions_within_epoch(self, seed):
        rng = random.Random(seed)
        topo = random_topology(rng)
        batches, _ = build_epoch_chain(topo, rng)
        flash = Flash(topo, LAYOUT, check_loops=True)
        transcript = []
        for device, tag, updates in random_interleaving(batches, rng):
            transcript += flash.receive(device, tag, updates)
        per_epoch = {}
        for r in transcript:
            if not isinstance(r, LoopReport):
                continue
            per_epoch.setdefault(r.epoch, []).append(r.verdict)
        for epoch, verdicts in per_epoch.items():
            deterministic = {v for v in verdicts if v is not Verdict.UNKNOWN}
            assert len(deterministic) <= 1, (seed, epoch, verdicts)

    @pytest.mark.parametrize("stream", ["epoch-chain", "tagged"])
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_state_is_the_transcripts_last_runs(self, stream, seed):
        """Flash keeps verdicts; the transcript is the caller's.  After
        every batch the state is derivable from what ``receive`` returned
        — the very objects — and the latch is its first violation."""
        from repro.spec.requirement import requirement

        rng = random.Random(seed)
        topo = random_topology(rng)
        last = f"s{len(topo.switches()) - 1}"
        flash = Flash(
            topo, LAYOUT, check_loops=True,
            requirements=[
                requirement("reach", topo, LAYOUT, Match.wildcard(), ["s0"], f"s0 .* {last}")
            ],
        )
        batches = (
            random_interleaving(build_epoch_chain(topo, rng)[0], rng)
            if stream == "epoch-chain"
            else random_tagged_stream(topo, rng)
        )
        transcript = []
        for step, (device, tag, updates) in enumerate(batches):
            transcript += flash.receive(device, tag, updates)
            held = flash.deterministic_reports()
            expected = held_verdicts(flash, transcript)
            assert [id(r) for r in held] == [id(r) for r in expected], (seed, step)
            violations = [r for r in transcript if r.verdict is Verdict.VIOLATED]
            assert flash.first_violation() is (
                violations[0] if violations else None
            ), (seed, step)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_stale_verifiers_garbage_collected(self, seed):
        rng = random.Random(seed)
        topo = random_topology(rng)
        batches, _ = build_epoch_chain(topo, rng)
        flash = Flash(topo, LAYOUT, check_loops=True)
        for device, chain in batches.items():
            for tag, updates in chain:
                flash.receive(device, tag, updates)
        # Every device reported e2, so e0/e1 are inactive and dropped.
        assert flash.dispatcher.verifier_for("e0") is None
        assert flash.dispatcher.verifier_for("e1") is None
        assert flash.dispatcher.verifier_for("e2") is not None


class _StubTrunk:
    """The dispatcher's duck type for the shared model: no model at all."""

    def apply(self, updates):
        return list(updates)

    def as_deltas(self):
        return []


class _StubVerifier:
    """Factory-call accounting double with the dispatcher's duck type."""

    def __init__(self, epoch):
        self.epoch = epoch
        self.batches = []

    def observe(self, deltas, new_synced, now=None):
        self.batches.extend((device, list(deltas)) for device in new_synced)
        return []


class TestEpochStormBackoff:
    """§4.1's guard: a buggy control plane minting epochs faster than they
    converge must not translate into unbounded verifier creation."""

    EPOCHS = 40
    CAP = 4

    def drive_storm(self, dispatcher, devices, epochs=EPOCHS):
        """One leader device races through epochs; the rest lag behind.

        Storm batches are empty diffs — the storm is about epoch-tag
        churn, not FIB content.
        """
        high_water = 0
        for e in range(epochs):
            tag = f"storm-{e}"
            dispatcher.receive(devices[0], tag, [])
            high_water = max(high_water, len(dispatcher.verifiers))
        return high_water

    def test_verifier_creation_stays_bounded(self):
        from repro.ce2d.dispatcher import CE2DDispatcher

        created = []

        def factory(tag):
            verifier = _StubVerifier(tag)
            created.append(tag)
            return verifier

        dispatcher = CE2DDispatcher(
            _StubTrunk(), factory, max_live_verifiers=self.CAP
        )
        devices = [0, 1, 2]
        high_water = self.drive_storm(dispatcher, devices)
        # Back-off: live verifiers never exceed the cap, even though the
        # storm minted 10x more epochs than capacity.
        assert high_water <= self.CAP
        assert len(dispatcher.verifiers) <= self.CAP
        assert len(created) <= self.EPOCHS
        live = dispatcher.telemetry.registry.value("ce2d.verifiers.live")
        assert live == len(dispatcher.verifiers) <= self.CAP

    def test_stale_storm_verifiers_dropped_on_convergence(self):
        from repro.ce2d.dispatcher import CE2DDispatcher

        created = []

        def factory(tag):
            created.append(tag)
            return _StubVerifier(tag)

        dispatcher = CE2DDispatcher(
            _StubTrunk(), factory, max_live_verifiers=self.CAP
        )
        devices = [0, 1, 2]
        self.drive_storm(dispatcher, devices)
        # The stragglers catch up directly to the storm's final epoch:
        # every earlier storm epoch is provably stale and must be dropped.
        final = f"storm-{self.EPOCHS - 1}"
        for device in devices[1:]:
            dispatcher.receive(device, final, [])
        assert list(dispatcher.verifiers) == [final]
        reg = dispatcher.telemetry.registry
        assert reg.value("ce2d.verifiers.live") == 1
        opened = reg.value("ce2d.epoch.opened")
        closed = reg.value("ce2d.epoch.closed")
        assert opened == len(created)
        assert closed == len(created) - 1
        # Each closed epoch's lifetime is one ``ce2d.epoch`` span.
        assert reg.value("span.ce2d.epoch.count") == closed
        assert reg.value("span.ce2d.epoch.seconds") > 0
        # The surviving verifier saw every device's (empty) batch.
        survivor = dispatcher.verifiers[final]
        assert {d for d, _ in survivor.batches} == set(devices)


# ----------------------------------------------------------------------
# The trunk: one model for every epoch, held to the replaying reference
# ----------------------------------------------------------------------

def random_tagged_stream(topo, rng, steps=40, sizes=(0, 1, 1, 2)):
    """``(device, tag, updates)`` batches valid under strict validation.

    3-6 devices hop between 2-5 tags with no order imposed on them, so the
    stream holds same-tag re-reports, tags already stale when a device
    first reports them, parallel live epochs and empty batches.  A batch
    draws its number of updates from ``sizes``.
    """
    tags = [f"t{i}" for i in range(rng.randint(2, 5))]
    installed = {d: {} for d in topo.switches()}  # device → {pri: rule}
    current = {}
    stream = []
    for _ in range(steps):
        device = rng.choice(topo.switches())
        if device not in current or rng.random() < 0.4:
            current[device] = rng.choice(tags)
        tag = current[device]
        updates = []
        for _ in range(rng.choice(sizes)):
            # One rule per priority slot, as in build_epoch_chain: no ties.
            pri = rng.randint(1, 3)
            old = installed[device].pop(pri, None)
            if old is not None:
                updates.append(delete(device, old, epoch=tag))
                continue
            rule = random_rule(topo, device, pri, rng)
            if rule is not None:
                installed[device][pri] = rule
                updates.append(insert(device, rule, epoch=tag))
        stream.append((device, tag, updates))
    return stream


class TestTrackerInvariant:
    """What the trunk stands on, stated on :class:`EpochTracker` alone:
    while ``t`` is active, every device that ever reported ``t`` reported
    it last — its newest FIB is its FIB at ``t``."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_active_epoch_holds_every_device_that_ever_reported_it(self, seed):
        from repro.ce2d.epoch import EpochTracker

        rng = random.Random(seed)
        tracker = EpochTracker()
        ever = {}
        for device, tag, _ in random_tagged_stream(random_topology(rng), rng):
            tracker.observe(device, tag)
            ever.setdefault(tag, set()).add(device)
            for active in tracker.active_tags():
                assert set(tracker.devices_at(active)) == ever[active], seed


class TestTrunkMatchesReplay:
    def _requirements(self, topo):
        from repro.spec.requirement import requirement

        last = f"s{len(topo.switches()) - 1}"
        return [
            requirement("everywhere", topo, LAYOUT, Match.wildcard(), ["s0"], f"s0 .* {last}"),
            requirement("low-half", topo, LAYOUT, Match.dst_prefix(0, 1, LAYOUT), [last], f"{last} .* s0"),
        ]

    @staticmethod
    def _verdicts(member):
        loop = member.loop_detector
        return [loop.verdict, loop.loop_path is None] + [
            v.report().verdict for v in member.regex_verifiers
        ]

    @pytest.mark.parametrize("partitioned", [False, True])
    @pytest.mark.parametrize("cap", [1, 2, 8])
    @pytest.mark.parametrize("seed", range(12))
    def test_every_live_epoch_after_every_batch(self, seed, cap, partitioned):
        from repro.ce2d.verifier import SubspaceVerifier
        from repro.core.rule_index import matches_intersect
        from repro.core.subspace import SubspacePartition
        from repro.flash import EpochGroupVerifier

        from .replay_dispatcher_reference import ReplayDispatcher

        rng = random.Random(1000 * seed + 10 * cap + partitioned)
        topo = random_topology(rng)
        requirements = self._requirements(topo)
        partition = (
            SubspacePartition.dst_prefix_partition(LAYOUT, [(0, 1), (4, 1)])
            if partitioned
            else None
        )
        matches = [None] if partition is None else [s.match for s in partition]
        flash = Flash(
            topo, LAYOUT, requirements=requirements, check_loops=True,
            partition=partition, max_live_verifiers=cap,
        )

        def pinned(tag):  # one verifier per epoch, each with its own model
            return EpochGroupVerifier(
                [
                    SubspaceVerifier(
                        topo, LAYOUT, epoch=tag, subspace_match=m, check_loops=True,
                        requirements=[
                            r for r in requirements
                            if m is None or matches_intersect(r.packet_space, m)
                        ],
                    )
                    for m in matches
                ],
                epoch=tag,
                partition=partition,
            )

        replay = ReplayDispatcher(pinned, max_live_verifiers=cap)
        headers = [
            dict(LAYOUT.bits_of("dst", value))
            for value in range(LAYOUT.universe_size)
        ]
        # A same-tag re-report that changes a synchronised column is never
        # re-checked (ROADMAP item 1): from then on the epoch's per-EC state
        # is what lineage hands down, which depends on how finely the model
        # is partitioned — and the trunk's table is legitimately finer than
        # a per-epoch model's.  Such an epoch's verdicts are unspecified on
        # both sides and compared only up to that batch.
        revised = set()
        for step, (device, tag, updates) in enumerate(random_tagged_stream(topo, rng)):
            where = (seed, cap, partitioned, step)
            group = flash.dispatcher.verifier_for(tag)
            if updates and group is not None and device in group.members[0].synced:
                revised.add(tag)
            ours = flash.receive(device, tag, updates)
            theirs = replay.receive(device, tag, updates)
            # (A deferred epoch opens with one report set here, one per
            # device there.)
            assert {r.epoch for r in ours} == {r.epoch for r in theirs}, where
            assert list(flash.dispatcher.verifiers) == list(replay.verifiers), where
            for live, group in flash.dispatcher.verifiers.items():
                for member, pin in zip(group.members, replay.verifiers[live].members):
                    assert member.synced == pin.synced, (*where, live)
                    assert member.synced == set(
                        flash.dispatcher.tracker.devices_at(live)
                    ), (*where, live)
                    if live not in revised:
                        assert self._verdicts(member) == self._verdicts(pin), (*where, live)
                    trunk, own = member.manager.model, pin.manager.model
                    for header in headers:
                        if not own.universe.evaluate(header):
                            continue
                        for synced in member.synced:
                            assert trunk.action_of(
                                trunk.vector_for(header), synced
                            ) == own.action_of(own.vector_for(header), synced), (*where, live)


class _RecordingChecker:
    """A custom §5.1 checker that remembers how it was called and answers
    from a script, one verdict per call."""

    def __init__(self, verdicts):
        self.verdicts = iter(verdicts)
        self.calls = []  # (new_synced, the report returned)

    def on_model_update(self, deltas, new_synced, model):
        from repro.results import VerificationReport

        report = VerificationReport(requirement="recorded", verdict=next(self.verdicts))
        self.calls.append((tuple(new_synced), report))
        return report


class TestLineageOnlyCalls:
    def test_foreign_batches_reach_a_checker_as_lineage_and_report_nothing(self):
        from repro.ce2d.dispatcher import CE2DDispatcher
        from repro.ce2d.verifier import SubspaceVerifier

        topo = random_topology(random.Random(3))
        trunk = SubspaceVerifier(topo, LAYOUT)
        S, V, U = Verdict.SATISFIED, Verdict.VIOLATED, Verdict.UNKNOWN
        # One verdict per call below; a lineage-only call answers VIOLATED,
        # which nobody may ever see.
        scripts = {"a": [S, V, S, V], "b": [U, V, V]}
        checkers = {}

        def factory(tag):
            verifier = SubspaceVerifier(topo, LAYOUT, epoch=tag, manager=trunk.manager)
            checkers[tag] = _RecordingChecker(scripts[tag])
            verifier.add_checker(checkers[tag])
            return verifier

        dispatcher = CE2DDispatcher(trunk, factory)
        rule = Rule(1, Match.dst_prefix(4, 1, LAYOUT), 0)
        held = []  # the state after every batch

        def receive(*batch):
            reports = dispatcher.receive(*batch)
            held.append(dispatcher.deterministic_reports())
            return reports

        returned = [
            receive(1, "a", [insert(1, rule)]),
            receive(2, "b", []),            # opens b beside a
            receive(1, "a", [delete(1, rule)]),  # a's own re-report
            receive(3, "a", []),
        ]
        assert [c[0] for c in checkers["a"].calls] == [(1,), (), (1,), (3,)]
        assert [c[0] for c in checkers["b"].calls] == [(2,), (), ()]
        lineage = {
            id(report)
            for checker in checkers.values()
            for synced, report in checker.calls
            if synced == ()
        }
        assert len(lineage) == 3
        handed_back = [id(r) for reports in returned for r in reports]
        assert len(handed_back) == 4 and not lineage & set(handed_back)
        # The state holds, per checker, the handed-back report at which
        # its verdict last moved: a's re-report said SATISFIED again and
        # left the slot alone, device 3's batch moved it; b is UNKNOWN
        # throughout and the three lineage-only VIOLATEDs went nowhere.
        first, _, again, moved = [reports[0] for reports in returned]
        assert again.verdict is first.verdict and again is not first
        assert [[id(r) for r in reports] for reports in held] == [
            [id(first)], [id(first)], [id(first)], [id(moved)]
        ]
        assert dispatcher.verifier_for("b").deterministic_reports() == []
        assert dispatcher.first_violation is moved


class _LineageChecker:
    """A custom §5.1 checker written the way :class:`Checker` says to: per
    EC, what each device did with it when it synchronised — state that an
    EC the update left alone keeps, and a changed EC takes over from its
    ``delta.origin``."""

    HEADERS = [
        dict(LAYOUT.bits_of("dst", value)) for value in range(LAYOUT.universe_size)
    ]

    def __init__(self):
        self.table = None  # EC predicate → ((device, its action then), ...)

    def on_model_update(self, lineage, new_synced, model):
        from repro.results import VerificationReport

        if self.table is None:  # the initial table: the origin of them all
            self.table = {d.origin: () for d in lineage.changed}
        before = self.table
        lost = [d for d in lineage.changed if d.origin not in before]
        self.table = dict(before)
        for pred in lineage.removed:
            del self.table[pred]
        for d in lineage.changed:
            self.table[d.predicate] = before.get(d.origin, ())
        for pred, vector in model.entries() if new_synced else ():
            self.table[pred] += tuple(
                (dev, model.action_of(vector, dev)) for dev in new_synced
            )
        per_header = [
            next(seen for ec, seen in self.table.items() if ec.evaluate(header))
            for header in self.HEADERS
        ]
        return VerificationReport(
            requirement="lineage",
            verdict=Verdict.VIOLATED if lost else Verdict.UNKNOWN,
            detail=repr(per_header),
        )


class TestBatchIsOneLineageStep:
    """``block_threshold`` cuts a batch into blocks for the model; what the
    checkers are handed is still one step from the pre-batch table, and
    names only what the batch changed."""

    THRESHOLDS = (None, 1, 2, 3)

    @pytest.mark.parametrize("seed", range(25))
    def test_origins_are_pre_batch_ecs_at_every_threshold(self, seed):
        from repro.ce2d.verifier import SubspaceVerifier

        finals = []
        for threshold in self.THRESHOLDS:
            rng = random.Random(seed)
            topo = random_topology(rng)
            verifier = SubspaceVerifier(topo, LAYOUT, block_threshold=threshold)
            model = verifier.manager.model
            stream = random_tagged_stream(topo, rng, steps=30, sizes=(0, 2, 3, 4, 5))
            for step, (device, _, updates) in enumerate(stream):
                where = (seed, threshold, step)
                before = dict(model.entries())
                handles = {vec: pred for pred, vec in before.items()}
                others = [d for d in topo.switches() if d != device]
                lineage = verifier.apply(updates)
                after = dict(model.entries())
                # pre-batch table − removed + changed = post-batch table
                assert all(p in before for p in lineage.removed), where
                stepped = {p: v for p, v in before.items() if p not in lineage.removed}
                stepped.update((d.predicate, d.vector) for d in lineage.changed)
                assert stepped == after, where
                # An EC in neither list kept its handle and its vector.
                changed = {d.predicate for d in lineage.changed}
                for pred, vec in after.items():
                    if pred not in changed:
                        assert handles[vec] is pred, where
                for delta in lineage.changed:
                    # A pre-batch EC, and one the new EC descends from: on
                    # every device the batch did not touch they act alike.
                    # (Overlap is not promised — where parents merged and
                    # the merge was split again, the first parent stands
                    # for them all, inside one block as across several.)
                    assert delta.origin in before, where
                    parent = before[delta.origin]
                    assert [model.action_of(delta.vector, d) for d in others] == [
                        model.action_of(parent, d) for d in others
                    ], where
            finals.append(
                [model.behavior(header) for header in _LineageChecker.HEADERS]
            )
        assert all(final == finals[0] for final in finals), seed

    @pytest.mark.parametrize("seed", range(15))
    def test_lineage_keyed_checker_keeps_its_state_per_update(self, seed):
        histories = []
        for threshold in (None, 1):
            rng = random.Random(seed)
            topo = random_topology(rng)
            batches, _ = build_epoch_chain(topo, rng)
            flash = Flash(topo, LAYOUT, check_loops=False, block_threshold=threshold)
            make = flash.dispatcher.factory

            def with_checker(tag):
                group = make(tag)
                group.members[0].add_checker(_LineageChecker())
                return group

            flash.dispatcher.factory = with_checker
            histories.append(
                [
                    (r.epoch, r.verdict, r.detail)
                    for batch in random_interleaving(batches, rng)
                    for r in flash.receive(*batch)
                ]
            )
        batch_mode, per_update = histories
        assert batch_mode and per_update == batch_mode, seed
        assert all(verdict is Verdict.UNKNOWN for _, verdict, _ in batch_mode), seed


class TestOneModelPerSubspace:
    @pytest.mark.parametrize("subspaces", [1, 2])
    def test_epochs_construct_no_model(self, subspaces, monkeypatch):
        from repro.core.model_manager import ModelWriter
        from repro.core.subspace import SubspacePartition

        built = []
        init = ModelWriter.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ModelWriter, "__init__", counting)
        rng = random.Random(11)
        topo = random_topology(rng)
        batches, _ = build_epoch_chain(topo, rng, epochs=5)
        partition = (
            SubspacePartition.dst_prefix_partition(LAYOUT, [(0, 1), (4, 1)])
            if subspaces == 2
            else None
        )
        flash = Flash(topo, LAYOUT, check_loops=True, partition=partition)
        for e in range(5):
            for device, chain in batches.items():
                flash.receive(device, *chain[e])
        opened = flash.telemetry.registry.value("ce2d.epoch.opened")
        assert opened == 5 and len(built) == subspaces
        assert [m.manager for m in flash.trunk.members] == built
