"""Tests for the resilience layer (repro.resilience).

Covers the fault injector (determinism + the per-key order invariant the
self-healing argument rests on), supervised ingestion (repairable faults
dropped, the rest dead-lettered), the epoch gate, read-view rollback,
the writer's failure rule (a flush that raises changes nothing), and the
chaos difftest convergence property on a sample of seeded scenarios.
"""

import random

import pytest

from repro.bdd import PredicateEngine
from repro.core.model_manager import ModelWriter
from repro.dataplane.rule import DROP, Rule
from repro.dataplane.update import RuleUpdate, UpdateOp, delete, insert
from repro.errors import (
    DuplicateInsertError,
    InvalidUpdateError,
    ReproError,
    RuleNotFoundError,
    StaleEpochError,
    UnknownDeviceError,
    UnknownRuleDeleteError,
)
from repro.difftest import ReferenceOracle
from repro.difftest.compare import view_from_inverse_model, view_from_oracle
from repro.difftest.runner import diff_views
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match, Pattern
from repro.network.generators import line
from repro.resilience import (
    FAULT_KINDS,
    FAULT_PROFILES,
    DeadLetterLog,
    EpochGate,
    FaultInjector,
    FaultProfile,
    QuarantinedUpdate,
    UpdateValidator,
    fault_profile,
    stale_epoch_tag,
)
from repro.telemetry import Telemetry

LAYOUT = dst_only_layout(4)
DEVICES = [0, 1, 2]


def rule(priority, value, length, action):
    return Rule(priority, Match.dst_prefix(value, length, LAYOUT), action)


def sample_stream(epoch="e1"):
    r0 = rule(1, 0x0, 1, 1)
    r1 = rule(1, 0x8, 1, 2)
    r2 = rule(2, 0x4, 2, 2)
    return [
        insert(0, r0, epoch=epoch),
        insert(1, r1, epoch=epoch),
        insert(0, r2, epoch=epoch),
        delete(0, r2, epoch=epoch),
        insert(2, r0, epoch=epoch),
    ]


def random_stream(rng, epoch="e1", ops=30, installed=None):
    """A valid stream against ``installed`` (device → rules, empty by
    default), which it updates to the stream's end state."""
    if installed is None:
        installed = {d: [] for d in DEVICES}
    updates = []
    for _ in range(ops):
        device = rng.choice(DEVICES)
        have = installed[device]
        if have and rng.random() < 0.35:
            victim = rng.choice(have)
            have.remove(victim)
            updates.append(delete(device, victim, epoch=epoch))
        else:
            r = rule(
                rng.randint(0, 3),
                rng.randrange(16),
                rng.randint(0, 4),
                rng.choice([1, 2, DROP]),
            )
            if r in have:
                continue
            have.append(r)
            updates.append(insert(device, r, epoch=epoch))
    return updates


def hotter(profile, factor):
    """``profile`` with every rate multiplied by ``factor``, clamped to 1."""
    rates = {k: min(1.0, v * factor) for k, v in profile.rates().items()}
    return FaultProfile(f"{profile.name}x{factor}", **rates)


def installed_rules(manager):
    return {
        device: set(table.rules(include_default=False))
        for device, table in manager.snapshot.tables.items()
    }


# ---------------------------------------------------------------------------
# fault profiles + injector
# ---------------------------------------------------------------------------
class TestFaultProfiles:
    def test_named_profiles_cover_every_kind(self):
        covered = set()
        for profile in FAULT_PROFILES.values():
            covered.update(k for k, v in profile.rates().items() if v > 0)
        assert covered == set(FAULT_KINDS)

    def test_unknown_profile_raises(self):
        with pytest.raises(ReproError):
            fault_profile("nope")

    def test_combine_is_ratewise_max(self):
        mixed = FAULT_PROFILES["duplicates"] | FAULT_PROFILES["reorder"]
        assert mixed.duplicate_insert == 0.25
        assert mixed.reorder == 0.35
        assert mixed.phantom_delete == 0.0


class TestFaultInjector:
    def test_deterministic(self):
        stream = sample_stream()
        a = FaultInjector(FAULT_PROFILES["mixed"], seed=9)
        b = FaultInjector(FAULT_PROFILES["mixed"], seed=9)
        assert a.inject(stream) == b.inject(stream)
        assert a.fault_counts() == b.fault_counts()

    def test_different_seed_differs(self):
        stream = random_stream(random.Random(0))
        outs = {
            tuple(FaultInjector(FAULT_PROFILES["mixed"], seed=s).inject(stream))
            for s in range(6)
        }
        assert len(outs) > 1

    def test_injects_something_at_high_rates(self):
        profile = hotter(FAULT_PROFILES["mixed"], 4)
        injector = FaultInjector(profile, seed=1)
        out = injector.inject(random_stream(random.Random(1)))
        counts = injector.fault_counts()
        assert sum(counts.values()) > 0
        assert len(out) > 0

    @pytest.mark.parametrize("profile", sorted(FAULT_PROFILES))
    def test_per_key_order_preserved(self, profile):
        """The invariant the self-healing argument rests on: for every
        (device, rule) key, the subsequence of *clean-stream* operations
        survives in order inside the faulty stream."""
        rng = random.Random(sum(map(ord, profile)))
        clean = random_stream(rng, ops=40)
        injector = FaultInjector(FAULT_PROFILES[profile], seed=5)
        faulty = injector.inject(clean)

        def net_effect(updates):
            state = {}
            for u in updates:
                key = (u.device, u.rule)
                if u.is_insert:
                    state[key] = True
                else:
                    state.pop(key, None)
            return state

        # Applying the faulty stream *without* validation but ignoring
        # phantom keys must land on the clean final state: duplicates and
        # stale copies are idempotent re-applications, reorders commute.
        clean_state = net_effect(clean)
        clean_keys = {(u.device, u.rule) for u in clean}
        faulty_state = {
            k: v
            for k, v in net_effect(faulty).items()
            if k in clean_keys
        }
        assert faulty_state == clean_state

    def test_stale_copies_carry_stale_tag(self):
        profile = FaultProfile("stale", stale_epoch=1.0)
        injector = FaultInjector(profile, seed=2)
        out = injector.inject(sample_stream(epoch="e7"))
        stale = [u for u in out if u.epoch == stale_epoch_tag("e7")]
        assert stale
        assert all(f.kind == "stale_epoch" for f in injector.injected)


# ---------------------------------------------------------------------------
# supervised ingestion
# ---------------------------------------------------------------------------
class TestUpdateValidator:
    def test_classify_returns_structured_errors(self):
        v = UpdateValidator(DEVICES)
        r = rule(1, 0, 1, 1)
        v.admit(insert(0, r))
        assert isinstance(v.classify(insert(0, r)), DuplicateInsertError)
        assert isinstance(v.classify(delete(1, r)), UnknownRuleDeleteError)
        assert isinstance(v.classify(insert(99, r)), UnknownDeviceError)
        assert v.classify(delete(0, r)) is None

    def test_unknown_delete_is_still_rule_not_found(self):
        """Back-compat: callers catching RuleNotFoundError keep working."""
        problem = UpdateValidator().classify(delete(0, rule(1, 0, 1, 1)))
        assert isinstance(problem, RuleNotFoundError)
        assert issubclass(UnknownRuleDeleteError, InvalidUpdateError)

    def test_repair_drops_idempotent_duplicates(self):
        telemetry = Telemetry()
        v = UpdateValidator(DEVICES, telemetry=telemetry)
        r = rule(1, 0, 1, 1)
        stream = [insert(0, r), insert(0, r), delete(0, r), delete(0, r)]
        admitted = [v.admit(u) for u in stream]
        assert admitted == [insert(0, r), None, delete(0, r), None]
        assert v.repaired == 2
        reg = telemetry.registry
        assert reg.value("resilience.repaired.total") == 2
        assert reg.value("resilience.repaired.duplicate_insert") == 1
        assert reg.value("resilience.repaired.unknown_delete") == 1
        assert len(v.dead_letters) == 0

    def test_unrepairable_is_dead_lettered(self):
        telemetry = Telemetry()
        v = UpdateValidator(DEVICES, telemetry=telemetry)
        assert v.admit(insert(99, rule(1, 0, 1, 1))) is None
        assert v.admitted == 0 and v.repaired == 0
        assert len(v.dead_letters) == 1
        assert v.dead_letters.entries[0].kind == "unknown_device"
        reg = telemetry.registry
        assert reg.value("resilience.quarantined.total") == 1
        assert reg.value("resilience.quarantined.unknown_device") == 1
        assert reg.value("resilience.dead_letter.size") == 1

    def test_dead_letter_log_is_bounded(self):
        log = DeadLetterLog(max_entries=3)
        v = UpdateValidator(DEVICES, dead_letters=log)
        for i in range(5):
            v.admit(insert(99, rule(1, i % 16, 4, 1)))
        assert len(log) == 3
        assert log.dropped == 2

    def test_dead_letter_eviction_is_oldest_first(self):
        """The bound evicts in admission order (FIFO), so what survives
        is always the *newest* window; per-kind counts keep tallying
        evicted entries."""
        log = DeadLetterLog(max_entries=3)
        for i in range(5):
            log.record(
                QuarantinedUpdate(
                    update=delete(0, rule(1, i % 16, 4, 1)),
                    kind="unknown_delete",
                    reason=f"r{i}",
                    sequence=i,
                )
            )
        assert [e.sequence for e in log] == [2, 3, 4]
        assert log.dropped == 2
        assert log.counts["unknown_delete"] == 5  # counts survive eviction
        assert [e.kind for e in log.entries] == ["unknown_delete"] * 3


class TestEpochGate:
    def test_explicit_order_flags_regression(self):
        telemetry = Telemetry()
        gate = EpochGate(order=["e0", "e1", "e2"])
        v = UpdateValidator(epoch_gate=gate, telemetry=telemetry)
        r = rule(1, 0, 1, 1)
        assert v.admit(insert(0, r, ).with_epoch("e1")) is not None
        stale = delete(0, r).with_epoch("e0")
        assert v.admit(stale) is None
        assert v.repaired == 1
        assert telemetry.registry.value("resilience.repaired.stale_epoch") == 1

    def test_explicit_order_unknown_tag_is_stale(self):
        gate = EpochGate(order=["e0"])
        assert gate.classify(insert(0, rule(1, 0, 1, 1)).with_epoch("bogus"))

    def test_untagged_updates_pass(self):
        gate = EpochGate(order=["e0"])
        assert gate.classify(insert(0, rule(1, 0, 1, 1))) is None

    def test_classify_stale_epoch(self):
        gate = EpochGate(order=["e0", "e1"])
        v = UpdateValidator(epoch_gate=gate)
        v.admit(insert(0, rule(1, 0, 1, 1)).with_epoch("e1"))
        problem = v.classify(insert(0, rule(1, 8, 1, 1)).with_epoch("e0"))
        assert isinstance(problem, StaleEpochError)


# ---------------------------------------------------------------------------
# supervised ModelWriter: convergence, rollback, the failure rule
# ---------------------------------------------------------------------------
class TestSupervisedModelWriter:
    def test_faulty_stream_converges(self):
        clean = random_stream(random.Random(3), ops=40)
        injector = FaultInjector(hotter(FAULT_PROFILES["mixed"], 2), seed=4)
        faulty = injector.inject(clean)
        assert injector.fault_counts()  # the drill actually injected

        reference = ModelWriter(DEVICES, LAYOUT)
        reference.submit(clean)
        reference.flush()

        gate = EpochGate(order=[stale_epoch_tag("e1"), "e1"])
        validator = UpdateValidator(DEVICES, epoch_gate=gate)
        supervised = ModelWriter(DEVICES, LAYOUT)
        supervised.submit(u for u in faulty if validator.admit(u) is not None)
        supervised.flush()

        assert installed_rules(supervised) == installed_rules(reference)
        assert supervised.num_ecs() == reference.num_ecs()

    def test_strict_still_raises_from_flush(self):
        manager = ModelWriter(DEVICES, LAYOUT)
        manager.submit([delete(0, rule(1, 0, 1, 1))])
        with pytest.raises(RuleNotFoundError):
            manager.flush()

    def test_unsupervised_duplicates_match_the_oracle(self):
        """A writer with no validator in front keeps one copy per insert
        and drops one per delete, as ``FibTable`` and the oracle do: a
        duplicate insert raises nothing and leaves a copy behind."""
        topology = line(2)
        switches = topology.switches()
        r = rule(1, 0, 1, 1)
        stream = [insert(0, r), insert(0, r), delete(0, r)]
        writer = ModelWriter(switches, LAYOUT)
        writer.submit(stream)
        writer.flush()
        oracle = ReferenceOracle(topology, LAYOUT)
        oracle.process_updates(stream)
        assert writer.read_view().rules[0] == (0, (r,))
        assert oracle.snapshot.table(0).rules(include_default=False) == [r]
        comparison = PredicateEngine(LAYOUT.total_bits)
        got = view_from_inverse_model("flash", comparison, writer.model, switches)
        want = view_from_oracle("oracle", comparison, oracle)
        assert diff_views(topology, LAYOUT, switches, got, want) == []

    def test_checkpoint_rollback_restores_state(self):
        manager = ModelWriter(DEVICES, LAYOUT)
        r0, r1 = rule(1, 0, 1, 1), rule(1, 8, 1, 2)
        manager.submit([insert(0, r0)])
        manager.flush()
        view = manager.read_view()
        before_rules = installed_rules(manager)
        manager.submit([insert(1, r1), delete(0, r0)])
        manager.flush()
        assert installed_rules(manager) != before_rules
        manager.rollback(view)
        assert installed_rules(manager) == before_rules
        assert manager.model.entries() == list(view.entries())
        assert manager.telemetry.registry.value("resilience.rollback.count") == 1

    def test_rollback_after_rollback_double_fault(self):
        """Crash-during-recovery: a second rollback to the same view
        (recovery itself faulting before any new view is taken) is
        idempotent and leaves the manager fully usable."""
        manager = ModelWriter(DEVICES, LAYOUT)
        r0, r1, r2 = rule(1, 0, 1, 1), rule(1, 8, 1, 2), rule(2, 4, 2, 2)
        manager.submit([insert(0, r0)])
        manager.flush()
        view = manager.read_view()
        golden_rules = installed_rules(manager)
        golden_ecs = manager.num_ecs()
        # First fault: diverge, roll back.
        manager.submit([insert(1, r1)])
        manager.flush()
        manager.rollback(view)
        assert installed_rules(manager) == golden_rules
        # Second fault before any new view: diverge again, roll back to
        # the *same* view again.
        manager.submit([insert(2, r2), delete(0, r0)])
        manager.flush()
        assert installed_rules(manager) != golden_rules
        manager.rollback(view)
        assert installed_rules(manager) == golden_rules
        assert manager.num_ecs() == golden_ecs
        reg = manager.telemetry.registry
        assert reg.value("resilience.rollback.count") == 2
        # Not wedged: the restored state keeps applying clean updates
        # identically to a fresh replay of the same history.
        manager.submit([insert(1, r1)])
        manager.flush()
        expected = ModelWriter(DEVICES, LAYOUT)
        expected.submit([insert(0, r0), insert(1, r1)])
        expected.flush()
        assert installed_rules(manager) == installed_rules(expected)
        assert manager.num_ecs() == expected.num_ecs()

    def test_rollback_without_checkpoint_resets(self):
        manager = ModelWriter(DEVICES, LAYOUT)
        manager.submit([insert(0, rule(1, 0, 1, 1))])
        manager.flush()
        manager.rollback()  # no view: the empty model
        assert all(not rules for rules in installed_rules(manager).values())

    @pytest.mark.parametrize("reinsert", [False, True])
    def test_poisoned_block_raises_and_changes_nothing(self, reinsert):
        """The pipeline raises mid-block — deleting r1 on 2, where it was
        never installed, after device 1's insert has merged: the writer
        stays at its pre-block version and keeps no part of the block (a
        re-insert of r0 would have added a second copy), nothing is
        counted as repaired, and clean updates keep applying."""
        manager = ModelWriter(DEVICES, LAYOUT)
        r0, r1 = rule(1, 0, 1, 1), rule(1, 8, 1, 2)
        manager.submit([insert(0, r0)])
        manager.flush()
        before = manager.read_view()
        manager.submit([insert(0, r0)] * reinsert + [insert(1, r1), delete(2, r1)])
        with pytest.raises(RuleNotFoundError):
            manager.flush()
        assert manager.read_view().rules == before.rules
        assert manager.model.entries() == list(before.entries())
        assert manager.epoch == before.epoch
        assert manager.pending_count == 0
        reg = manager.telemetry.registry
        assert list(reg.counters_with_prefix("resilience.repaired")) == []
        manager.submit([insert(1, r1)])
        manager.flush()
        expected = ModelWriter(DEVICES, LAYOUT)
        expected.submit([insert(0, r0), insert(1, r1)])
        expected.flush()
        assert installed_rules(manager) == installed_rules(expected)
        assert manager.num_ecs() == expected.num_ecs()

    def test_checkpoint_capture_and_journal(self):
        """A read view names its FIB: per device, the installed rules in
        table order, default rule excluded, frozen at capture."""
        manager = ModelWriter(DEVICES, LAYOUT)
        r, low = rule(1, 0, 1, 1), rule(0, 0, 0, 2)
        manager.submit([insert(0, low), insert(0, r)])
        manager.flush()
        view = manager.read_view()
        assert view.rules == ((0, (r, low)), (1, ()), (2, ()))
        manager.submit([delete(0, r)])
        manager.flush()
        assert view.rules[0] == (0, (r, low))
        assert manager.read_view().rules[0] == (0, (low,))

    def test_rollback_rejects_a_foreign_view(self):
        manager = ModelWriter(DEVICES, LAYOUT)
        r = rule(1, 0, 1, 1)
        manager.submit([insert(0, r)])
        manager.flush()
        other = ModelWriter(DEVICES, LAYOUT)
        other.submit([insert(0, r)])
        other.flush()
        twin = other.read_view()  # the same version, of another writer
        assert twin.rules == manager.read_view().rules
        for view in (twin, ModelWriter(DEVICES, LAYOUT).read_view()):
            with pytest.raises(ValueError):
                manager.rollback(view)
        assert installed_rules(manager)[0] == {r}
        assert manager.epoch == 1


# ---------------------------------------------------------------------------
# rollback restores a read view in place
# ---------------------------------------------------------------------------
def fib_and_table(manager):
    """A version as comparable values: its rules, and its EC table as
    (predicate node, vector id) pairs."""
    view = manager.read_view()
    return view.rules, {(pred.node, vec) for pred, vec in view.entries()}


@pytest.mark.parametrize("block_threshold", [None, 1])
@pytest.mark.parametrize("seed", range(4))
def test_rollback_restores_every_version_in_place(seed, block_threshold):
    """Rolling back to the view taken after batch k is the model a fresh
    writer builds from the first k batches, costs no predicate operation
    and no MR2 block, and replaying the rest lands on the straight run."""
    rng = random.Random(seed)
    stream = random_stream(rng, ops=40)
    cuts = sorted(rng.sample(range(1, len(stream)), rng.randint(3, 7)))
    batches = [stream[a:b] for a, b in zip([0] + cuts, cuts + [len(stream)])]

    def writer(**shared):
        return ModelWriter(
            DEVICES, LAYOUT, block_threshold=block_threshold, **shared
        )

    def replay(manager, some):
        for batch in some:
            manager.submit(batch)
            manager.flush()

    manager = writer()
    views = []
    for batch in batches:
        replay(manager, [batch])
        views.append(manager.read_view())
    straight = fib_and_table(manager)
    registry = manager.telemetry.registry
    for k in rng.sample(range(len(batches)), len(batches)):
        ops, blocks = manager.metrics.total, registry.value("mr2.blocks")
        manager.rollback(views[k])
        assert manager.metrics.total == ops
        assert registry.value("mr2.blocks") == blocks
        fresh = writer(engine=manager.engine, store=manager.store)
        replay(fresh, batches[: k + 1])
        assert fib_and_table(manager) == fib_and_table(fresh)
        manager.model.check_invariants()
        replay(manager, batches[k + 1 :])
        assert fib_and_table(manager) == straight


# ---------------------------------------------------------------------------
# a flush that raises leaves the writer at its pre-block version
# ---------------------------------------------------------------------------
def poison(rng, kind):
    """Updates the writer cannot apply: a delete of a rule no stream
    installs (priority 9 is never generated); an insert whose match does
    not fit the 4-bit ``dst``, which priority 9 puts above every rule;
    or, below a priority-9 wildcard that leaves it no share, an insert
    whose match does not fit ``dst`` or names a field the layout lacks.
    ``kind`` (one of :data:`POISONS`) picks one; every inserted match is
    compiled, shadowed or not."""
    device = rng.choice(DEVICES)
    wide = Match({"dst": Pattern(((0, 1 << 4),))})
    if kind == "missing-delete":
        return [delete(device, rule(9, rng.randrange(16), 4, 1))]
    if kind == "out-of-width":
        return [insert(device, Rule(9, wide, 1))]
    bad = {
        "shadowed-out-of-width": wide,
        "shadowed-unknown-field": Match({"src": Pattern(((1, 1),))}),
    }[kind]
    return [insert(device, rule(9, 0, 0, 2)), insert(device, Rule(0, bad, 1))]


POISONS = [
    "missing-delete",
    "out-of-width",
    "shadowed-out-of-width",
    "shadowed-unknown-field",
]


@pytest.mark.parametrize("kind", POISONS)
def test_failed_flush_leaves_the_pre_block_version(kind):
    """Random multi-device blocks with one poisoned update each: the
    flush raises, the writer's rules and EC table are the pre-block
    ones, and after the clean block the model is a fresh build's."""
    topology = line(3)
    rng = random.Random(11 + POISONS.index(kind))
    for _ in range(3):
        installed = {d: [] for d in DEVICES}
        history = random_stream(rng, ops=12, installed=installed)
        block = random_stream(rng, ops=8, installed=installed)
        writer = ModelWriter(DEVICES, LAYOUT)
        writer.submit(history)
        writer.flush()
        before = writer.read_view()
        at = rng.randint(0, len(block))
        writer.submit(block[:at] + poison(rng, kind) + block[at:])
        with pytest.raises(ReproError):
            writer.flush()
        assert writer.read_view().rules == before.rules
        assert writer.model.entries() == list(before.entries())
        writer.submit(block)
        writer.flush()
        fresh = ModelWriter(DEVICES, LAYOUT)
        fresh.submit(
            insert(device, r)
            for device, rules in writer.read_view().rules
            for r in rules
        )
        fresh.flush()
        comparison = PredicateEngine(LAYOUT.total_bits)
        got, want = (
            view_from_inverse_model(name, comparison, w.model, DEVICES)
            for name, w in (("writer", writer), ("fresh", fresh))
        )
        assert diff_views(topology, LAYOUT, DEVICES, got, want) == []


# ---------------------------------------------------------------------------
# chaos difftest convergence (the self-healing property)
# ---------------------------------------------------------------------------
@pytest.mark.chaos
@pytest.mark.parametrize("profile", sorted(FAULT_PROFILES))
def test_chaos_convergence_sample(profile):
    """A slice of the CI chaos gate: seeded scenarios through the fault
    injector through supervised ingestion converge to the oracle's
    verdicts."""
    from repro.difftest import ChaosRunner, ScenarioGenerator

    generator = ScenarioGenerator(seed=2024, profile="smoke")
    runner = ChaosRunner(profile=profile, seed=17)
    for index in range(4):
        result = runner.run(generator.scenario(index))
        assert result.ok, (profile, index, result.divergences)


@pytest.mark.chaos
def test_chaos_replays_each_faulty_stream_once():
    """One supervised replay per scenario: every update of the faulty
    stream is admitted, repaired or dead-lettered exactly once, and the
    runner's registry counts each repair once."""
    from repro.difftest import ChaosRunner, ScenarioGenerator

    runner = ChaosRunner(profile="mixed", seed=17)
    result = runner.run(ScenarioGenerator(seed=2024, profile="smoke").scenario(0))
    assert result.ok, result.divergences
    stats = result.stats["flash-supervised"]
    assert stats["repaired"] > 0  # the profile actually injected faults
    handled = stats["admitted"] + stats["repaired"] + stats["quarantined"]
    assert handled == result.stats["stream"]["faulty"]
    reg = runner.telemetry.registry
    assert reg.value("resilience.repaired.total") == stats["repaired"]
