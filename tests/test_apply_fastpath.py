"""Fast apply path ≡ reference cross product, its lineage contract, plus
memory accounting.

The run-carving, signature-filtered
:meth:`InverseModel.apply_overwrites` must produce exactly the same
model as the historical cross product, kept as the oracle
:func:`tests.apply_reference.apply_overwrites_reference`, on arbitrary
EC tables and overwrite blocks — these property tests drive both over
the same random streams (seeded via ``--repro-seed``) and compare the
resulting vec→predicate maps after every block.  The :class:`Lineage`
it returns must name exactly what the block changed (:func:`assert_step`),
block by block and composed across a writer's ``block_threshold``.
"""

import pytest

from repro.bdd.predicate import PredicateEngine
from repro.core.actiontree import ActionTreeStore
from repro.core.inverse_model import InverseModel
from repro.core.model_manager import ModelWriter
from repro.core.overwrite import Overwrite, atomic, make_delta
from repro.dataplane.rule import DROP, Rule
from repro.dataplane.update import delete, insert
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match

from repro.core.inverse_model import compose_lineage

from .apply_reference import apply_overwrites_reference
from .bdd_reference import ReferenceBDD
from .conftest import case_rng
from .test_bdd_split import NUM_VARS, random_pred

DEVICES = [0, 1, 2, 3]


def fresh_model(kind: str):
    bdd = ReferenceBDD(NUM_VARS) if kind == "reference" else None
    engine = PredicateEngine(NUM_VARS, bdd=bdd)
    store = ActionTreeStore()
    return engine, InverseModel(engine, store, DEVICES)


def canonical(model: InverseModel):
    """Behavior-keyed view, independent of dict order and origins."""
    out = {}
    for pred, vec in model.entries():
        actions = tuple(sorted(model.store.to_dict(vec).items()))
        existing = out.get(actions)
        out[actions] = pred if existing is None else existing | pred
    return {actions: pred.node for actions, pred in out.items()}


def assert_step(before, lineage, model, where=None, one_block=True):
    """``lineage`` is the step from the (predicate, vector) pairs ``before``
    to ``model``'s table — over ``one_block``, exactly that step.  Composed
    over several blocks it may also list an EC one block split and a later
    one merged back."""
    pre = dict(before)
    handles = {vec: pred for pred, vec in before}
    post = dict(model.entries())
    removed = set(lineage.removed)
    assert len(removed) == len(lineage.removed) and removed <= pre.keys(), where
    # pre-table − removed + changed = post-table
    stepped = {p: v for p, v in pre.items() if p not in removed}
    stepped.update((d.predicate, d.vector) for d in lineage.changed)
    assert stepped == post, where
    if one_block:  # a changed EC is no pre-block pair, a removed one no post
        assert all(pre.get(d.predicate) != d.vector for d in lineage.changed), where
        assert all(post.get(p) != pre[p] for p in removed), where
    assert all(d.origin in pre for d in lineage.changed), where
    changed = {d.predicate for d in lineage.changed}
    for pred, vec in post.items():
        if pred not in changed:  # in neither list: same handle, same vector
            assert handles[vec] is pred, where
    model.check_invariants()


def random_block(engine, rng, max_ows=6):
    """A random conflict-free overwrite block (disjoint per-device work)."""
    ows = []
    for _ in range(rng.randint(1, max_ows)):
        pred = random_pred(engine, rng)
        device = rng.choice(DEVICES)
        action = rng.randint(0, 9)
        if rng.random() < 0.3:
            delta = make_delta(
                {device: action, rng.choice(DEVICES): rng.randint(0, 9)}
            )
            ows.append(Overwrite(pred, delta))
        else:
            ows.append(atomic(pred, device, action))
    return ows


@pytest.mark.parametrize("kind", ["fast", "reference"])
def test_fast_apply_equals_reference_on_random_blocks(kind):
    rng = case_rng(0xAB01)
    for trial in range(12):
        engine_a, fast = fresh_model(kind)
        engine_b, ref = fresh_model(kind)
        probe = PredicateEngine(NUM_VARS)
        for _ in range(6):
            seed = rng.getrandbits(32)
            block_a = random_block(engine_a, case_rng(seed))
            block_b = random_block(engine_b, case_rng(seed))
            before = fast.entries()
            assert_step(before, fast.apply_overwrites(block_a), fast, trial)
            apply_overwrites_reference(ref, block_b)
            ref.check_invariants()
            view_a = {
                actions: probe.import_predicate(engine_a.pred(node))
                for actions, node in canonical(fast).items()
            }
            view_b = {
                actions: probe.import_predicate(engine_b.pred(node))
                for actions, node in canonical(ref).items()
            }
            assert view_a == view_b


#: Device sets that share a first device, so a run boundary is a change
#: of the whole set, not of its first member.
DEVICE_SETS = [(0,), (0, 1), (1,), (0, 2)]


def run_block(engine, rng, max_ows=8):
    """Overwrites over few actions, in runs of one device set with
    overlapping predicates, between multi-device deltas."""
    ows, devices = [], rng.choice(DEVICE_SETS)
    for _ in range(rng.randint(2, max_ows)):
        if rng.random() < 0.4:
            devices = rng.choice(DEVICE_SETS)
        delta = make_delta({d: rng.randint(0, 2) for d in devices})
        ows.append(Overwrite(random_pred(engine, rng), delta))
    return ows


def test_runs_of_overlapping_overwrites_apply_as_in_sequence():
    """Inside a run the last overwrite holding a header wins; a run ends
    where the device set changes, wherever that set recurs later."""
    rng = case_rng(0xAB02)
    for trial in range(8):
        engine = PredicateEngine(NUM_VARS)
        store = ActionTreeStore()
        fast = InverseModel(engine, store, DEVICES)
        ref = InverseModel(engine, store, DEVICES)
        for _ in range(4):
            block = run_block(engine, rng)
            before = fast.entries()
            assert_step(before, fast.apply_overwrites(block), fast, trial)
            apply_overwrites_reference(ref, block)
            assert canonical(fast) == canonical(ref), trial


def test_disjoint_ecs_are_skipped_and_counted():
    engine, model = fresh_model("fast")
    # Split the space on variable 0, then overwrite only inside one half:
    # the other half's signature misses the block's.
    half = engine.cube([(0, True)])
    model.apply_overwrites([atomic(half, 0, 5)])
    assert len(model) == 2
    before = engine.registry.value("mr2.apply.ecs_skipped")
    quarter = engine.cube([(0, True), (1, True)])
    eighth = engine.cube([(0, True), (1, False), (2, True)])
    model.apply_overwrites([atomic(quarter, 1, 7), atomic(eighth, 1, 8)])
    skipped = engine.registry.value("mr2.apply.ecs_skipped") - before
    # The untouched half (variable 0 false) must have been skipped.
    assert skipped >= 1
    model.check_invariants()


def test_a_whole_ec_re_vectored_costs_one_claim():
    """The run's last overwrite is carved first, so an EC it covers is
    claimed whole by one walk and the overwrites before it cost none."""
    engine, model = fresh_model("fast")
    for var in range(3):
        model.apply_overwrites([atomic(engine.cube([(var, True)]), var, 1)])
    ecs = len(model)
    assert ecs == 8
    block = [
        atomic(engine.cube([(0, True), (4, True)]), 3, 5),
        atomic(random_pred(engine, case_rng(0xAB07)), 3, 6),
        atomic(engine.true, 3, 7),
    ]
    walks = engine.bdd.stats.split_calls
    engine.metrics.reset()
    lineage = model.apply_overwrites(block)
    assert engine.bdd.stats.split_calls - walks == ecs
    assert engine.metrics.total == 2 * ecs  # a claim counts ∧ and ¬
    assert len(lineage.changed) == len(lineage.removed) == ecs
    assert {model.action_of(vec, 3) for _, vec in model.entries()} == {7}
    model.check_invariants()


def test_a_partitioned_model_re_vectored_per_ec_costs_one_claim_each():
    """In a partitioned model a block that covers the subspace universe
    spends no conjunction against it: each EC is claimed once, by the
    overwrite that holds it (signatures rule out the other)."""
    engine = PredicateEngine(NUM_VARS)
    universe = engine.cube([(0, True)])
    model = InverseModel(engine, ActionTreeStore(), DEVICES, universe=universe)
    upper = engine.cube([(0, True), (1, True)])
    lower = engine.cube([(0, True), (1, False)])
    model.apply_overwrites([atomic(upper, 0, 5)])
    assert len(model) == 2
    walks = engine.bdd.stats.split_calls
    engine.metrics.reset()
    model.apply_overwrites([atomic(upper, 1, 7), atomic(lower, 1, 8)])
    assert engine.bdd.stats.split_calls - walks == 2
    assert engine.metrics.total == 4
    assert len(model) == 2
    model.check_invariants()


def test_pair_pruning_counter_advances():
    engine, model = fresh_model("fast")
    left = engine.cube([(0, False)])
    right = engine.cube([(0, True)])
    model.apply_overwrites([atomic(left, 0, 1)])
    # Both ECs meet the block's signature (one overwrite each side),
    # but each (EC, overwrite) pair on opposite sides is sig-pruned.
    before = engine.registry.value("mr2.apply.pairs_pruned")
    model.apply_overwrites(
        [
            atomic(left & engine.cube([(1, True)]), 1, 2),
            atomic(right & engine.cube([(1, True)]), 2, 3),
        ]
    )
    assert engine.registry.value("mr2.apply.pairs_pruned") > before
    model.check_invariants()


def test_noop_and_false_overwrites_leave_model_alone():
    engine, model = fresh_model("fast")
    model.apply_overwrites([atomic(engine.cube([(0, True)]), 0, 5)])
    before = model.entries()
    lineage = model.apply_overwrites(
        [atomic(engine.false, 0, 5), Overwrite(engine.true, ())]
    )
    assert not lineage and lineage.changed == [] and lineage.removed == []
    assert model.entries() == before
    assert all(a is b for (a, _), (b, _) in zip(model.entries(), before))


LAYOUT = dst_only_layout(5)
HEADERS = [dict(LAYOUT.bits_of("dst", v)) for v in range(LAYOUT.universe_size)]


def random_batches(rng, withdrawals, steps=12):
    """Per step, one device's inserts of random prefix rules and, with
    ``withdrawals``, removals of rules it installed before."""
    installed = {d: {} for d in DEVICES}  # device → {priority: rule}
    batches = []
    for _ in range(steps):
        device = rng.choice(DEVICES)
        updates = []
        for pri in rng.sample(range(1, 6), rng.randint(1, 3)):
            old = installed[device].get(pri)
            if old is not None:
                if withdrawals and rng.random() < 0.6:
                    updates.append(delete(device, old))
                    del installed[device][pri]
                continue
            action = rng.choice([a for a in DEVICES if a != device] + [DROP])
            match = Match.dst_prefix(rng.randrange(32), rng.randint(0, 3), LAYOUT)
            rule = installed[device][pri] = Rule(pri, match, action)
            updates.append(insert(device, rule))
        batches.append(updates)
    return batches


@pytest.mark.parametrize("withdrawals", [False, True], ids=["inserts", "withdrawals"])
def test_writer_lineage_is_the_step_at_every_threshold(withdrawals):
    """Through ``ModelWriter``: each batch's lineage, composed across the
    blocks ``block_threshold`` cuts it into, is the step from the
    pre-batch table, and the table equals the reference cross product's."""
    rng = case_rng(0xAB05 + withdrawals)
    for trial in range(3):
        batches = random_batches(rng, withdrawals)
        reference = ModelWriter(DEVICES, LAYOUT)
        reference.model.apply_overwrites = (
            lambda ows: apply_overwrites_reference(reference.model, ows)
        )
        for threshold in (None, 1, 2, 3):
            writer = ModelWriter(DEVICES, LAYOUT, block_threshold=threshold)
            for step, batch in enumerate(batches):
                before = writer.model.entries()
                lineage = writer.submit(batch)
                lineage = compose_lineage(lineage, writer.flush())
                assert_step(
                    before, lineage, writer.model, (trial, threshold, step),
                    one_block=threshold is None,
                )
                if threshold is None:
                    reference.submit(batch)
                    reference.flush()
                    assert [writer.model.behavior(h) for h in HEADERS] == [
                        reference.model.behavior(h) for h in HEADERS
                    ], (trial, step)


def test_rollback_then_apply_equals_a_fresh_apply():
    """``rollback`` rebuilds the signature dict with the table: the next
    block applies, and reports, exactly as on a model that never left
    the version."""
    rng = case_rng(0xAB06)
    engine = PredicateEngine(LAYOUT.total_bits)
    store = ActionTreeStore()
    for trial in range(4):
        head, detour, tail = (random_batches(rng, True, steps=4) for _ in range(3))
        rolled = ModelWriter(DEVICES, LAYOUT, engine=engine, store=store)
        fresh = ModelWriter(DEVICES, LAYOUT, engine=engine, store=store)
        for writer in (rolled, fresh):
            for batch in head:
                writer.submit(batch)
                writer.flush()
        view = rolled.read_view()
        for batch in detour:
            rolled.submit(batch)
            rolled.flush()
        rolled.rollback(view)
        rolled.model.check_invariants()
        assert rolled.model._sigs == fresh.model._sigs
        for batch in tail:
            got, want = [], []
            for writer, out in ((rolled, got), (fresh, want)):
                writer.submit(batch)
                lineage = writer.flush()
                out.append(
                    (
                        [(d.predicate, d.vector, d.origin) for d in lineage.changed],
                        lineage.removed,
                        writer.model.entries(),
                        dict(writer.model._sigs),
                    )
                )
            assert got == want, trial
        rolled.model.check_invariants()


class TestMemoryEstimate:
    def test_shared_nodes_counted_once(self):
        engine, model = fresh_model("fast")
        rng = case_rng(0xAB03)
        for _ in range(5):
            model.apply_overwrites(random_block(engine, rng))
        predicates = [p for p, _ in model.entries()]
        per_pred_sum = sum(p.node_count() for p in predicates)
        shared = engine.shared_node_count(predicates)
        assert shared <= per_pred_sum
        estimate = model.memory_estimate_bytes()
        assert estimate == shared * 40 + len(model) * 64

    def test_estimate_not_inflated_by_duplicated_handles(self):
        engine, model = fresh_model("fast")
        half = engine.cube([(0, True)])
        model.apply_overwrites([atomic(half, 0, 5)])
        # Two complementary ECs share their entire DAG under complement
        # edges; the estimate must not double count it.
        shared = engine.shared_node_count([p for p, _ in model.entries()])
        assert model.memory_estimate_bytes() == shared * 40 + len(model) * 64
