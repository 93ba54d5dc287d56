"""Fast apply path ≡ reference cross product, plus memory accounting.

The support-pruned, signature-filtered, split-based
:meth:`InverseModel.apply_overwrites` must produce exactly the same
model as the historical cross product, kept as the oracle
:func:`tests.apply_reference.apply_overwrites_reference`, on arbitrary
EC tables and overwrite blocks — these property tests drive both over
the same random streams (seeded via ``--repro-seed``) and compare the
resulting vec→predicate maps after every block.
"""

import pytest

from repro.bdd.predicate import PredicateEngine
from repro.core.actiontree import ActionTreeStore
from repro.core.inverse_model import InverseModel
from repro.core.overwrite import Overwrite, atomic, make_delta

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
            fast.apply_overwrites(block_a)
            apply_overwrites_reference(ref, block_b)
            fast.check_invariants()
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


def test_fast_apply_with_explicit_support_matches_computed():
    rng = case_rng(0xAB02)
    engine_a, with_support = fresh_model("fast")
    engine_b, without = fresh_model("fast")
    for _ in range(8):
        seed = rng.getrandbits(32)
        block_a = random_block(engine_a, case_rng(seed))
        block_b = random_block(engine_b, case_rng(seed))
        support = engine_a.disj_many([ow.predicate for ow in block_a])
        with_support.apply_overwrites(block_a, support=support)
        without.apply_overwrites(block_b)
    assert len(with_support) == len(without)
    probe = PredicateEngine(NUM_VARS)
    assert {
        a: probe.import_predicate(engine_a.pred(n))
        for a, n in canonical(with_support).items()
    } == {
        a: probe.import_predicate(engine_b.pred(n))
        for a, n in canonical(without).items()
    }


def test_disjoint_ecs_are_skipped_and_counted():
    engine, model = fresh_model("fast")
    # Split the space on variable 0, then overwrite only inside one half
    # with a block of >1 overwrites so the support pre-pass engages.
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


def test_pair_pruning_counter_advances():
    engine, model = fresh_model("fast")
    left = engine.cube([(0, False)])
    right = engine.cube([(0, True)])
    model.apply_overwrites([atomic(left, 0, 1)])
    # Both ECs overlap the block's support (one overwrite each side),
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
    entries_before = canonical(model)
    deltas = model.apply_overwrites(
        [atomic(engine.false, 0, 5), Overwrite(engine.true, ())]
    )
    assert canonical(model) == entries_before
    assert len(deltas) == len(model)


class TestMemoryEstimate:
    def test_shared_nodes_counted_once(self):
        engine, model = fresh_model("fast")
        rng = case_rng(0xAB03)
        for _ in range(5):
            model.apply_overwrites(random_block(engine, rng))
        per_pred_sum = sum(
            p.node_count() for p in model.predicates()
        )
        shared = engine.shared_node_count(model.predicates())
        assert shared <= per_pred_sum
        estimate = model.memory_estimate_bytes()
        assert estimate == shared * 40 + len(model) * 64

    def test_estimate_not_inflated_by_duplicated_handles(self):
        engine, model = fresh_model("fast")
        half = engine.cube([(0, True)])
        model.apply_overwrites([atomic(half, 0, 5)])
        # Two complementary ECs share their entire DAG under complement
        # edges; the estimate must not double count it.
        shared = engine.shared_node_count(model.predicates())
        assert model.memory_estimate_bytes() == shared * 40 + len(model) * 64
