"""Engine-equivalence over the difftest corpus, plus import regressions.

The rebuilt BDD engine must be *observably identical* to the frozen
reference engine everywhere above the node encoding.  Two checks:

* every checked-in difftest scenario, modelled by the brute-force
  oracle, produces BDD-equal behavior / reachability / loop predicates
  whether the comparison engine runs on the new
  :class:`~repro.bdd.engine.BDD` or on
  :class:`tests.bdd_reference.ReferenceBDD` (cross-engine equality via
  structural import into one probe engine);
* the full differential runner — whose shared comparison engine is the
  new BDD — still reports zero divergences on the corpus, i.e. verdicts
  derived through the new engine match the oracle's.

The remaining tests pin down the ``import_predicate`` contract: interned
self-import (no walk, no allocation), unique-table dedup on re-import,
and chains as deep as the engine's recursion bound admits.
"""

from pathlib import Path

import pytest

from repro.bdd.engine import max_num_vars
from repro.bdd.predicate import PredicateEngine
from repro.difftest import DifferentialRunner, Scenario
from repro.difftest.compare import view_from_oracle
from repro.difftest.corpus import iter_cases
from repro.difftest.oracle import ReferenceOracle

from .bdd_reference import ReferenceBDD

CORPUS_DIR = Path(__file__).parent / "corpus"
# Plain scenarios only — kind-tagged payloads (chaos, interleave) wrap a
# scenario in a recipe and are replayed by tests/test_corpus_replay.py.
CORPUS = [
    scenario
    for _, scenario in iter_cases(CORPUS_DIR)
    if isinstance(scenario, Scenario)
]


def oracle_view(scenario, engine: PredicateEngine):
    topology = scenario.build_topology()
    layout = scenario.build_layout()
    oracle = ReferenceOracle(topology, layout)
    oracle.process_updates(scenario.updates)
    return topology, view_from_oracle("oracle", engine, oracle)


@pytest.mark.parametrize("scenario", CORPUS, ids=lambda s: s.name)
def test_oracle_model_identical_on_both_engines(scenario):
    layout = scenario.build_layout()
    new_eng = PredicateEngine(layout.total_bits)
    ref_eng = PredicateEngine(layout.total_bits, bdd=ReferenceBDD(layout.total_bits))
    topology, new_view = oracle_view(scenario, new_eng)
    _, ref_view = oracle_view(scenario, ref_eng)
    probe = PredicateEngine(layout.total_bits)

    new_map = new_view.behavior_map()
    ref_map = ref_view.behavior_map()
    assert set(new_map) == set(ref_map)
    for device in new_map:
        assert set(new_map[device]) == set(ref_map[device]), f"device {device}"
        for action, pred in new_map[device].items():
            mirrored = probe.import_predicate(pred)
            expected = probe.import_predicate(ref_map[device][action])
            assert mirrored == expected, (
                f"device {device}, action {action!r}: engines disagree"
            )
            assert pred.sat_count() == ref_map[device][action].sat_count()

    for source in sorted(topology.switches()):
        new_reach = new_view.reach_predicate(topology, source)
        ref_reach = ref_view.reach_predicate(topology, source)
        assert probe.import_predicate(new_reach) == probe.import_predicate(
            ref_reach
        ), f"reachability from {source}"

    assert probe.import_predicate(
        new_view.loop_predicate(topology)
    ) == probe.import_predicate(ref_view.loop_predicate(topology))


@pytest.mark.parametrize("scenario", CORPUS, ids=lambda s: s.name)
def test_runner_verdicts_clean_through_new_engine(scenario):
    """All five engines, diffed inside a new-BDD comparison engine."""
    result = DifferentialRunner().run(scenario)
    assert result.ok, f"divergences: {result.divergences}"


class TestImportPredicate:
    def test_self_import_returns_interned_handle_without_walking(self):
        eng = PredicateEngine(12)
        p = eng.cube([(0, True), (4, False)]) | eng.cube([(7, True)])
        before = eng.live_nodes
        again = eng.import_predicate(p)
        assert again is p, "self-import must return the interned handle"
        assert eng.live_nodes == before

    def test_shared_store_import_is_a_self_import(self):
        eng_a = PredicateEngine(12)
        eng_b = PredicateEngine(12, bdd=eng_a.bdd)
        p = eng_a.cube([(1, True), (2, True)])
        q = eng_b.import_predicate(p)
        assert q.node == p.node
        assert q.engine is eng_b

    def test_reimport_dedupes_through_unique_table(self):
        src = PredicateEngine(12)
        dst = PredicateEngine(12)
        p = src.cube([(0, True)]) ^ src.cube([(5, False), (9, True)])
        first = dst.import_predicate(p)
        allocated = dst.bdd.num_nodes
        second = dst.import_predicate(p)
        assert second == first
        assert dst.bdd.num_nodes == allocated, (
            "re-import must dedupe against existing nodes, not rebuild"
        )

    @pytest.mark.parametrize("direction", ["ref_to_new", "new_to_ref"])
    def test_deep_import_at_recursion_bound(self, direction):
        """A chain as deep as the engine admits imports both ways.

        The engine's apply recurses one frame per variable, so ``BDD``
        refuses a ``num_vars`` beyond :func:`max_num_vars` at
        construction (``test_bdd_invariants.py::TestBounds``); import,
        node counting and model counting must work right up to it.
        """
        depth = max_num_vars()
        if direction == "ref_to_new":
            src = PredicateEngine(depth, bdd=ReferenceBDD(depth))
            dst = PredicateEngine(depth)
        else:
            src = PredicateEngine(depth)
            dst = PredicateEngine(depth, bdd=ReferenceBDD(depth))
        chain = src.cube([(i, bool(i % 2)) for i in range(depth)])
        imported = dst.import_predicate(chain)
        assert imported.node_count() == chain.node_count()
        assert imported.sat_count() == 1
        # Round-trip back into the source engine: equality of interned
        # handles is the correctness check.
        assert src.import_predicate(imported) is chain

    def test_import_preserves_function(self):
        src = PredicateEngine(10, bdd=ReferenceBDD(10))
        dst = PredicateEngine(10)
        p = (src.cube([(0, True), (3, True)]) | src.cube([(6, False)])) ^ (
            src.cube([(2, True)])
        )
        q = dst.import_predicate(p)
        assert q.sat_count() == p.sat_count()
        for m in range(64):
            assignment = {i: bool((m >> i) & 1) for i in range(10)}
            assert q.evaluate(assignment) == p.evaluate(assignment)
