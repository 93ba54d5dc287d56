"""GC stress tests: epoch churn, survivor integrity, table shrinkage.

The CE2D pipeline allocates waves of short-lived predicates (one wave
per update batch / consistency epoch) while a working set of port and
reachability predicates stays live across epochs.  These tests drive
that pattern through :class:`repro.bdd.predicate.PredicateEngine` and
check the three guarantees the GC design note promises:

* predicates still referenced — via handles, or raw edges passed to
  ``BDD.collect`` as roots — survive collection *bit-for-bit* (checked
  by structural import into an untouched engine, i.e. BDD equality, not
  just sat counts);
* the node arrays physically shrink after a sweep (dead tail truncated,
  unique table rebuilt over the survivors);
* dropped handles actually release their nodes (weak tracking works).
"""

import random

import pytest

from repro.bdd.engine import BDD, SWEEP_FLOOR
from repro.bdd.predicate import PredicateEngine

from .bdd_reference import ReferenceBDD
from .conftest import case_rng

NUM_VARS = 16


def random_cube_pred(eng: PredicateEngine, rng: random.Random):
    plen = rng.randint(2, NUM_VARS - 2)
    return eng.cube([(i, bool(rng.getrandbits(1))) for i in range(plen)])


def build_wave(eng: PredicateEngine, rng: random.Random, count: int):
    """One epoch's worth of distinct predicates: an or/xor/ite rule mix.

    Alternating disjunction with xor keeps the accumulator away from
    constant TRUE (a pure OR of cubes saturates), so every returned
    predicate holds real nodes and the wave exercises allocation.
    """
    preds = []
    acc = eng.false
    for idx in range(count):
        c = random_cube_pred(eng, rng)
        acc = (acc | c) if idx & 1 else (acc ^ c)
        if idx % 4 == 3:
            acc = eng.ite(c, preds[-1], acc)
        preds.append(acc)
    return preds


class TestEpochStress:
    def test_thousands_of_predicates_across_epochs(self):
        """Eight epochs x ~250 predicates; a few survivors per epoch.

        Survivors are fingerprinted (sat count) and mirrored into a
        pristine engine *before* any collection; after all the churn,
        re-importing each survivor must reproduce the identical BDD in
        the mirror — node-for-node equality, which per the import
        contract is BDD equality across engines.
        """
        eng = PredicateEngine(NUM_VARS)
        mirror = PredicateEngine(NUM_VARS)
        rng = case_rng(1)
        survivors = []
        peak_nodes = 0
        for epoch in range(8):
            wave = build_wave(eng, rng, 250)
            keep = rng.sample(wave, 4)
            survivors.extend(
                (p, p.sat_count(), mirror.import_predicate(p)) for p in keep
            )
            peak_nodes = max(peak_nodes, eng.live_nodes)
            del wave, keep
            freed = eng.collect()
            assert freed > 0, f"epoch {epoch}: churn must free nodes"

        assert len(survivors) == 32
        assert eng.live_nodes < peak_nodes
        for pred, expected_sat, before in survivors:
            assert pred.sat_count() == expected_sat
            assert mirror.import_predicate(pred) == before

    def test_survivors_match_reference_engine(self):
        """Same epoch script on the new engine and on a ReferenceBDD-backed
        engine; surviving predicates agree structurally after GC runs that
        only the new engine performs."""
        eng = PredicateEngine(NUM_VARS)
        ref = PredicateEngine(NUM_VARS, bdd=ReferenceBDD(NUM_VARS))
        keep_new, keep_ref = [], []
        for epoch in range(4):
            rng_new, rng_ref = case_rng(50 + epoch), case_rng(50 + epoch)
            wave_new = build_wave(eng, rng_new, 120)
            wave_ref = build_wave(ref, rng_ref, 120)
            keep_new.append(wave_new[-1])
            keep_ref.append(wave_ref[-1])
            del wave_new, wave_ref
            eng.collect()
        probe = PredicateEngine(NUM_VARS)
        for a, b in zip(keep_new, keep_ref):
            assert probe.import_predicate(a) == probe.import_predicate(b)


class TestTableShrinks:
    def test_node_arrays_and_unique_table_shrink(self):
        eng = PredicateEngine(NUM_VARS)
        rng = case_rng(2)
        keep = build_wave(eng, rng, 30)[-1]
        small = eng.bdd.num_nodes
        build_wave(eng, rng, 600)
        grown = eng.bdd.num_nodes
        assert grown > small * 2
        freed = eng.collect()
        assert freed > 0
        assert eng.bdd.num_nodes < grown, "dead tail must be truncated"
        assert eng.bdd.unique_used == eng.bdd.live_node_count - 1  # minus terminal
        assert keep.sat_count() > 0  # survivor still intact

    def test_dropping_handles_releases_nodes(self):
        eng = PredicateEngine(NUM_VARS)
        rng = case_rng(3)
        base = eng.live_nodes
        wave = build_wave(eng, rng, 200)
        assert eng.collect() == 0 or eng.live_nodes >= base  # all still held
        live_held = eng.live_nodes
        del wave
        assert eng.collect() > 0
        assert eng.live_nodes < live_held


class TestRoots:
    """One root kind: ``BDD.collect(roots)`` keeps what ``roots`` reach
    (and the single-variable functions); the predicate layer passes its
    live handles."""

    def test_raw_edge_survives_only_when_passed_as_root(self):
        bdd = BDD(NUM_VARS)
        rng = case_rng(4)

        def raw_stream(n):
            p = 0
            for _ in range(n):
                cube = bdd.cube(
                    [(i, bool(rng.getrandbits(1))) for i in range(rng.randint(2, 12))]
                )
                p = bdd.apply_or(p, cube)
            return p

        kept = raw_stream(40)
        count_before = bdd.sat_count(kept)
        size = bdd.node_count(kept)
        raw_stream(40)  # garbage: raw edges nobody passes as roots
        live_before = bdd.live_node_count
        assert bdd.collect([kept]) > 0
        assert bdd.live_node_count < live_before
        assert bdd.sat_count(kept) == count_before

        assert bdd.collect() >= size  # not passed: the kept tree goes too
        assert bdd.live_node_count == 1  # the terminal alone

    def test_predicate_survives_only_while_a_handle_is_held(self):
        eng = PredicateEngine(NUM_VARS)
        p = eng.cube([(1, True), (2, True), (5, False)])
        size = p.node_count()
        eng.collect()
        assert p.sat_count() == 1 << (NUM_VARS - 3)
        assert p.node_count() == size
        del p
        assert eng.collect() == size  # the last handle was the root


class TestAutoCollect:
    def test_gc_threshold_triggers_collection(self):
        """The sweep rule: nothing below the floor, one sweep once the
        store has doubled, none again until it doubles again."""
        eng = PredicateEngine(NUM_VARS)
        stats = eng.bdd.stats
        rng = case_rng(5)
        held = []
        while eng.live_nodes < SWEEP_FLOOR:
            assert eng.collect_if_grown() == 0  # below the floor
            held.extend(build_wave(eng, rng, 50))
        assert stats.gc_runs == 0
        while eng.live_nodes < 3 * SWEEP_FLOOR:
            held.extend(build_wave(eng, rng, 50))
        counts = [p.sat_count() for p in held]

        eng.collect_if_grown()  # doubled since "nothing survived"
        assert stats.gc_runs == 1
        survivors = stats.gc_last_live
        assert survivors == eng.live_nodes
        assert 2 * survivors > SWEEP_FLOOR  # doubling, not the floor, binds

        while eng.live_nodes < 2 * survivors:
            assert eng.collect_if_grown() == 0  # grown, not yet doubled
            build_wave(eng, rng, 50)  # handles dropped: garbage
        assert stats.gc_runs == 1
        assert eng.collect_if_grown() > 0
        assert stats.gc_runs == 2
        assert eng.live_nodes < 2 * survivors
        assert eng.collect_if_grown() == 0
        assert [p.sat_count() for p in held] == counts

    def test_gc_telemetry_published(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        eng = PredicateEngine(NUM_VARS, registry)
        rng = case_rng(6)
        build_wave(eng, rng, 80)
        eng.collect()
        snap = registry.snapshot()["gauges"]
        assert snap["bdd.gc.runs"] == 1
        assert snap["bdd.gc.freed"] > 0
        assert snap["bdd.gc.live"] == eng.live_nodes
        assert snap["bdd.gc.seconds"] > 0


class TestSweepBesideReaders:
    """The owner sweeps while other threads hold handles into its store:
    a handle may die on any thread, and counting from a held handle
    walks only nodes the handle roots."""

    def test_a_handle_dying_on_another_thread_during_sweeps(self):
        import threading

        eng = PredicateEngine(NUM_VARS)
        rng = case_rng(0xC0B4)
        held = build_wave(eng, rng, 60)[::3]
        counts = [p.sat_count() for p in held]
        doomed = [build_wave(eng, rng, 20) for _ in range(40)]
        released = []

        def reader():
            while doomed:
                wave = doomed.pop()
                released.append(len(wave))
                del wave  # the last references die on this thread

        thread = threading.Thread(target=reader)
        thread.start()
        while thread.is_alive():
            eng.collect()
        thread.join()
        eng.collect()
        assert sum(released) == 40 * 20
        assert [p.sat_count() for p in held] == counts
        # Every released wave was swept: what is left is what ``held``
        # reaches, the single-variable functions and the terminal.
        assert eng.live_nodes <= (
            1 + eng.shared_node_count(held) + len(eng.bdd._var_nodes)
        )

    def test_counts_from_a_held_handle_survive_the_sweep_that_clears_them(self):
        eng = PredicateEngine(NUM_VARS)
        rng = case_rng(0xC0B5)
        held = build_wave(eng, rng, 40)[::4]
        literals = [(0, True), (3, False)]
        scope = PredicateEngine(NUM_VARS).cube(literals)  # another store

        def shares():
            return [
                eng.bdd.and_count(p.node, scope.engine.bdd, scope.node, {})
                for p in held
            ]

        counts, before = [p.sat_count() for p in held], shares()
        build_wave(eng, rng, 80)  # garbage to sweep
        assert eng.collect() > 0
        assert eng.bdd._sat_cache == {}  # the sweep cleared the memo
        assert [p.sat_count() for p in held] == counts
        assert shares() == before == [
            (p & eng.cube(literals)).sat_count() for p in held
        ]
