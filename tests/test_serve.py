"""Tests for repro.serve: the snapshot-isolated query daemon.

Covers the concurrency contract end to end — pinned readers stay on
their model version while the writer advances, the epoch-keyed cache
can only ever go stale-but-correct, drain under backpressure leaves the
daemon quiescent but still answering — plus the query semantics, the
copy-isolation engine re-host and the snapshot store's retire rules.
"""

import threading

import pytest

from repro.core.model_manager import ModelWriter
from repro.dataplane.rule import DROP, Rule, ecmp
from repro.dataplane.update import delete, insert
from repro.errors import (
    ServeClosedError,
    ServeSaturatedError,
    SnapshotUnavailableError,
)
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match, Pattern
from repro.network.generators import line
from repro.network.topology import Topology
from repro.serve import (
    BatchOracle,
    LoopQuery,
    QueryAnswer,
    ReachabilityQuery,
    ResultCache,
    ServeDaemon,
    SnapshotStore,
    WaypointQuery,
    build_workload,
    isolate_view,
    reaches_external_avoiding,
    run_load,
)

from .conftest import case_rng
from .serve_reference import evaluate_by_union

LAYOUT = dst_only_layout(8)
SPACE = 1 << 8


def diamond():
    """S fans out to W (the waypoint) and B (the bypass), both exit to X."""
    topo = Topology("diamond")
    s = topo.add_device("S")
    w = topo.add_device("W")
    b = topo.add_device("B")
    x = topo.add_external("X")
    topo.add_link(s, w)
    topo.add_link(s, b)
    topo.add_link(w, x)
    topo.add_link(b, x)
    return topo, s, w, b, x


def view_of(topo, batches, validation="repair"):
    """A read view after replaying ``batches`` through a plain writer."""
    writer = ModelWriter(topo.switches(), LAYOUT, validation=validation)
    for batch in batches:
        writer.submit(batch)
        writer.flush()
    return writer.read_view()


class GatedVerifier:
    """Wraps a daemon's writer so that ``ingest`` waits for ``gate``: it
    stalls the writer mid-apply without touching the rest of the daemon."""

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.entered = threading.Event()  # the writer is inside ingest

    def ingest(self, device, updates):
        self.entered.set()
        self.gate.wait(10.0)
        return self.inner.ingest(device, updates)

    def read_view(self):
        return self.inner.read_view()


def out_of_width(priority, action):
    """A rule whose ``dst`` mask (``priority`` shifted past the 8-bit
    field) fails to compile: validation admits it, the writer raises."""
    return Rule(priority, Match({"dst": Pattern(((0, priority << 8),))}), action)


def exit_rules(topo, s, w, b, x):
    """Full delivery through the waypoint: S→W→X, B→X."""
    return [
        insert(s, Rule(1, Match.wildcard(), w)),
        insert(w, Rule(1, Match.wildcard(), x)),
        insert(b, Rule(1, Match.wildcard(), x)),
    ]


# ----------------------------------------------------------------------
# Query semantics against hand-built views
# ----------------------------------------------------------------------

class TestQueries:
    def test_reachability_holds_on_full_path(self):
        topo, s, w, b, x = diamond()
        view = view_of(topo, [exit_rules(topo, s, w, b, x)])
        answer = ReachabilityQuery(s).evaluate(view, topo)
        assert answer == QueryAnswer(holds=True, headers=SPACE)

    def test_reachability_fails_on_empty_model(self):
        topo, s, *_ = diamond()
        view = view_of(topo, [])
        answer = ReachabilityQuery(s).evaluate(view, topo)
        assert answer == QueryAnswer(holds=False, headers=0)

    def test_scoped_reachability_counts_only_the_scope(self):
        topo, s, w, b, x = diamond()
        view = view_of(topo, [exit_rules(topo, s, w, b, x)])
        scope = Match.dst_prefix(0, 1, LAYOUT)  # half the space
        answer = ReachabilityQuery(s, scope).evaluate(view, topo)
        assert answer == QueryAnswer(holds=True, headers=SPACE // 2)

    def test_loop_detected_with_exact_measure(self):
        topo = line(2)
        half = Match.dst_prefix(0, 1, LAYOUT)
        batch = [
            insert(0, Rule(1, half, 1)),
            insert(1, Rule(1, half, 0)),
        ]
        view = view_of(topo, [batch])
        answer = LoopQuery().evaluate(view, topo)
        assert answer == QueryAnswer(holds=False, headers=SPACE // 2)
        # Scoped to the other half, the loop is out of scope.
        other = Match.dst_prefix(1 << 7, 1, LAYOUT)
        assert LoopQuery(other).evaluate(view, topo) == QueryAnswer(
            holds=True, headers=0
        )

    def test_waypoint_holds_then_bypass_breaks_it(self):
        topo, s, w, b, x = diamond()
        through = exit_rules(topo, s, w, b, x)
        view = view_of(topo, [through])
        assert WaypointQuery(s, w).evaluate(view, topo) == QueryAnswer(
            holds=True, headers=0
        )
        # Re-route half the space around the waypoint.
        bypass = insert(s, Rule(10, Match.dst_prefix(0, 1, LAYOUT), b))
        view = view_of(topo, [through, [bypass]])
        answer = WaypointQuery(s, w).evaluate(view, topo)
        assert answer == QueryAnswer(holds=False, headers=SPACE // 2)

    def test_avoiding_walk_from_the_waypoint_itself(self):
        # A walk starting at the waypoint trivially traverses it, no
        # matter what the FIB says (action_of is never consulted).
        topo, s, w, b, x = diamond()
        assert not reaches_external_avoiding(topo, lambda d: None, w, w)

    def test_cache_key_is_stable_and_scope_sensitive(self):
        topo, s, w, b, x = diamond()
        q1 = ReachabilityQuery(s, Match.dst_prefix(0, 2, LAYOUT))
        q2 = ReachabilityQuery(s, Match.dst_prefix(1 << 6, 2, LAYOUT))
        assert q1.cache_key() == ReachabilityQuery(s, q1.scope).cache_key()
        assert q1.cache_key() != q2.cache_key()
        assert q1.cache_key() != LoopQuery(q1.scope).cache_key()


# ----------------------------------------------------------------------
# Copy isolation: the re-hosted view answers identically
# ----------------------------------------------------------------------

def random_serve_view(rng, topo, updates, universe):
    """A view after ``updates`` random prefix rules (next hops, ECMP pairs
    and drops, so graphs deliver, drop and loop) on a writer over
    ``universe``, a Match or None."""
    writer = ModelWriter(topo.switches(), LAYOUT, subspace_match=universe)
    switches = topo.switches()
    for pri in range(1, updates + 1):
        device = rng.choice(switches)
        hops = sorted(topo.neighbors(device))
        roll = rng.random()
        action = (
            DROP if roll < 0.15
            else ecmp(*rng.sample(hops, 2)) if roll < 0.3 and len(hops) > 1
            else rng.choice(hops)
        )
        match = Match.dst_prefix(rng.getrandbits(8), rng.randint(0, 6), LAYOUT)
        writer.submit([insert(device, Rule(pri, match, action))])
        writer.flush()
    return writer.read_view()


class TestPerEcCounting:
    """Served answers sum each witness EC's share of the scope; the union
    evaluation of ``tests/serve_reference.py`` is the independent check."""

    @pytest.mark.parametrize("seed", range(3))
    def test_sum_equals_the_union_evaluation(self, seed):
        rng = case_rng(0x5E7E + seed)
        topo = Topology("mesh")
        switches = [topo.add_device(f"s{i}") for i in range(5)]
        for i in range(1, 5):
            topo.add_link(switches[i], switches[rng.randrange(i)])
        if not topo.has_link(switches[0], switches[4]):
            topo.add_link(switches[0], switches[4])  # a cycle to loop on
        for name, switch in zip("xyz", rng.sample(switches, 3)):
            topo.add_link(switch, topo.add_external(name))
        low, high = Match.dst_prefix(0, 1, LAYOUT), Match.dst_prefix(128, 1, LAYOUT)
        views = [random_serve_view(rng, topo, 0, None)]  # the one-EC table
        views += [random_serve_view(rng, topo, 0, low)]
        views += [
            random_serve_view(rng, topo, rng.randint(10, 30), rng.choice([None, low]))
            for _ in range(4)
        ]
        asked = 0
        for view in views:
            for served in (view, isolate_view(view)):
                scopes = [None, high]  # high misses a ``low`` universe
                scopes += [
                    Match.dst_prefix(rng.getrandbits(8), rng.randint(1, 5), LAYOUT)
                    for _ in range(6)
                ]
                for scope in scopes:
                    source, waypoint = rng.sample(switches, 2)
                    for query in (
                        ReachabilityQuery(source, scope),
                        LoopQuery(scope),
                        WaypointQuery(source, waypoint, scope),
                    ):
                        want = evaluate_by_union(query, served, topo)
                        assert query.evaluate(served, topo) == want, (seed, query)
                        asked += 1
        assert asked == 6 * 2 * 8 * 3


class TestIsolateView:
    def test_isolated_view_answers_equal_originals(self):
        topo, s, w, b, x = diamond()
        view = view_of(topo, [exit_rules(topo, s, w, b, x)])
        isolated = isolate_view(view)
        assert isolated.engine is not view.engine
        for query in (
            ReachabilityQuery(s),
            ReachabilityQuery(s, Match.dst_prefix(3, 3, LAYOUT)),
            LoopQuery(),
            WaypointQuery(s, w),
        ):
            assert query.evaluate(isolated, topo) == query.evaluate(view, topo)

    def test_isolated_universe_measure_preserved(self):
        topo, s, w, b, x = diamond()
        view = view_of(topo, [exit_rules(topo, s, w, b, x)])
        isolated = isolate_view(view)
        assert isolated.universe.sat_count() == view.universe.sat_count()
        assert isolated.num_ecs() == view.num_ecs()


# ----------------------------------------------------------------------
# SnapshotStore: publish / pin / retire
# ----------------------------------------------------------------------

class TestSnapshotStore:
    def _view(self):
        topo, s, w, b, x = diamond()
        return view_of(topo, [])

    def test_epochs_must_increase(self):
        store = SnapshotStore(keep=2)
        view = self._view()
        store.publish(0, view)
        store.publish(1, view)
        with pytest.raises(ValueError):
            store.publish(1, view)
        with pytest.raises(ValueError):
            store.publish(0, view)

    def test_pin_latest_and_explicit(self):
        store = SnapshotStore(keep=4)
        view = self._view()
        store.publish(0, view)
        store.publish(1, view)
        assert store.pin().epoch == 1
        assert store.pin(0).epoch == 0
        with pytest.raises(SnapshotUnavailableError):
            store.pin(7)

    def test_empty_store_pin_raises(self):
        with pytest.raises(SnapshotUnavailableError):
            SnapshotStore().pin()

    def test_retire_keeps_newest_unpinned(self):
        store = SnapshotStore(keep=2)
        view = self._view()
        for epoch in range(5):
            store.publish(epoch, view)
        assert store.live_epochs() == [3, 4]
        assert store.latest_epoch == 4

    def test_pinned_snapshot_survives_retirement(self):
        store = SnapshotStore(keep=1)
        view = self._view()
        store.publish(0, view)
        pinned = store.pin(0)
        for epoch in range(1, 4):
            store.publish(epoch, view)
        # Epoch 0 outlived the keep bound because a reader holds it.
        assert 0 in store.live_epochs()
        pinned.unpin()
        assert store.live_epochs() == [3]

    def test_context_manager_unpins(self):
        store = SnapshotStore(keep=1)
        store.publish(0, self._view())
        with store.pin(0) as snapshot:
            assert snapshot.pins == 1
        assert snapshot.pins == 0


# ----------------------------------------------------------------------
# ResultCache: epoch-keyed LRU
# ----------------------------------------------------------------------

class TestResultCache:
    KEY0 = (0, "reach", (1,), 123, 45)
    KEY1 = (1, "reach", (1,), 123, 45)

    def test_hit_miss_accounting(self):
        cache = ResultCache(8)
        assert cache.get(self.KEY0) is None
        cache.put(self.KEY0, QueryAnswer(True, 7))
        assert cache.get(self.KEY0) == QueryAnswer(True, 7)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_evict_below_sweeps_old_epochs_only(self):
        cache = ResultCache(8)
        cache.put(self.KEY0, QueryAnswer(True, 1))
        cache.put(self.KEY1, QueryAnswer(False, 2))
        assert cache.evict_below(1) == 1
        assert cache.get(self.KEY0) is None
        assert cache.get(self.KEY1) == QueryAnswer(False, 2)

    def test_lru_bound(self):
        cache = ResultCache(2)
        for i in range(4):
            cache.put((0, "reach", (i,), 0, i), QueryAnswer(True, i))
        assert len(cache) == 2
        assert cache.evictions == 2
        # The oldest entries went first.
        assert cache.get((0, "reach", (0,), 0, 0)) is None
        assert cache.get((0, "reach", (3,), 0, 3)) is not None


# ----------------------------------------------------------------------
# The daemon: lifecycle, isolation, backpressure, drain
# ----------------------------------------------------------------------

class TestServeDaemon:
    def _daemon(self, **kwargs):
        topo, s, w, b, x = diamond()
        return ServeDaemon(topo, LAYOUT, **kwargs), (topo, s, w, b, x)

    def test_rejects_unknown_isolation(self):
        topo, *_ = diamond()
        for mode in ("mvcc", "shared"):  # "shared" was a mode once
            with pytest.raises(ValueError):
                ServeDaemon(topo, LAYOUT, isolation=mode)

    @pytest.mark.parametrize("size", ["workers", "queue_size"])
    def test_rejects_sizes_below_one(self, size):
        """Rejected before any thread or snapshot exists: a pool of zero
        workers cannot start, and ``queue.Queue(maxsize=0)`` is unbounded,
        which would switch backpressure off."""
        topo, *_ = diamond()
        with pytest.raises(ValueError, match=size):
            ServeDaemon(topo, LAYOUT, **{size: 0})

    def test_queries_before_start_raise(self):
        daemon, (topo, s, *_ ) = self._daemon()
        with pytest.raises(ServeClosedError):
            daemon.submit_query(ReachabilityQuery(s))
        with pytest.raises(ServeClosedError):
            daemon.submit_updates([])

    def test_epoch_zero_is_the_empty_model(self):
        daemon, (topo, s, *_rest) = self._daemon()
        with daemon:
            assert daemon.epoch == 0
            result = daemon.ask(ReachabilityQuery(s))
            assert result.epoch == 0
            assert result.answer == QueryAnswer(holds=False, headers=0)

    def test_epoch_advances_per_batch(self):
        daemon, (topo, s, w, b, x) = self._daemon()
        with daemon:
            daemon.submit_updates(exit_rules(topo, s, w, b, x), timeout=10.0)
            daemon.drain()
            assert daemon.epoch == 1
            result = daemon.ask(ReachabilityQuery(s))
            assert result.epoch == 1
            assert result.answer == QueryAnswer(holds=True, headers=SPACE)

    def test_pinned_reader_is_stable_while_writer_advances(self):
        daemon, (topo, s, w, b, x) = self._daemon()
        base = exit_rules(topo, s, w, b, x)
        churn = [insert(s, Rule(10, Match.dst_prefix(0, 1, LAYOUT), b))]
        with daemon:
            daemon.submit_updates(base, timeout=10.0)
            daemon.drain()
            before = daemon.ask(WaypointQuery(s, w), epoch=1)
            assert before.answer == QueryAnswer(holds=True, headers=0)

            # Advance the writer: half the space now bypasses W.
            daemon._draining = False  # drain() only stops intake
            daemon.submit_updates(churn, timeout=10.0)
            daemon.drain()
            assert daemon.epoch == 2

            # A reader pinned at epoch 1 still sees the old model...
            pinned = daemon.ask(WaypointQuery(s, w), epoch=1)
            assert pinned.answer == QueryAnswer(holds=True, headers=0)
            # ...while the latest snapshot has the violation.
            latest = daemon.ask(WaypointQuery(s, w))
            assert latest.epoch == 2
            assert latest.answer == QueryAnswer(
                holds=False, headers=SPACE // 2
            )

    def test_answers_match_batch_oracle_at_each_epoch(self):
        daemon, (topo, s, w, b, x) = self._daemon()
        base = exit_rules(topo, s, w, b, x)
        churn = [insert(s, Rule(10, Match.dst_prefix(0, 1, LAYOUT), b))]
        with daemon:
            for batch in (base, churn):
                daemon._draining = False
                daemon.submit_updates(batch, timeout=10.0)
                daemon.drain()
            oracle = BatchOracle(topo, LAYOUT, [base, churn])
            query = WaypointQuery(s, w)
            for epoch in (1, 2):
                served = daemon.ask(query, epoch=epoch)
                expected = query.evaluate(oracle.view_at(epoch), topo)
                assert served.answer == expected

    def test_repeat_query_hits_the_cache_until_epoch_advances(self):
        daemon, (topo, s, w, b, x) = self._daemon()
        query = ReachabilityQuery(s)
        with daemon:
            daemon.submit_updates(exit_rules(topo, s, w, b, x), timeout=10.0)
            daemon.drain()
            first = daemon.ask(query)
            again = daemon.ask(query)
            assert not first.cached and again.cached
            assert first.answer == again.answer

            daemon._draining = False
            daemon.submit_updates(
                [insert(s, Rule(10, Match.dst_prefix(0, 1, LAYOUT), b))],
                timeout=10.0,
            )
            daemon.drain()
            fresh = daemon.ask(query)
            # New epoch, new key: the cache cannot serve a stale answer.
            assert fresh.epoch == 2 and not fresh.cached

    def test_cache_keys_survive_a_writer_sweep(self, always_sweep):
        """Two scopes against one pinned epoch, with a writer flush and a
        sweep of the writer's engine between them.  A compiled scope is a
        predicate nobody holds once a query returns, so a key must not
        carry its node id.  The scope compiles in the snapshot's own
        engine, which is never swept; the pinned answers must still equal
        the oracle's and the cache must still tell the two scopes apart."""
        daemon, (topo, s, w, b, x) = self._daemon()
        first = exit_rules(topo, s, w, b, x) + [
            insert(s, Rule(10, Match.dst_prefix(0, 2, LAYOUT), b))
        ]
        second = [insert(s, Rule(11, Match.dst_prefix(64, 3, LAYOUT), b))]
        low = WaypointQuery(s, w, Match.dst_prefix(0, 2, LAYOUT))
        high = WaypointQuery(s, w, Match.dst_prefix(64, 2, LAYOUT))
        with daemon:
            daemon.submit_updates(first, timeout=10.0)
            daemon.drain()
            served_low = daemon.ask(low, epoch=1)
            swept = always_sweep()
            daemon._draining = False
            daemon.submit_updates(second, timeout=10.0)
            daemon.drain()
            assert always_sweep() > swept
            served_high = daemon.ask(high, epoch=1)
            again_low = daemon.ask(low, epoch=1)
        oracle = BatchOracle(topo, LAYOUT, [first, second]).view_at(1)
        assert not served_low.cached and not served_high.cached
        assert served_low.answer == low.evaluate(oracle, topo)
        assert served_high.answer == high.evaluate(oracle, topo)
        assert served_low.answer != served_high.answer
        assert again_low.cached and again_low.answer == served_low.answer

    def test_cache_entries_follow_retired_snapshots_out(self):
        daemon, (topo, s, w, b, x) = self._daemon()
        keep = ServeDaemon.KEEP_SNAPSHOTS
        with daemon:
            daemon.ask(ReachabilityQuery(s))  # cached at epoch 0
            assert len(daemon.cache) == 1
            for _ in range(keep):
                daemon._draining = False
                daemon.submit_updates(
                    exit_rules(topo, s, w, b, x), timeout=10.0
                )
                daemon.drain()
            assert daemon.epoch == keep
            daemon.ask(ReachabilityQuery(s))
            # Epoch 0 was retired (the newest ``keep`` stay), so its
            # cache entry is swept.
            assert all(key[0] >= 1 for key in daemon.cache._entries)
            with pytest.raises(SnapshotUnavailableError):
                daemon.ask(ReachabilityQuery(s), epoch=0)

    def test_backpressure_saturates_then_drains(self):
        daemon, (topo, s, w, b, x) = self._daemon(queue_size=1)
        verifier = daemon.verifier = GatedVerifier(daemon.verifier)
        batch = exit_rules(topo, s, w, b, x)
        with daemon:
            # The verifier's gate is shut, so the writer blocks mid-apply
            # on the first batch; the queue then fills deterministically.
            daemon.submit_updates(batch)  # writer takes it, blocks
            assert verifier.entered.wait(10.0)
            daemon.submit_updates(batch)  # sits in the queue
            with pytest.raises(ServeSaturatedError):
                daemon.submit_updates(batch)
            verifier.gate.set()
            daemon.drain()
            assert daemon.epoch == 2
            assert daemon.queue_depth == 0
            # Drain shut intake but queries still flow.
            with pytest.raises(ServeClosedError):
                daemon.submit_updates(batch)
            assert daemon.ask(ReachabilityQuery(s)).answer.holds

    def test_poisoned_batch_is_contained(self):
        daemon, (topo, s, w, b, x) = self._daemon()
        with daemon:
            daemon.submit_updates([insert(s, out_of_width(5, w))], timeout=10.0)
            daemon.drain()
            assert len(daemon.failures) == 1
            assert daemon.failures[0].updates == 1
            # The writer survived and the model did not advance.
            assert daemon.epoch == 0
            assert daemon.stats()["ingest_failures"] == 1

    def test_failures_are_counted_exactly_and_held_boundedly(self):
        daemon, (topo, s, w, b, x) = self._daemon()
        with daemon:
            for priority in range(1, 2001):
                poisoned = insert(s, out_of_width(priority, w))
                daemon.submit_updates([poisoned], timeout=10.0)
            daemon.drain()
            failures = daemon.failures
            assert daemon.stats()["ingest_failures"] == failures.total == 2000
            assert len(failures) <= failures.max_entries < 2000
            assert str(2000 << 8) in failures[-1].error  # the newest is there
            assert daemon.epoch == 0

    def test_close_is_idempotent_and_final(self):
        daemon, (topo, s, *_rest) = self._daemon()
        daemon.start()
        daemon.close()
        daemon.close()
        with pytest.raises(ServeClosedError):
            daemon.submit_query(ReachabilityQuery(s))
        with pytest.raises(ServeClosedError):
            daemon.start()


# ----------------------------------------------------------------------
# Mid-storm consistency: the load harness's oracle check
# ----------------------------------------------------------------------

class TestMidStormOracle:
    def test_concurrent_answers_equal_the_batch_oracle(self):
        workload = build_workload(seed=11, quick=True)
        workload.blocks = workload.blocks[:4]
        workload.clients = 2
        workload.queries_per_client = 8
        result = run_load(workload, seed=11, workers=2, queue_size=2)
        assert result.divergences == []
        assert result.ingest_failures == 0
        assert result.queries == 16
        assert result.final_epoch == len(workload.blocks) + 1
        assert result.ok


# ----------------------------------------------------------------------
# The verdict memo: per-vector verdicts reused across epochs
# ----------------------------------------------------------------------

def vectors_at(daemon, epoch):
    with daemon.snapshots.pin(epoch) as snapshot:
        return {vector for _, vector in snapshot.view.entries()}


def live_vectors(daemon):
    return {
        vector
        for view in daemon.snapshots.live_views()
        for _, vector in view.entries()
    }


class TestVerdictMemo:
    def test_vector_back_after_withdrawal_is_answered_from_the_memo(
        self, monkeypatch
    ):
        from repro.serve import queries

        searched = []
        search = queries.reaches_external_avoiding

        def counting(*args):
            searched.append(args)
            return search(*args)

        monkeypatch.setattr(queries, "reaches_external_avoiding", counting)
        topo, s, w, b, x = diamond()
        bypass = Rule(10, Match.dst_prefix(0, 1, LAYOUT), b)
        batches = [
            exit_rules(topo, s, w, b, x),
            [insert(s, bypass)],
            [delete(s, bypass)],
            [insert(s, bypass)],
        ]
        query = WaypointQuery(s, w)
        searches, answers = [], []
        with ServeDaemon(topo, LAYOUT) as daemon:
            for batch in batches:
                daemon._draining = False
                daemon.submit_updates(batch, timeout=10.0)
                daemon.drain()
                del searched[:]
                answers.append(daemon.ask(query).answer)
                searches.append(len(searched))
            back = vectors_at(daemon, 2) - vectors_at(daemon, 1)
            assert len(back) == 1  # the bypass vector
            assert not back & vectors_at(daemon, 3)  # withdrawn...
            assert back <= vectors_at(daemon, 4)  # ...and back again
            assert back <= daemon._memo.vectors()
        # Epoch 2 searched the new vector once; epoch 4 searched nothing.
        assert searches == [1, 1, 0, 0]
        oracle = BatchOracle(topo, LAYOUT, batches)
        for epoch, answer in enumerate(answers, start=1):
            assert answer == query.evaluate(oracle.view_at(epoch), topo)
        assert answers[3] == QueryAnswer(holds=False, headers=SPACE // 2)

    def test_memo_holds_only_live_vectors(self):
        topo, s, w, b, x = diamond()
        # Six distinct vectors, more than the daemon's four live
        # snapshots can hold at once.
        hops = [(s, b), (w, s), (b, s), (s, DROP), (w, DROP), (b, DROP)]
        queries = [ReachabilityQuery(s), LoopQuery(), WaypointQuery(s, w)]
        with ServeDaemon(topo, LAYOUT) as daemon:
            previous = []
            batches = [exit_rules(topo, s, w, b, x)]
            for i in range(8):
                device, action = hops[i % len(hops)]
                rule = Rule(10, Match.dst_prefix(i << 5, 3, LAYOUT), action)
                batches.append(previous + [insert(device, rule)])
                previous = [delete(device, rule)]
            ever = set()
            for batch in batches:
                daemon._draining = False
                daemon.submit_updates(batch, timeout=10.0)
                daemon.drain()
                assert daemon._memo.vectors() <= live_vectors(daemon)
                for query in queries:
                    daemon.ask(query)
                assert daemon._memo.vectors() <= live_vectors(daemon)
                ever |= daemon._memo.vectors()
            assert daemon.epoch == len(batches)
        # Not vacuous: vectors the memo once held died and left it.
        assert ever - daemon._memo.vectors()

    def test_memo_under_contention(self):
        """More query workers than cores and a 10 µs switch interval, so
        the writer's prune-and-swap interleaves with readers filling the
        memo: every answer must still equal the oracle's."""
        import sys

        workload = build_workload(seed=3, quick=True)
        workload.clients = 4
        workload.queries_per_client = 15
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = run_load(workload, seed=3, workers=4, queue_size=2)
        finally:
            sys.setswitchinterval(interval)
        assert result.divergences == []
        assert result.ingest_failures == 0
        assert result.queries == 60
        assert result.final_epoch == len(workload.blocks) + 1

    def test_poisoned_entry_is_reported_by_the_oracle_check(self):
        """``repro serve``'s divergence check evaluates without the memo,
        so a wrong memo entry cannot vouch for itself."""
        from repro.serve.load import oracle_divergences

        topo, s, w, b, x = diamond()
        base = exit_rules(topo, s, w, b, x)
        query = WaypointQuery(s, w)
        with ServeDaemon(topo, LAYOUT) as daemon:
            daemon.submit_updates(base, timeout=10.0)
            daemon.drain()
            (vector,) = vectors_at(daemon, 1)
            # Every header goes S→W→X, so no vector bypasses W; claim one does.
            daemon._memo.verdicts_for(query.kind, query.params())[vector] = True
            served = daemon.ask(query)
        assert served.answer == QueryAnswer(holds=False, headers=SPACE)
        assert oracle_divergences([served], topo, LAYOUT, [base]) == [
            f"epoch 1: {query!r} served {served.answer} but the batch "
            f"oracle says {QueryAnswer(holds=True, headers=0)}"
        ]


# ----------------------------------------------------------------------
# The deprecated writer alias is gone after its grace period
# ----------------------------------------------------------------------

class TestQueryDeadline:
    def test_overrunning_query_times_out_and_is_counted(self):
        from repro.errors import QueryTimeoutError
        from repro.telemetry import Telemetry

        topo, s, w, b, x = diamond()
        telemetry = Telemetry()
        with ServeDaemon(
            topo, LAYOUT, query_deadline=1e-9, telemetry=telemetry
        ) as daemon:
            daemon.submit_updates(exit_rules(topo, s, w, b, x), timeout=5.0)
            daemon.drain()
            with pytest.raises(QueryTimeoutError):
                daemon.ask(ReachabilityQuery(s))
            assert telemetry.registry.value("serve.query.timeouts") == 1
            # A timed-out evaluation must not poison the cache: nothing
            # was stored for that key.
            assert len(daemon.cache) == 0

    def test_generous_deadline_does_not_interfere(self):
        topo, s, w, b, x = diamond()
        with ServeDaemon(topo, LAYOUT, query_deadline=30.0) as daemon:
            daemon.submit_updates(exit_rules(topo, s, w, b, x), timeout=5.0)
            daemon.drain()
            result = daemon.ask(ReachabilityQuery(s))
            assert result.answer == QueryAnswer(holds=True, headers=SPACE)

    def test_non_positive_deadline_rejected(self):
        topo, *_ = diamond()
        with pytest.raises(ValueError):
            ServeDaemon(topo, LAYOUT, query_deadline=0.0)


class TestSignalShutdown:
    def test_sigterm_drains_and_closes_the_daemon(self):
        import signal

        from repro.serve import install_signal_handlers

        topo, s, w, b, x = diamond()
        daemon = ServeDaemon(topo, LAYOUT).start()
        previous = install_signal_handlers(
            daemon, signals=(signal.SIGTERM, signal.SIGINT)
        )
        try:
            daemon.submit_updates(exit_rules(topo, s, w, b, x), timeout=5.0)
            with pytest.raises(SystemExit) as excinfo:
                signal.raise_signal(signal.SIGTERM)
            assert excinfo.value.code == 128 + signal.SIGTERM
            # Closed means: queued work applied, no new intake, workers
            # stopped — not a mid-batch teardown.
            assert daemon.epoch == 1  # the one batch was fully applied
            with pytest.raises(ServeClosedError):
                daemon.submit_updates([], timeout=0.1)
            assert (
                daemon.telemetry.registry.value("serve.signal.shutdowns") == 1
            )
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            daemon.close()

    def test_sigint_converts_to_keyboard_interrupt(self):
        import signal

        from repro.serve import install_signal_handlers

        topo, *_ = diamond()
        daemon = ServeDaemon(topo, LAYOUT).start()
        previous = install_signal_handlers(daemon, signals=(signal.SIGINT,))
        try:
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)
            with pytest.raises(ServeClosedError):
                daemon.submit_query(LoopQuery())
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            daemon.close()

    def test_run_load_tolerates_mid_run_close(self):
        """A daemon closed under the load harness (the signal path) ends
        the run gracefully: threads stop at ServeClosedError and the
        oracle check covers what was answered."""
        workload = build_workload(seed=5, quick=True)
        workload.blocks = workload.blocks[:2]
        workload.clients = 1
        workload.queries_per_client = 4

        def close_early(daemon):
            threading.Timer(0.05, daemon.close).start()

        result = run_load(
            workload, seed=5, workers=2, queue_size=2, on_start=close_early
        )
        assert result.divergences == []


class TestModelManagerAlias:
    def test_model_manager_alias_removed(self):
        import repro
        import repro.core
        import repro.core.model_manager as mm
        assert not hasattr(mm, "ModelManager")
        assert not hasattr(repro.core, "ModelManager")
        assert not hasattr(repro, "ModelManager")
        assert "ModelManager" not in repro.core.__all__
        assert "ModelManager" not in repro.__all__
