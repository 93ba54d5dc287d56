"""Tests for the persistent worker fleet (repro.fleet).

Every test here runs real OS processes through the supervised dispatch
path: heartbeats, per-block acks, checkpoint + journal-tail recovery,
idempotent redelivery, and graceful degradation into the in-process
fallback.  The invariant throughout is *verdict preservation*: whatever
the storm does to the workers, the per-subspace stats (ECs, applied
updates) must equal a clean sequential run's.
"""

import pytest

from repro.bdd.wire import (
    WireFormatError,
    frame_shard_snapshot,
    unframe_shard_snapshot,
)
from repro.core.parallel import run_partitioned
from repro.core.subspace import SubspacePartition
from repro.dataplane.rule import Rule
from repro.dataplane.update import insert
from repro.headerspace.fields import dst_only_layout
from repro.headerspace.match import Match
from repro.network.generators import ring
from repro.resilience import RetryPolicy

pytestmark = pytest.mark.fleet

LAYOUT = dst_only_layout(6)

# Fast-failure-detection policy: tests inject hangs/kills, so the ack
# watchdog and respawn backoff are tightened far below the defaults.
FAST = RetryPolicy(
    max_retries=1,
    backoff_seconds=0.01,
    task_timeout=1.0,
    jitter=0.0,
    max_respawns=2,
    ack_resends=1,
)


def setup_workload(per_shard: int = 6):
    """A ring plus enough single-shard updates for a multi-block storm.

    ``per_shard`` non-overlapping rules land in each of the two dst
    subspaces, so with ``block_size=1`` every shard sees ``per_shard``
    blocks — room for checkpoints, a journal tail, and a mid-storm kill.
    """
    topo = ring(4)
    partition = SubspacePartition.dst_prefix_partition(
        LAYOUT, [(0x00, 1), (0x20, 1)]
    )
    updates = []
    for i in range(per_shard):
        low = Match.dst_prefix(i << 2, 4, LAYOUT)  # dst top bit 0 -> sub0
        high = Match.dst_prefix(0x20 | (i << 2), 4, LAYOUT)  # -> sub1
        updates.append(insert(i % 4, Rule(1 + i, low, 1)))
        updates.append(insert((i + 1) % 4, Rule(1 + i, high, 2)))
    return topo, partition, updates


def run_clean(topo, partition, updates):
    return run_partitioned(
        topo.switches(), LAYOUT, partition, updates, processes=None
    )


def assert_stats_match(result, clean):
    by_name = {s.subspace: s for s in result.stats}
    clean_by_name = {s.subspace: s for s in clean.stats}
    assert set(by_name) == set(clean_by_name)
    for name in by_name:
        assert by_name[name].ecs == clean_by_name[name].ecs, name
        assert by_name[name].updates == clean_by_name[name].updates, name


class TestFaultFreeFleet:
    def test_matches_sequential_blockwise(self):
        """Block-at-a-time dispatch (the fleet's native shape) produces
        the same per-subspace stats as one sequential pass."""
        topo, partition, updates = setup_workload()
        clean = run_clean(topo, partition, updates)
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=2, block_size=2, checkpoint_every=2,
        )
        assert result.ok and not result.failures
        assert_stats_match(result, clean)
        reg = result.registry
        dispatched = reg.value("fleet.blocks.dispatched")
        assert dispatched == reg.value("fleet.blocks.acked") > 0
        assert reg.value("fleet.checkpoints") > 0
        assert reg.value("fleet.respawns") == 0
        assert reg.value("fleet.workers.lost") == 0
        assert reg.value("parallel.workers") == 2

    def test_collected_models_match_sequential(self):
        topo, partition, updates = setup_workload(per_shard=4)
        seq = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=None, collect_models=True,
        )
        par = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=2, block_size=2, collect_models=True,
        )
        for name in seq.models:
            seq_view = {
                tuple(sorted(actions.items())): pred.sat_count()
                for pred, actions in seq.models[name]
            }
            par_view = {
                tuple(sorted(actions.items())): pred.sat_count()
                for pred, actions in par.models[name]
            }
            assert seq_view == par_view


class TestCrashRecovery:
    def test_killed_worker_replays_only_the_journal_tail(self):
        """A worker killed mid-storm resumes from its last FSJ1 snapshot
        and replays only the acked-but-uncheckpointed tail — not the
        whole batch.  With checkpoint_every=2 and the kill landing on
        delivery #4 (``#3``), the tail is exactly one block."""
        topo, partition, updates = setup_workload(per_shard=6)
        clean = run_clean(topo, partition, updates)
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=2, block_size=1, checkpoint_every=2,
            retry=FAST, faults={"sub0": "kill@1#3"},
        )
        assert result.ok
        assert_stats_match(result, clean)
        reg = result.registry
        assert reg.value("fleet.workers.lost") == 1
        assert reg.value("fleet.respawns") == 1
        replayed = reg.value("fleet.blocks.replayed")
        # Checkpoint at block 2, acked tail = block 3, killed on block 4.
        assert replayed == 1
        assert replayed < 6  # never the whole per-shard batch
        failure = result.failures[0]
        assert failure.subspace == "sub0"
        assert failure.recovered and failure.timed_out

    def test_snapshot_frame_round_trips(self):
        blob = b"\x01\x02\x03fake-fbw1-payload"
        framed = frame_shard_snapshot(blob, [1, 2, 5, 9])
        out, journal = unframe_shard_snapshot(framed)
        assert out == blob and journal == [1, 2, 5, 9]

    def test_snapshot_frame_rejects_corruption(self):
        framed = frame_shard_snapshot(b"payload", [1, 2])
        with pytest.raises(WireFormatError):
            unframe_shard_snapshot(b"XXXX" + framed[4:])  # bad magic
        with pytest.raises(WireFormatError):
            unframe_shard_snapshot(framed[:-1])  # truncated blob
        with pytest.raises(WireFormatError):
            frame_shard_snapshot(b"p", [2, 1])  # non-monotone journal


class TestLivenessAndIdempotency:
    @pytest.mark.slow
    def test_hung_worker_is_detected_and_replaced(self):
        """A hang never errors and never acks: only the ack watchdog can
        notice.  After the resend budget the worker is killed; the
        respawned generation (fault window passed) finishes the shard."""
        topo, partition, updates = setup_workload(per_shard=4)
        clean = run_clean(topo, partition, updates)
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=2, block_size=1, checkpoint_every=2,
            retry=RetryPolicy(
                max_retries=1, backoff_seconds=0.01, task_timeout=0.4,
                jitter=0.0, max_respawns=2, ack_resends=1,
            ),
            faults={"sub1": "hang@1#1"},
        )
        assert result.ok
        assert_stats_match(result, clean)
        reg = result.registry
        assert reg.value("fleet.blocks.resent") >= 1
        assert reg.value("fleet.workers.lost") >= 1
        failure = result.failures[0]
        assert failure.subspace == "sub1"
        assert failure.recovered and failure.timed_out

    def test_dropped_ack_redelivery_dedupes_at_the_watermark(self):
        """drop-ack applies the block but swallows the ack; the resend
        must hit the worker's idempotency watermark (skipped ack), not
        re-apply — stats count every update exactly once."""
        topo, partition, updates = setup_workload(per_shard=4)
        clean = run_clean(topo, partition, updates)
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=2, block_size=1, checkpoint_every=2,
            retry=RetryPolicy(
                max_retries=1, backoff_seconds=0.01, task_timeout=0.3,
                jitter=0.0, max_respawns=2, ack_resends=2,
            ),
            faults={"sub0": "drop-ack@1#1"},
        )
        assert result.ok
        assert_stats_match(result, clean)
        reg = result.registry
        assert reg.value("fleet.blocks.resent") >= 1
        assert reg.value("fleet.blocks.deduped") >= 1
        # Redelivery was absorbed without another process death.
        assert reg.value("fleet.workers.lost") == 0


class TestGracefulDegradation:
    @pytest.mark.slow
    def test_unkillable_shard_degrades_to_in_process_fallback(self):
        """A worker that dies on every generation exhausts max_respawns;
        its shards fold back into the supervisor's fallback verifier and
        the run still converges."""
        topo, partition, updates = setup_workload(per_shard=4)
        clean = run_clean(topo, partition, updates)
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=2, block_size=1, checkpoint_every=2,
            retry=RetryPolicy(
                max_retries=1, backoff_seconds=0.01, task_timeout=1.0,
                jitter=0.0, max_respawns=1, ack_resends=0,
            ),
            faults={"sub0": "kill@99"},
        )
        assert result.ok  # degraded but recovered
        assert_stats_match(result, clean)
        reg = result.registry
        assert reg.value("fleet.degraded") == 1
        assert reg.value("resilience.subspace.sequential_reruns") == 1
        assert reg.value("fleet.blocks.fallback") >= 1
        failure = next(f for f in result.failures if f.subspace == "sub0")
        assert failure.recovered


class TestDeltaCheckpoints:
    def test_fault_free_delta_run_ships_bytes_and_matches(self):
        """compact_every=3: most checkpoints ship as FBW2 deltas; the
        byte counters tick and the result still matches sequential."""
        topo, partition, updates = setup_workload(per_shard=6)
        clean = run_clean(topo, partition, updates)
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=2, block_size=1, checkpoint_every=2, compact_every=3,
            collect_models=True,
        )
        assert result.ok and not result.failures
        assert_stats_match(result, clean)
        reg = result.registry
        assert reg.value("fleet.checkpoints") > 0
        assert reg.value("fleet.checkpoints.rejected") == 0
        assert reg.value("fleet.checkpoint.bytes") > 0
        assert reg.value("fleet.ship.bytes") > 0

    def test_compact_every_one_is_the_legacy_full_frame_path(self):
        topo, partition, updates = setup_workload(per_shard=4)
        clean = run_clean(topo, partition, updates)
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=2, block_size=1, checkpoint_every=2, compact_every=1,
        )
        assert result.ok and not result.failures
        assert_stats_match(result, clean)
        assert result.registry.value("fleet.checkpoints.rejected") == 0

    def test_kill_recovers_through_a_delta_chain(self):
        """The respawn restore crosses a full frame plus FBW2 deltas
        (compact_every=3 with the kill after four checkpointed blocks),
        then replays the journal tail."""
        topo, partition, updates = setup_workload(per_shard=8)
        clean = run_clean(topo, partition, updates)
        result = run_partitioned(
            topo.switches(), LAYOUT, partition, updates,
            processes=2, block_size=1, checkpoint_every=2, compact_every=3,
            retry=FAST, faults={"sub0": "kill@1#5"},
        )
        assert result.ok
        assert_stats_match(result, clean)
        reg = result.registry
        assert reg.value("fleet.workers.lost") == 1
        assert reg.value("fleet.respawns") == 1
        assert reg.value("fleet.checkpoints.rejected") == 0
        failure = result.failures[0]
        assert failure.subspace == "sub0" and failure.recovered

    def test_deduped_acks_do_not_advance_checkpoint_cadence(self):
        """Only *applied* blocks count toward ``checkpoint_every``.

        Drives the worker loop in-thread with duplicate deliveries
        interleaved between fresh blocks: the duplicates must come back
        as ``skipped`` acks and must NOT shift the checkpoint cadence —
        with ``checkpoint_every=2`` and four applied blocks, exactly two
        checkpoints fire, at watermarks 2 and 4, no matter how many
        redeliveries arrive in between."""
        import queue
        import threading

        from repro.fleet.messages import (
            Block,
            BlockAck,
            ShardCheckpoint,
            ShardSpec,
            Stop,
            WorkerBye,
            WorkerSpec,
        )
        from repro.fleet.worker import worker_main

        topo, partition, updates = setup_workload(per_shard=4)
        sub0 = [
            u for u in updates
            if (partition.route_updates([u]).get(0) or [])
        ]
        assert len(sub0) >= 4
        spec = WorkerSpec(
            worker_id=0, generation=0,
            devices=tuple(topo.switches()), layout=LAYOUT,
            shards=(ShardSpec(0, "sub0", partition.subspaces[0].match),),
            heartbeat_interval=30.0, checkpoint_every=2, compact_every=3,
        )
        inbox, outbox = queue.Queue(), queue.Queue()
        thread = threading.Thread(
            target=worker_main, args=(spec, inbox, outbox), daemon=True
        )
        thread.start()
        blocks = [
            Block("sub0", i + 1, "test", (sub0[i],)) for i in range(4)
        ]
        for message in (
            blocks[0], blocks[1],
            blocks[1], blocks[0],  # duplicate redeliveries, mid-cadence
            blocks[2], blocks[3],
            Stop(),
        ):
            inbox.put(message)
        acks, checkpoints = [], []
        while True:
            message = outbox.get(timeout=30.0)
            if isinstance(message, BlockAck):
                acks.append(message)
            elif isinstance(message, ShardCheckpoint):
                checkpoints.append(message)
            elif isinstance(message, WorkerBye):
                break
        thread.join(timeout=30.0)
        assert [a.skipped for a in acks] == [
            False, False, True, True, False, False
        ]
        assert [c.block_id for c in checkpoints] == [2, 4]


def shard_state(topo, subspace_match, restore=None):
    """A worker-side shard built in-process (no worker loop, no queues)."""
    from repro.core.model_manager import ModelWriter
    from repro.fleet.messages import ShardSpec
    from repro.fleet.worker import _ShardState

    manager = ModelWriter(
        list(topo.switches()), LAYOUT, subspace_match=subspace_match
    )
    spec = ShardSpec(0, "sub0", subspace_match, restore=restore)
    return _ShardState(spec, manager)


def sub0_checkpoints(topo, partition, updates, subspace_match):
    """Apply sub0's updates one block each to a shard over
    ``subspace_match``; checkpoint after blocks 2 (full) and 4 (delta)."""
    from repro.fleet.messages import Block, WorkerSpec
    from repro.fleet.worker import _apply_block, _build_checkpoint
    from repro.telemetry import Telemetry

    spec = WorkerSpec(
        worker_id=0, generation=0,
        devices=tuple(topo.switches()), layout=LAYOUT, shards=(),
        checkpoint_every=2, compact_every=3,
    )
    state = shard_state(topo, subspace_match)
    blocks = [
        Block("sub0", i + 1, "test", (update,))
        for i, update in enumerate(partition.route_updates(updates)[0][:4])
    ]
    checkpoints = []
    for block in blocks:
        _apply_block(state, block, Telemetry())
        if block.block_id % 2 == 0:
            checkpoints.append(_build_checkpoint(spec, state))
    return blocks, checkpoints


class TestStaticShards:
    """Supervisor/worker units that need no worker process."""

    def _fleet(self, monkeypatch, **kwargs):
        from repro.fleet import FleetSupervisor

        topo, partition, updates = setup_workload(per_shard=4)
        fleet = FleetSupervisor(
            topo.switches(), LAYOUT, partition, processes=2, **kwargs
        )
        monkeypatch.setattr(fleet, "_spawn", lambda worker: None)
        return topo, partition, updates, fleet

    def test_submit_routes_through_the_partition(self, monkeypatch):
        """Each shard is handed exactly its ``route_updates`` share, in
        order — a rule spanning both subspaces goes to both."""
        topo, partition, updates, fleet = self._fleet(
            monkeypatch, block_size=3
        )
        spanning = insert(0, Rule(9, Match.dst_prefix(0, 0, LAYOUT), 3))
        updates.insert(3, spanning)
        fleet.submit(updates)
        routed = partition.route_updates(updates)
        assert spanning in routed[0] and spanning in routed[1]
        for subspace in partition:
            slot = fleet.shards[subspace.name]
            queued = [u for block in slot.pending for u in block.updates]
            assert queued == routed[subspace.index]
            assert all(b.shard == subspace.name for b in slot.pending)
            assert slot.total_updates == len(routed[subspace.index])

    def test_harvested_checkpoints_are_folded_like_drained_ones(
        self, monkeypatch
    ):
        """A checkpoint salvaged from a dying worker's outbox extends
        the chain, trims the tail and counts its bytes; a delta that
        does not link is rejected and changes nothing."""
        import pickle
        import queue

        topo, partition, updates, fleet = self._fleet(monkeypatch)
        blocks, (full, delta) = sub0_checkpoints(
            topo, partition, updates, partition.subspaces[0].match
        )
        reg = fleet.parent.registry
        slot = fleet.shards["sub0"]
        worker = fleet.workers[slot.worker_id]
        worker.outbox = queue.Queue()

        slot.tail = {b.block_id: b for b in blocks[:3]}
        worker.outbox.put(full)
        fleet._harvest_checkpoints(worker)
        assert reg.value("fleet.checkpoints") == 1
        assert reg.value("fleet.checkpoint.bytes") == len(full.frame) + len(
            pickle.dumps(full.checkpoint, -1)
        )
        assert list(slot.tail) == [3]
        assert slot.recovery.block_id == 2

        worker.outbox.put(delta)
        worker.outbox.put(delta)  # second copy no longer links
        slot.tail[4] = blocks[3]
        slot.tail[5] = blocks[3]
        fleet._harvest_checkpoints(worker)
        assert reg.value("fleet.checkpoints") == 2
        assert reg.value("fleet.checkpoints.rejected") == 1
        assert reg.value("fleet.checkpoint.bytes") == (
            len(full.frame)
            + len(pickle.dumps(full.checkpoint, -1))
            + len(delta.frame)
            + len(pickle.dumps(delta.journal_delta, -1))
        )
        assert list(slot.tail) == [5]
        assert slot.recovery.block_id == 4

        # Rejection with nothing held: chain and tail stay as they were.
        other = fleet.shards["sub1"]
        other.tail = {4: blocks[3]}
        fleet._fold_checkpoint(other, delta)
        assert reg.value("fleet.checkpoints.rejected") == 2
        assert other.recovery is None and list(other.tail) == [4]

    def test_restore_rejects_a_chain_wider_than_the_shard(self):
        """The frame chain must describe exactly the shard's subspace:
        the same journal with a table covering headers outside it is a
        chain this shard never produced."""
        from repro.bdd.wire import unframe_shard_snapshot
        from repro.fleet.messages import ShardRestore
        from repro.fleet.worker import _restore_shard

        topo, partition, updates = setup_workload(per_shard=4)
        sub0 = partition.subspaces[0].match

        def restore_from(chain_match):
            _, (full, _) = sub0_checkpoints(
                topo, partition, updates, chain_match
            )
            blob, applied_ids = unframe_shard_snapshot(full.frame)
            restore = ShardRestore(
                block_id=full.block_id,
                checkpoint=full.checkpoint,
                frames=(blob,),
                applied_ids=tuple(applied_ids),
            )
            state = shard_state(topo, sub0, restore)
            return _restore_shard(state), state

        ok, state = restore_from(sub0)
        assert ok and state.last_applied == 2
        wide, _ = restore_from(Match.dst_prefix(0, 0, LAYOUT))
        assert not wide


class TestChaosFleetDifftest:
    @pytest.mark.slow
    def test_storm_scenarios_converge_to_the_oracle(self):
        """A sample of the chaos-fleet gate: seeded process-fault storms
        over generated scenarios, each asserted verdict-for-verdict
        against the clean single-process oracle."""
        from repro.difftest import FleetChaosRunner, ScenarioGenerator

        generator = ScenarioGenerator(seed=11, profile="smoke")
        runner = FleetChaosRunner(seed=11)
        for scenario in generator.stream(6):
            result = runner.run(scenario)
            assert result.ok, (
                f"{scenario.name} diverged under faults "
                f"{result.stats.get('fleet_faults')}: {result.divergences}"
            )
        assert runner.telemetry.registry.value(
            "difftest.fleet.scenarios"
        ) == 6

    @pytest.mark.parametrize("kinds", ["bogus", "kill,raise"])
    def test_unknown_fault_kind_is_refused_up_front(self, kinds, capsys):
        """An unknown kind would kill every worker at spawn and pass on
        the degraded fallback — refuse it before anything runs."""
        from repro.cli import main
        from repro.difftest import FleetChaosRunner

        with pytest.raises(ValueError, match="kill, hang, slow, drop-ack"):
            FleetChaosRunner(kinds=kinds.split(","))
        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--fleet", "--fleet-faults", kinds,
                  "--iterations", "1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--fleet-faults" in err
        assert "kill, hang, slow, drop-ack" in err
