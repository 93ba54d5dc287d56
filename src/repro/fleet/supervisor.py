"""The fleet supervisor: dispatch, liveness, recovery, degradation.

:class:`FleetSupervisor` owns a set of long-lived worker processes
(:mod:`repro.fleet.worker`), assigns each subspace shard of a
:class:`~repro.core.subspace.SubspacePartition` to one worker, and
routes epoch-tagged update blocks over per-worker queues.

The robustness contract, in order of escalation:

1. **Windowed dispatch** — at most one block per shard is in flight;
   the next is sent only after the previous acks.  Combined with the
   worker-side watermark this makes every redelivery idempotent and
   keeps per-shard update order exact.
2. **Retry** — a worker-reported :class:`BlockError` re-dispatches the
   block with backoff, bounded by ``RetryPolicy.max_retries``.
3. **Resend** — an unacked block past the ack timeout is silently
   redelivered up to ``RetryPolicy.ack_resends`` times (covers dropped
   acks without declaring the worker dead).
4. **Kill + respawn** — a worker that misses heartbeats, exhausts ack
   resends (wedged main thread), or simply dies is killed and
   respawned with exponential backoff + seeded jitter, bounded by
   ``RetryPolicy.max_respawns``.  The respawned process restores each
   shard from its last FSJ1 checkpoint and the supervisor re-sends only
   the journaled tail — acked-but-not-yet-checkpointed blocks — never
   the whole batch (``fleet.blocks.replayed`` counts exactly that
   tail).
5. **Graceful degradation** — a shard that exhausts every escalation
   folds back into an in-process fallback :class:`ModelWriter` in the
   supervisor: checkpoint restored, tail + inflight + pending replayed
   locally, all future blocks applied inline.  Answers stay complete
   and correct; ``fleet.degraded`` makes the mode visible.

Worker messages are generation-tagged and anything from a dead
generation is dropped: a respawned worker's model knows nothing of its
predecessor's unacked work, so a stale ack must never clear inflight
state.  The one exception is harvested deliberately — *checkpoints* are
self-contained once assembled into the supervisor's recovery chain, so
the death handler drains any checkpoint the dying worker managed to
flush before bumping the generation, shrinking the tail it is about to
replay.

**Delta checkpoint chains** ride on the same machinery: workers ship a
full FBW1 frame only on compaction checkpoints; in between, FBW2 deltas
and journal diffs.  The supervisor validates each delta's base-epoch
fingerprint against the chain it holds (:class:`_ShardRecovery`) before
accepting it — ``fleet.checkpoints.rejected`` counts deltas that failed
validation and were dropped (the chain self-heals at the next
compaction).  Respawn restores ship the whole chain back as
:class:`~repro.fleet.messages.ShardRestore.frames`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import queue as queue_mod
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from ..bdd.wire import (
    DELTA_MAGIC,
    MAGIC,
    WireFormatError,
    delta_base_fingerprint,
    fingerprint_blob,
    unframe_shard_snapshot,
)
from ..core.model_manager import ModelWriter
from ..core.subspace import Subspace, SubspacePartition
from ..dataplane.rule import Rule
from ..dataplane.update import RuleUpdate
from ..headerspace.fields import HeaderLayout
from ..resilience.checkpoint import ModelCheckpoint
from ..resilience.supervisor import FailedSubspace, RetryPolicy
from ..telemetry import Telemetry, TelemetryConfig
from .messages import (
    Block,
    BlockAck,
    BlockError,
    Hello,
    Heartbeat,
    JournalDelta,
    ModelPayload,
    ShardCheckpoint,
    ShardDone,
    ShardRestore,
    ShardSpec,
    Stop,
    WorkerBye,
    WorkerSpec,
)
from .worker import worker_main

#: Fallback ack timeout when the policy does not set ``task_timeout``.
DEFAULT_ACK_TIMEOUT = 30.0

#: Extra liveness grace while a worker interpreter is still booting
#: (spawn/forkserver start-up easily exceeds a steady-state heartbeat).
SPAWN_GRACE = 10.0

#: Supervisor poll interval while waiting for fleet progress.
_POLL = 0.005


@dataclass
class ShardOutcome:
    """One shard's final report (from its worker, or the fallback)."""

    name: str
    seconds: float
    predicate_ops: int
    ecs: int
    updates: int
    model: Optional[ModelPayload] = None
    degraded: bool = False


@dataclass
class FleetOutcome:
    """Everything :meth:`FleetSupervisor.finish` hands back."""

    shards: Dict[str, ShardOutcome]
    failures: List[FailedSubspace] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(f.recovered for f in self.failures)


@dataclass
class _ShardRecovery:
    """The supervisor's assembled recovery state for one shard.

    ``frames`` is the checkpoint chain — one full FBW1 frame followed
    by zero or more FBW2 deltas (inner blobs, FSJ1 framing already
    stripped); ``fingerprint`` is the byte fingerprint of the last
    frame, i.e. the base epoch the worker's *next* delta must
    reference; ``journal`` is the per-device installed-rule journal at
    the chain head, kept current by applying each checkpoint's
    :class:`JournalDelta`.  ``to_restore`` packages all of it for a
    respawned worker.
    """

    block_id: int
    frames: List[bytes]
    applied_ids: List[int]
    journal: Dict[int, Tuple[Rule, ...]]
    fingerprint: int

    def to_restore(self) -> ShardRestore:
        return ShardRestore(
            block_id=self.block_id,
            checkpoint=ModelCheckpoint.from_journal(self.journal),
            frames=tuple(self.frames),
            applied_ids=tuple(self.applied_ids),
        )


def _apply_journal_delta(
    journal: Dict[int, Tuple[Rule, ...]], delta: JournalDelta
) -> Dict[int, Tuple[Rule, ...]]:
    out = dict(journal)
    for device, op, rules in delta.entries:
        if op == "append":
            out[device] = out.get(device, ()) + rules
        else:
            out[device] = rules
    return out


class _ShardSlot:
    """Supervisor-side state for one shard."""

    def __init__(
        self, subspace: Subspace, worker_id: int, fault: Optional[str]
    ) -> None:
        self.subspace = subspace
        self.worker_id = worker_id
        self.fault = fault
        self.pending: Deque[Block] = deque()
        self.inflight: Optional[Block] = None
        self.sent_at = 0.0
        self.not_before = 0.0  # error-retry backoff gate
        self.resends = 0  # silent redeliveries of the current inflight
        self.errors_for_block = 0
        self.fault_attempts = 0  # fault manifestations seen by this shard
        self.tail: Dict[int, Block] = {}  # acked since last checkpoint
        self.recovery: Optional[_ShardRecovery] = None
        self.history: List[str] = []
        self.last_traceback = ""
        self.timed_out = False
        self.total_updates = 0
        self.done: Optional[ShardDone] = None
        # Degradation state
        self.degraded = False
        self.fallback: Optional[ModelWriter] = None
        self.fallback_telemetry: Optional[Telemetry] = None
        self.fallback_seconds = 0.0

    @property
    def name(self) -> str:
        return self.subspace.name

    def quiescent(self) -> bool:
        return self.degraded or (not self.pending and self.inflight is None)


class _WorkerSlot:
    """Supervisor-side state for one worker process slot."""

    def __init__(self, worker_id: int, shard_names: List[str]) -> None:
        self.worker_id = worker_id
        self.shard_names = shard_names
        self.generation = 0
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.inbox = None
        self.outbox = None
        self.hello = False
        self.bye = False
        self.stop_sent = False
        self.stop_sent_at = 0.0
        self.last_beat = 0.0
        self.respawns = 0  # deaths so far; respawn n+1 happens after death n
        self.respawn_at: Optional[float] = None
        self.retired = False  # all shards degraded or fleet closed


class FleetSupervisor:
    """Persistent sharded worker fleet with supervised dispatch."""

    def __init__(
        self,
        devices: Sequence[int],
        layout: HeaderLayout,
        partition: SubspacePartition,
        *,
        processes: int = 2,
        telemetry: Optional[TelemetryConfig] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[Mapping[str, str]] = None,
        mp_context: Optional[str] = None,
        parent: Optional[Telemetry] = None,
        heartbeat_interval: float = 0.1,
        liveness_timeout: Optional[float] = None,
        checkpoint_every: int = 4,
        compact_every: int = 4,
        block_size: Optional[int] = None,
        backend: str = "bdd",
        seed: int = 0,
    ) -> None:
        self.devices = tuple(devices)
        self.layout = layout
        self.partition = partition
        self.config = telemetry if telemetry is not None else TelemetryConfig()
        self.policy = retry if retry is not None else RetryPolicy()
        self.parent = parent if parent is not None else Telemetry()
        self.heartbeat_interval = heartbeat_interval
        self.liveness_timeout = (
            liveness_timeout
            if liveness_timeout is not None
            else max(1.0, 10.0 * heartbeat_interval)
        )
        self.ack_timeout = (
            self.policy.task_timeout
            if self.policy.task_timeout is not None
            else DEFAULT_ACK_TIMEOUT
        )
        self.checkpoint_every = checkpoint_every
        self.compact_every = compact_every
        self.block_size = block_size
        self.backend = backend
        self._rng = random.Random(seed)
        self._context = self._make_context(mp_context)
        self._next_block_id = 1
        self._epoch_seq = 0
        self._started = False
        self._closed = False
        self.failures: List[FailedSubspace] = []

        subspaces = list(partition)
        worker_count = max(1, min(processes, len(subspaces)))
        self.shards: Dict[str, _ShardSlot] = {}
        self.workers: Dict[int, _WorkerSlot] = {
            wid: _WorkerSlot(wid, []) for wid in range(worker_count)
        }
        for i, subspace in enumerate(subspaces):
            wid = i % worker_count
            slot = _ShardSlot(
                subspace, wid, (faults or {}).get(subspace.name)
            )
            self.shards[subspace.name] = slot
            self.workers[wid].shard_names.append(subspace.name)

    # -- lifecycle ----------------------------------------------------------
    @staticmethod
    def _make_context(name: Optional[str]):
        """Explicit spawn/forkserver context, never bare fork (workers
        must start from a clean interpreter for respawn to be
        trustworthy)."""
        if name is not None:
            return multiprocessing.get_context(name)
        try:
            context = multiprocessing.get_context("forkserver")
        except ValueError:  # pragma: no cover - platform without forkserver
            return multiprocessing.get_context("spawn")
        try:
            # Preloading the worker module makes respawns cheap: forked
            # servers already hold the imported engine code.
            context.set_forkserver_preload(["repro.fleet.worker"])
        except Exception:  # pragma: no cover - preload is best-effort
            pass
        return context

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for worker in self.workers.values():
            self._spawn(worker)

    def _spawn(self, worker: _WorkerSlot) -> None:
        specs: List[ShardSpec] = []
        for name in worker.shard_names:
            slot = self.shards[name]
            if slot.degraded:
                continue
            restore = (
                slot.recovery.to_restore()
                if slot.recovery is not None
                else None
            )
            specs.append(
                ShardSpec(
                    index=slot.subspace.index,
                    name=name,
                    subspace_match=slot.subspace.match,
                    fault=slot.fault,
                    restore=restore,
                )
            )
        if not specs:
            worker.retired = True
            worker.process = None
            worker.respawn_at = None
            return
        worker.generation += 1
        worker.hello = False
        worker.bye = False
        worker.stop_sent = False
        worker.respawn_at = None
        worker.inbox = self._context.Queue()
        worker.outbox = self._context.Queue()
        spec = WorkerSpec(
            worker_id=worker.worker_id,
            generation=worker.generation,
            devices=self.devices,
            layout=self.layout,
            shards=tuple(specs),
            telemetry=self.config,
            heartbeat_interval=self.heartbeat_interval,
            checkpoint_every=self.checkpoint_every,
            compact_every=self.compact_every,
            backend=self.backend,
        )
        worker.process = self._context.Process(
            target=worker_main,
            args=(spec, worker.inbox, worker.outbox),
            daemon=True,
        )
        worker.process.start()
        worker.last_beat = time.monotonic()

    # -- ingestion ----------------------------------------------------------
    def submit(
        self, updates: Sequence[RuleUpdate], epoch: Optional[str] = None
    ) -> None:
        """Route updates to shards and enqueue them as epoch-tagged blocks."""
        if not self._started:
            self.start()
        self._epoch_seq += 1
        tag = epoch if epoch is not None else f"fleet-{self._epoch_seq}"
        routed = self.partition.route_updates(updates)
        for slot in self.shards.values():
            shard_updates = routed[slot.subspace.index]
            if not shard_updates:
                continue
            slot.total_updates += len(shard_updates)
            size = self.block_size or len(shard_updates)
            for at in range(0, len(shard_updates), size):
                block = Block(
                    shard=slot.name,
                    block_id=self._next_block_id,
                    epoch=tag,
                    updates=tuple(shard_updates[at : at + size]),
                )
                self._next_block_id += 1
                if slot.degraded:
                    self._apply_fallback(slot, block)
                else:
                    slot.pending.append(block)
        self.pump()

    # -- the supervision loop ----------------------------------------------
    def pump(self) -> None:
        """One supervision round: drain, watchdog, dispatch."""
        self._drain()
        self._watchdog()
        self._dispatch()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Pump until every shard is quiescent; False on timeout."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            self.pump()
            if all(slot.quiescent() for slot in self.shards.values()):
                return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(_POLL)

    def _dispatch(self) -> None:
        now = time.monotonic()
        for slot in list(self.shards.values()):
            if slot.degraded or slot.inflight or not slot.pending:
                continue
            if now < slot.not_before:
                continue
            worker = self.workers[slot.worker_id]
            if worker.process is None or not worker.hello:
                continue
            block = dataclasses.replace(
                slot.pending.popleft(), attempt=slot.fault_attempts
            )
            slot.inflight = block
            slot.sent_at = now
            slot.resends = 0
            # errors_for_block is NOT reset here: a redispatch of the
            # same failing block must keep counting toward max_retries,
            # or a deterministic error retries forever.  The ack handler
            # clears it when a block actually lands.
            try:
                worker.inbox.put(block)
            except Exception:  # pragma: no cover - queue already torn down
                slot.pending.appendleft(block)
                slot.inflight = None
                continue
            self.parent.count("fleet.blocks.dispatched")

    def _drain(self) -> None:
        for worker in self.workers.values():
            if worker.outbox is None:
                continue
            while True:
                try:
                    message = worker.outbox.get_nowait()
                except queue_mod.Empty:
                    break
                except Exception:  # pragma: no cover - mid-write corruption
                    break
                if getattr(message, "generation", None) != worker.generation:
                    continue  # a dead generation talking; ignore it
                self._handle(worker, message)

    def _handle(self, worker: _WorkerSlot, message) -> None:
        worker.last_beat = time.monotonic()
        if isinstance(message, Heartbeat):
            return
        if isinstance(message, Hello):
            worker.hello = True
            for name in message.failed:
                slot = self.shards[name]
                if not slot.degraded:
                    slot.history.append(
                        "snapshot restore failed validation on respawn"
                    )
                    self._degrade(slot)
            return
        if isinstance(message, BlockAck):
            slot = self.shards[message.shard]
            if slot.degraded or slot.inflight is None:
                return
            if message.block_id != slot.inflight.block_id:
                return  # duplicate ack from an earlier resend
            slot.tail[message.block_id] = slot.inflight
            slot.inflight = None
            slot.resends = 0
            slot.errors_for_block = 0
            self.parent.count("fleet.blocks.acked")
            if message.skipped:
                self.parent.count("fleet.blocks.deduped")
            return
        if isinstance(message, BlockError):
            slot = self.shards[message.shard]
            if (
                slot.degraded
                or slot.inflight is None
                or message.block_id != slot.inflight.block_id
            ):
                return
            slot.history.append(message.error)
            slot.last_traceback = message.traceback
            slot.fault_attempts += 1
            slot.errors_for_block += 1
            if slot.errors_for_block > self.policy.max_retries:
                self._degrade(slot)
                return
            # Re-dispatch with backoff; the worker is healthy (it
            # reported), so no kill — just retry the block.
            self.parent.count("resilience.subspace.retries")
            slot.not_before = time.monotonic() + self.policy.backoff_for(
                slot.fault_attempts
            )
            slot.pending.appendleft(
                dataclasses.replace(slot.inflight, attempt=0)
            )
            slot.inflight = None
            return
        if isinstance(message, ShardCheckpoint):
            self._fold_checkpoint(self.shards[message.shard], message)
            return
        if isinstance(message, ShardDone):
            slot = self.shards[message.shard]
            done = message
            if done.model is not None:
                frames, actions = done.model
                self.parent.registry.counter("fleet.ship.bytes").inc(
                    sum(len(f) for f in frames)
                    + len(pickle.dumps(actions, -1))
                )
                final = frames[-1]
                if final[:4] == DELTA_MAGIC:
                    # The worker shipped its final table as a delta
                    # against its last checkpoint; splice our held
                    # chain in front so the payload stands alone.
                    recovery = slot.recovery
                    linked = False
                    if recovery is not None:
                        try:
                            _, base_fp = delta_base_fingerprint(final)
                            linked = base_fp == recovery.fingerprint
                        except WireFormatError:
                            linked = False
                    if not linked:
                        slot.history.append(
                            "final model delta references an epoch this "
                            "supervisor does not hold"
                        )
                        self._degrade(slot)
                        return
                    done = dataclasses.replace(
                        done,
                        model=(tuple(recovery.frames) + (final,), actions),
                    )
            slot.done = done
            return
        if isinstance(message, WorkerBye):
            worker.bye = True
            self.parent.registry.merge_snapshot(message.registry_snapshot)
            return

    def _fold_checkpoint(
        self, slot: _ShardSlot, message: ShardCheckpoint
    ) -> None:
        """Accept one checkpoint: extend the chain, trim the tail, count."""
        if slot.degraded:
            return
        if not self._accept_checkpoint(slot, message):
            # Rejected delta: keep the old chain AND the old tail —
            # recovery must still replay everything past the last
            # checkpoint this supervisor actually holds.
            self.parent.count("fleet.checkpoints.rejected")
            return
        for block_id in [b for b in slot.tail if b <= message.block_id]:
            del slot.tail[block_id]
        self.parent.count("fleet.checkpoints")
        payload = (
            message.checkpoint
            if message.checkpoint is not None
            else message.journal_delta
        )
        self.parent.registry.counter("fleet.checkpoint.bytes").inc(
            len(message.frame) + len(pickle.dumps(payload, -1))
        )

    def _accept_checkpoint(
        self, slot: _ShardSlot, message: ShardCheckpoint
    ) -> bool:
        """Fold one checkpoint into the shard's recovery chain.

        Compaction checkpoints (full journal attached) always start a
        fresh chain.  Delta checkpoints must link: the FBW2 base
        fingerprint has to match the chain head we hold, and the
        journal delta's base rule count has to match our journal.
        Anything that does not link is rejected — the worker is not
        wrong (its own chain advanced), but *this* supervisor can no
        longer prove the lineage, so durability waits for the next
        compaction rather than trusting an unverifiable frame.
        """
        try:
            blob, applied_ids = unframe_shard_snapshot(message.frame)
        except WireFormatError:
            return False
        if message.checkpoint is not None:
            slot.recovery = _ShardRecovery(
                block_id=message.block_id,
                frames=[blob],
                applied_ids=list(applied_ids),
                journal=dict(message.checkpoint.rules),
                fingerprint=fingerprint_blob(blob),
            )
            return True
        recovery = slot.recovery
        delta = message.journal_delta
        if recovery is None or delta is None:
            return False
        if delta.base_rule_count != sum(
            len(rules) for rules in recovery.journal.values()
        ):
            return False
        if blob[:4] == MAGIC:
            # The delta exporter fell back to a full frame (the delta
            # would have been larger) — the frame chain resets, the
            # journal still advances by the delta.
            frames = [blob]
        elif blob[:4] == DELTA_MAGIC:
            try:
                _, base_fp = delta_base_fingerprint(blob)
            except WireFormatError:
                return False
            if base_fp != recovery.fingerprint:
                return False
            frames = recovery.frames + [blob]
        else:
            return False
        slot.recovery = _ShardRecovery(
            block_id=message.block_id,
            frames=frames,
            applied_ids=list(applied_ids),
            journal=_apply_journal_delta(recovery.journal, delta),
            fingerprint=fingerprint_blob(blob),
        )
        return True

    # -- liveness and recovery ---------------------------------------------
    def _watchdog(self) -> None:
        now = time.monotonic()
        for worker in self.workers.values():
            if worker.retired:
                continue
            if worker.process is None:
                if (
                    worker.respawn_at is not None
                    and now >= worker.respawn_at
                ):
                    self._spawn(worker)
                continue
            if not worker.process.is_alive():
                if worker.stop_sent or worker.bye:
                    continue  # orderly drain exit, not a crash
                code = worker.process.exitcode
                # timed_out=True: like a missed deadline, a hard death
                # is a watchdog intervention, not a worker-reported
                # error — the historical pool surfaced both as timeouts.
                self._on_worker_death(
                    worker,
                    f"worker process died (exitcode {code})",
                    timed_out=True,
                )
                continue
            grace = self.liveness_timeout
            if not worker.hello:
                grace = max(grace, SPAWN_GRACE)
            if now - worker.last_beat > grace:
                self._on_worker_death(
                    worker,
                    f"missed heartbeats for {grace:.2f}s (dead or wedged)",
                    timed_out=True,
                )
                continue
            if worker.stop_sent:
                continue
            for name in worker.shard_names:
                slot = self.shards[name]
                if (
                    slot.degraded
                    or slot.inflight is None
                    or now - slot.sent_at <= self.ack_timeout
                ):
                    continue
                if slot.resends < self.policy.ack_resends:
                    # A lost ack and a wedged worker look identical from
                    # here; redeliver first — the worker-side watermark
                    # makes the duplicate harmless either way.
                    slot.resends += 1
                    slot.fault_attempts += 1
                    slot.sent_at = now
                    resend = dataclasses.replace(
                        slot.inflight, attempt=slot.fault_attempts
                    )
                    slot.inflight = resend
                    try:
                        worker.inbox.put(resend)
                    except Exception:  # pragma: no cover
                        pass
                    self.parent.count("fleet.blocks.resent")
                else:
                    self._on_worker_death(
                        worker,
                        f"no ack for block {slot.inflight.block_id} on "
                        f"shard {name!r} after {slot.resends + 1} "
                        f"deliveries (wedged)",
                        timed_out=True,
                    )
                    break

    def _kill(self, worker: _WorkerSlot) -> None:
        process = worker.process
        if process is None:
            return
        if process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join(1.0)
        worker.process = None

    def _harvest_checkpoints(self, worker: _WorkerSlot) -> None:
        """Salvage self-contained checkpoints a dying worker flushed.

        Only :class:`ShardCheckpoint` survives the generation cut: once
        it links into the held recovery chain it is valid no matter
        what happened to its sender afterwards.  Everything else (acks
        especially) is dropped — trusting a dead model's ack would lose
        its unreplayed work.
        """
        if worker.outbox is None:
            return
        while True:
            try:
                message = worker.outbox.get_nowait()
            except queue_mod.Empty:
                break
            except Exception:  # pragma: no cover - mid-write corruption
                break
            if not isinstance(message, ShardCheckpoint):
                continue
            if message.generation != worker.generation:
                continue
            self._fold_checkpoint(self.shards[message.shard], message)

    def _on_worker_death(
        self, worker: _WorkerSlot, reason: str, timed_out: bool
    ) -> None:
        self._kill(worker)
        self._harvest_checkpoints(worker)
        worker.hello = False
        worker.respawns += 1
        self.parent.count("fleet.workers.lost")
        for name in worker.shard_names:
            slot = self.shards[name]
            if slot.degraded:
                continue
            slot.history.append(f"{reason} [shard {name!r}]")
            if slot.inflight is not None:
                slot.fault_attempts += 1
                slot.timed_out = slot.timed_out or timed_out
            # Requeue the recovery tail ahead of everything else: the
            # respawned worker restores to its last checkpoint, so the
            # acked-but-uncheckpointed tail and the inflight block must
            # be redelivered, in id order, before new work.
            replay = sorted(slot.tail.values(), key=lambda b: b.block_id)
            if slot.inflight is not None:
                replay.append(slot.inflight)
                slot.inflight = None
            for block in reversed(replay):
                slot.pending.appendleft(
                    dataclasses.replace(block, attempt=0)
                )
            if slot.tail:
                self.parent.registry.counter("fleet.blocks.replayed").inc(
                    len(slot.tail)
                )
            slot.tail.clear()
        if worker.respawns > self.policy.max_respawns:
            for name in worker.shard_names:
                slot = self.shards[name]
                if not slot.degraded:
                    slot.history.append(
                        f"respawn budget exhausted "
                        f"({self.policy.max_respawns}) for worker "
                        f"{worker.worker_id}"
                    )
                    self._degrade(slot)
            worker.retired = True
            return
        self.parent.count("fleet.respawns")
        worker.respawn_at = time.monotonic() + self.policy.jittered_backoff(
            worker.respawns, self._rng
        )

    # -- graceful degradation ----------------------------------------------
    def _degrade(self, slot: _ShardSlot) -> None:
        """Fold a shard back into the in-process fallback verifier."""
        slot.degraded = True
        self.parent.count("resilience.subspace.sequential_reruns")
        telemetry = Telemetry.from_config(self.config)
        slot.fallback_telemetry = telemetry
        slot.fallback = ModelWriter(
            list(self.devices),
            self.layout,
            subspace_match=slot.subspace.match,
            telemetry=telemetry,
            backend=self.backend,
        )
        t0 = time.perf_counter()
        if slot.recovery is not None:
            slot.fallback.rollback(
                ModelCheckpoint.from_journal(slot.recovery.journal)
            )
        replay = sorted(slot.tail.values(), key=lambda b: b.block_id)
        if slot.inflight is not None:
            replay.append(slot.inflight)
        replay.extend(slot.pending)
        slot.tail.clear()
        slot.inflight = None
        slot.pending.clear()
        slot.fallback_seconds += time.perf_counter() - t0
        for block in replay:
            self._apply_fallback(slot, block)
        self.failures.append(
            FailedSubspace(
                subspace=slot.name,
                attempts=len(slot.history) + 1,
                error=slot.history[-1] if slot.history else "degraded",
                traceback=slot.last_traceback,
                timed_out=slot.timed_out,
                recovered=True,  # the fallback carries the shard's answers
                history=list(slot.history),
            )
        )
        degraded = sum(1 for s in self.shards.values() if s.degraded)
        self.parent.registry.gauge("fleet.degraded").set(degraded)
        worker = self.workers[slot.worker_id]
        if all(self.shards[n].degraded for n in worker.shard_names):
            self._kill(worker)
            worker.retired = True

    def _apply_fallback(self, slot: _ShardSlot, block: Block) -> None:
        t0 = time.perf_counter()
        with slot.fallback_telemetry.span(
            "parallel.worker", subspace=slot.name
        ):
            slot.fallback.submit(block.updates)
            slot.fallback.flush()
        slot.fallback_seconds += time.perf_counter() - t0
        self.parent.count("fleet.blocks.fallback")

    # -- completion ---------------------------------------------------------
    def finish(
        self,
        collect_models: bool = False,
        timeout: Optional[float] = None,
    ) -> FleetOutcome:
        """Drain the fleet: quiesce, stop workers, assemble outcomes."""
        if not self._started:
            self.start()
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            self.pump()
            if all(
                slot.degraded or slot.done is not None
                for slot in self.shards.values()
            ):
                break
            now = time.monotonic()
            for worker in self.workers.values():
                if (
                    worker.retired
                    or worker.process is None
                    or not worker.hello
                    or worker.stop_sent
                ):
                    continue
                if all(
                    self.shards[n].quiescent() for n in worker.shard_names
                ):
                    try:
                        worker.inbox.put(Stop(collect_models=collect_models))
                    except Exception:  # pragma: no cover
                        continue
                    worker.stop_sent = True
                    worker.stop_sent_at = now
                if (
                    worker.stop_sent
                    and not worker.bye
                    and now - worker.stop_sent_at
                    > max(self.ack_timeout, self.liveness_timeout)
                ):
                    # Wedged while draining: treat as a death so the
                    # shards either respawn+redrain or degrade.
                    worker.stop_sent = False
                    self._on_worker_death(
                        worker, "no drain report after Stop", timed_out=True
                    )
            if deadline is not None and now > deadline:
                for slot in self.shards.values():
                    if not slot.degraded and slot.done is None:
                        slot.history.append("fleet drain deadline exceeded")
                        self._degrade(slot)
                break
            time.sleep(_POLL)
        # Give stopping workers a moment to flush their Bye snapshots.
        bye_deadline = time.monotonic() + max(1.0, self.liveness_timeout)
        while time.monotonic() < bye_deadline:
            self._drain()
            live = [
                w
                for w in self.workers.values()
                if w.stop_sent and not w.bye
            ]
            if not live:
                break
            time.sleep(_POLL)
        # Shards that hit faults but recovered without degrading still
        # report their supervision history, matching the pool runner's
        # recovered-FailedSubspace contract.
        for slot in self.shards.values():
            if slot.history and not slot.degraded:
                self.failures.append(
                    FailedSubspace(
                        subspace=slot.name,
                        attempts=len(slot.history) + 1,
                        error=slot.history[-1],
                        traceback=slot.last_traceback,
                        timed_out=slot.timed_out,
                        recovered=True,
                        history=list(slot.history),
                    )
                )
        outcome = FleetOutcome(shards={}, failures=list(self.failures))
        for slot in self.shards.values():
            if slot.degraded:
                outcome.shards[slot.name] = self._fallback_outcome(
                    slot, collect_models
                )
            elif slot.done is not None:
                done = slot.done
                outcome.shards[slot.name] = ShardOutcome(
                    name=slot.name,
                    seconds=done.seconds,
                    predicate_ops=done.predicate_ops,
                    ecs=done.ecs,
                    updates=done.updates_applied,
                    model=done.model,
                )
        self.close()
        return outcome

    def _fallback_outcome(
        self, slot: _ShardSlot, collect_models: bool
    ) -> ShardOutcome:
        manager = slot.fallback
        model: Optional[ModelPayload] = None
        if collect_models and manager is not None:
            entries = manager.model.entries()
            blob = manager.engine.export_bytes(
                [pred for pred, _ in entries]
            )
            actions = tuple(
                manager.store.to_dict(vec) for _, vec in entries
            )
            model = ((blob,), actions)
        return ShardOutcome(
            name=slot.name,
            seconds=slot.fallback_seconds,
            predicate_ops=(
                manager.engine.metrics.total if manager is not None else 0
            ),
            ecs=manager.num_ecs() if manager is not None else 0,
            updates=slot.total_updates,
            model=model,
            degraded=True,
        )

    def close(self) -> None:
        """Terminate every worker process and tear down the queues."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers.values():
            self._kill(worker)
            for q in (worker.inbox, worker.outbox):
                if q is None:
                    continue
                try:
                    q.cancel_join_thread()
                    q.close()
                except Exception:  # pragma: no cover
                    pass
            worker.inbox = None
            worker.outbox = None
        # Merge degraded shards' telemetry so fallback predicate ops and
        # spans land in the same registry as live workers'.
        for slot in self.shards.values():
            if slot.fallback_telemetry is not None:
                self.parent.registry.merge_snapshot(
                    slot.fallback_telemetry.registry.snapshot()
                )
                slot.fallback_telemetry = None

    def __enter__(self) -> "FleetSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
