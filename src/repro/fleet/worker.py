"""The long-lived fleet worker process.

One worker owns one or more subspace shards, each with its own
incremental :class:`~repro.core.model_manager.ModelWriter`.  The main
loop consumes epoch-tagged :class:`~repro.fleet.messages.Block`
messages from the inbox, applies them in arrival order, and reports
everything — per-block acks, periodic FSJ1 checkpoints, heartbeats —
over the worker's own outbox.

Robustness properties this file is responsible for:

* **Idempotent redelivery** — each shard keeps a watermark of the last
  applied block id; a redelivered block (ack timeout, respawn tail
  replay) is acked as ``skipped`` without touching the model.  Skipped
  acks never count toward the checkpoint cadence: ``checkpoint_every``
  counts *applied* blocks only, so a redelivery storm cannot trigger
  redundant snapshots.
* **Delta checkpoints** — a shard ships a full FBW1 table only every
  ``compact_every``-th checkpoint; the ones between are FBW2 deltas
  against the previously shipped frame's bytes, paired with a
  :class:`~repro.fleet.messages.JournalDelta` of the rule journal.
  ``compact_every=1`` reproduces the historical full-frame behaviour.
* **Crash recovery** — on spawn, a shard with a
  :class:`~repro.fleet.messages.ShardRestore` payload rebuilds its
  model from the :class:`~repro.resilience.ModelCheckpoint` rule
  journal and validates the result against the restore's frame chain:
  the chain's EC union must equal the union of the rebuilt ECs.  A
  shard that fails validation is reported in
  :class:`~repro.fleet.messages.Hello` so the supervisor degrades it
  instead of serving answers from an unverified model.
* **Liveness** — heartbeats come from a daemon thread, so they keep
  flowing while the main thread is busy applying a large block; only a
  dead process goes silent.  (A *wedged* main thread — the ``hang``
  chaos fault — is caught by the supervisor's per-block ack watchdog,
  not by heartbeats; that is deliberate, the two detectors cover
  different failure modes.)

Chaos faults (:class:`~repro.resilience.WorkerFaultSpec`) trigger at
block-apply time with the shard's fault-manifestation ``attempt``
counter supplied by the supervisor, so e.g. ``exit@1`` kills this
process on exactly one delivery no matter how the retry lands.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..bdd.wire import (
    WireFormatError,
    fingerprint_blob,
    frame_shard_snapshot,
)
from ..core.model_manager import ModelWriter
from ..dataplane.rule import Rule
from ..resilience.checkpoint import ModelCheckpoint
from ..resilience.supervisor import WorkerFaultSpec
from ..telemetry import Telemetry
from .messages import (
    Block,
    BlockAck,
    BlockError,
    Hello,
    Heartbeat,
    JournalDelta,
    ShardCheckpoint,
    ShardDone,
    ShardSpec,
    Stop,
    WorkerBye,
    WorkerSpec,
)


class _ShardState:
    """One shard's live state inside the worker."""

    def __init__(self, spec: ShardSpec, manager: ModelWriter) -> None:
        self.spec = spec
        self.manager = manager
        self.fault: Optional[WorkerFaultSpec] = (
            WorkerFaultSpec.parse(spec.fault) if spec.fault else None
        )
        self.last_applied = 0  # idempotency watermark (block ids are > 0)
        self.applied_ids: List[int] = []  # checkpoint journal
        self.delivered = 0  # deliveries seen (for `#after` fault windows)
        self.applied_since_checkpoint = 0
        self.updates_applied = 0
        self.seconds = 0.0
        # Delta-chain state: the EC table exactly as last shipped (live
        # handles — they double as GC roots), the fingerprint of the
        # last shipped frame's *bytes*, and the rule journal it paired
        # with.  The supervisor holds the matching chain; both sides
        # advance in lockstep, one frame per checkpoint.
        self.wire_base: List = []
        self.wire_fp: Optional[int] = None
        self.journal_base: Dict[int, Tuple[Rule, ...]] = {}
        self.checkpoints_since_compact = 0


def _journal_delta(
    base: Dict[int, Tuple[Rule, ...]], current: ModelCheckpoint
) -> JournalDelta:
    """Diff the current rule journal against the last shipped one."""
    entries: List[Tuple[int, str, Tuple[Rule, ...]]] = []
    seen = set()
    for device, rules in current.rules:
        seen.add(device)
        held = base.get(device, ())
        if held == rules:
            continue
        if len(rules) > len(held) and rules[: len(held)] == held:
            entries.append((device, "append", rules[len(held) :]))
        else:
            entries.append((device, "replace", rules))
    for device, held in base.items():
        if device not in seen and held:
            entries.append((device, "replace", ()))
    return JournalDelta(
        base_rule_count=sum(len(r) for r in base.values()),
        entries=tuple(entries),
    )


def _build_checkpoint(
    spec: WorkerSpec, state: _ShardState
) -> ShardCheckpoint:
    """Assemble one checkpoint message and advance the shard's chain.

    Every ``compact_every``-th checkpoint (and the first) is a **full**
    one: FBW1 table + complete rule journal, resetting the chain.  The
    rest ship an FBW2 delta against the previous frame's bytes plus a
    :class:`JournalDelta`.  The delta exporter itself falls back to a
    full FBW1 frame whenever that is no larger — the chain state still
    advances to whatever bytes were actually shipped.
    """
    manager = state.manager
    engine = manager.engine
    preds = [pred for pred, _ in manager.model.entries()]
    checkpoint = manager.checkpoint()
    compact = (
        spec.compact_every <= 1
        or state.wire_fp is None
        or state.checkpoints_since_compact + 1 >= spec.compact_every
    )
    if compact:
        blob = engine.export_bytes(preds)
        shipped_checkpoint: Optional[ModelCheckpoint] = checkpoint
        journal_delta = None
        state.checkpoints_since_compact = 0
    else:
        blob = engine.export_delta_bytes(
            preds, state.wire_base, state.wire_fp
        )
        shipped_checkpoint = None
        journal_delta = _journal_delta(state.journal_base, checkpoint)
        state.checkpoints_since_compact += 1
    state.wire_base = preds
    state.wire_fp = fingerprint_blob(blob)
    state.journal_base = dict(checkpoint.rules)
    return ShardCheckpoint(
        worker_id=spec.worker_id,
        generation=spec.generation,
        shard=state.spec.name,
        block_id=state.last_applied,
        checkpoint=shipped_checkpoint,
        frame=frame_shard_snapshot(blob, state.applied_ids),
        journal_delta=journal_delta,
    )


def _restore_shard(state: _ShardState) -> bool:
    """Rebuild a shard from its restore payload; True on validated success."""
    restore = state.spec.restore
    if restore is None:
        return True
    try:
        manager = state.manager
        engine = manager.engine
        manager.rollback(restore.checkpoint)
        # Validate the rebuild against the checkpointed EC table: the
        # union of the frame chain's ECs must be exactly the union of
        # the rebuilt ones.  (Per-EC granularity can differ
        # legitimately — EC identity depends on apply history — but
        # covered headerspace cannot.)
        preds = engine.import_frames(list(restore.frames))
        snapshot_union = (
            engine.disj_many(preds) if preds else engine.false
        )
        rebuilt_union = engine.disj_many(
            pred for pred, _ in manager.model.entries()
        )
        if snapshot_union != rebuilt_union:
            raise WireFormatError("restored EC union diverges from snapshot")
    except Exception:  # noqa: BLE001 - any restore fault means degrade
        return False
    state.applied_ids = list(restore.applied_ids)
    state.last_applied = (
        state.applied_ids[-1] if state.applied_ids else restore.block_id
    )
    state.updates_applied = restore.checkpoint.rule_count()
    # The wire base after a restore is the table *as imported from the
    # frames* — the table the supervisor holds — never the rebuilt
    # entries: exporter and importer must agree on the base list for
    # the next delta's KEEP slots to resolve correctly.
    state.wire_base = preds
    state.wire_fp = (
        fingerprint_blob(restore.frames[-1]) if restore.frames else None
    )
    state.journal_base = dict(restore.checkpoint.rules)
    return True


def _apply_block(
    state: _ShardState, block: Block, telemetry: Telemetry
) -> BlockAck:
    """Apply one block to the shard model and time it."""
    t0 = time.perf_counter()
    with telemetry.span("parallel.worker", subspace=state.spec.name):
        state.manager.submit(block.updates)
        state.manager.flush()
    elapsed = time.perf_counter() - t0
    state.seconds += elapsed
    state.last_applied = block.block_id
    state.applied_ids.append(block.block_id)
    state.updates_applied += len(block.updates)
    state.applied_since_checkpoint += 1
    return BlockAck(
        worker_id=-1,  # stamped by the caller
        generation=-1,
        shard=state.spec.name,
        block_id=block.block_id,
        seconds=elapsed,
        ecs=state.manager.num_ecs(),
    )


def worker_main(spec: WorkerSpec, inbox, outbox) -> None:
    """Entry point for one fleet worker process."""
    telemetry = Telemetry.from_config(spec.telemetry)
    shards: Dict[str, _ShardState] = {}
    restored: Dict[str, int] = {}
    failed: List[str] = []
    for shard_spec in spec.shards:
        manager = ModelWriter(
            list(spec.devices),
            spec.layout,
            subspace_match=shard_spec.subspace_match,
            telemetry=telemetry,
            backend=spec.backend,
        )
        state = _ShardState(shard_spec, manager)
        if _restore_shard(state):
            shards[shard_spec.name] = state
            restored[shard_spec.name] = state.last_applied
        else:
            failed.append(shard_spec.name)
    outbox.put(
        Hello(
            worker_id=spec.worker_id,
            generation=spec.generation,
            restored=restored,
            failed=tuple(failed),
        )
    )

    stop_beats = threading.Event()

    def _beat() -> None:
        while not stop_beats.wait(spec.heartbeat_interval):
            outbox.put(Heartbeat(spec.worker_id, spec.generation))

    beats = threading.Thread(target=_beat, daemon=True)
    beats.start()

    def _stamp(message):
        return dataclasses.replace(
            message, worker_id=spec.worker_id, generation=spec.generation
        )

    try:
        while True:
            message = inbox.get()
            if isinstance(message, Stop):
                _drain(spec, shards, telemetry, outbox, message)
                return
            if not isinstance(message, Block):  # pragma: no cover
                continue
            state = shards.get(message.shard)
            if state is None:  # restore-failed shard: supervisor races
                continue
            if message.block_id <= state.last_applied:
                # Idempotent redelivery: already applied, never reapply
                # — and never advance the checkpoint cadence, which
                # counts applied blocks only.
                outbox.put(
                    _stamp(
                        BlockAck(
                            worker_id=-1,
                            generation=-1,
                            shard=state.spec.name,
                            block_id=message.block_id,
                            skipped=True,
                            ecs=state.manager.num_ecs(),
                        )
                    )
                )
                continue
            state.delivered += 1
            try:
                if state.fault is not None:
                    state.fault.trigger(
                        message.attempt, state.delivered - 1
                    )
                ack = _apply_block(state, message, telemetry)
            except BaseException as exc:  # noqa: BLE001 - shipped as data
                import traceback as tb

                outbox.put(
                    BlockError(
                        worker_id=spec.worker_id,
                        generation=spec.generation,
                        shard=state.spec.name,
                        block_id=message.block_id,
                        attempt=message.attempt,
                        error=f"{type(exc).__name__}: {exc}",
                        traceback=tb.format_exc(),
                    )
                )
                continue
            if state.fault is not None and state.fault.drops_ack(
                message.attempt, state.delivered - 1
            ):
                # Chaos: the model advanced but the ack evaporates; the
                # supervisor's watchdog must redeliver and hit the
                # watermark path above.
                continue
            outbox.put(_stamp(ack))
            if (
                spec.checkpoint_every
                and state.applied_since_checkpoint >= spec.checkpoint_every
            ):
                state.applied_since_checkpoint = 0
                outbox.put(_build_checkpoint(spec, state))
    finally:
        stop_beats.set()


def _drain(
    spec: WorkerSpec,
    shards: Dict[str, _ShardState],
    telemetry: Telemetry,
    outbox,
    stop: Stop,
) -> None:
    """Report every shard and the registry snapshot, then exit."""
    for state in shards.values():
        model = None
        if stop.collect_models:
            engine = state.manager.engine
            entries = state.manager.model.entries()
            preds = [pred for pred, _ in entries]
            if state.wire_fp is not None:
                # Collection rides the checkpoint chain: ship a delta
                # against the last checkpointed epoch; the supervisor
                # prepends its held chain.
                frame = engine.export_delta_bytes(
                    preds, state.wire_base, state.wire_fp
                )
            else:
                frame = engine.export_bytes(preds)
            actions = tuple(
                state.manager.store.to_dict(vec) for _, vec in entries
            )
            model = ((frame,), actions)
        outbox.put(
            ShardDone(
                worker_id=spec.worker_id,
                generation=spec.generation,
                shard=state.spec.name,
                seconds=state.seconds,
                predicate_ops=state.manager.engine.metrics.total,
                ecs=state.manager.num_ecs(),
                updates_applied=state.updates_applied,
                model=model,
            )
        )
    outbox.put(
        WorkerBye(
            worker_id=spec.worker_id,
            generation=spec.generation,
            registry_snapshot=telemetry.registry.snapshot(),
        )
    )
