"""Wire messages for the persistent worker fleet.

Everything here crosses a process boundary, so every field is plain
picklable data: tuples, dicts, strings, :class:`ModelCheckpoint` rule
journals and FSJ1/FBW1 byte frames — never live BDD nodes or engines.

Message direction:

* supervisor → worker: :class:`WorkerSpec` (at spawn, via the process
  args), then :class:`Block` and :class:`Stop` over the worker's inbox.
* worker → supervisor: :class:`Hello`, :class:`Heartbeat`,
  :class:`BlockAck`, :class:`BlockError`, :class:`ShardCheckpoint`,
  :class:`ShardDone`, :class:`WorkerBye` over the worker's own outbox
  (per-worker, so a worker killed mid-pickle can only corrupt a queue
  that dies with it).

Every worker→supervisor message carries the worker ``generation``; the
supervisor drops anything from a dead generation — a respawned worker's
model knows nothing of its predecessor's unacked work, so stale acks
must never clear inflight state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..dataplane.rule import Rule
from ..dataplane.update import RuleUpdate
from ..headerspace.fields import HeaderLayout
from ..headerspace.match import Match
from ..resilience.checkpoint import ModelCheckpoint
from ..telemetry import TelemetryConfig

#: One shard's shipped model: a chain of wire frames — a full FBW1 frame
#: followed by FBW2 deltas (``PredicateBackend.import_frames`` folds the
#: chain) — plus the matching per-EC ``{device: action}`` dicts, in the
#: final table's order.  Kept structurally identical to
#: ``repro.core.parallel.ModelPayload`` (which cannot be imported here
#: without a cycle — ``core.parallel`` builds on this package).
ModelPayload = Tuple[Tuple[bytes, ...], Tuple[Dict[int, object], ...]]


@dataclass(frozen=True)
class JournalDelta:
    """An installed-rule journal diff against the last shipped journal.

    Per-device entries: ``(device, "append", rules)`` extends the held
    rule list, ``(device, "replace", rules)`` overwrites it (covers
    deletions and reorders).  ``base_rule_count`` is the total rule
    count of the journal this delta was computed against — a cheap
    consistency check before applying (the strong check is the restore
    path's EC-union validation against the frame chain).
    """

    base_rule_count: int
    entries: Tuple[Tuple[int, str, Tuple[Rule, ...]], ...]


# -- supervisor → worker ----------------------------------------------------
@dataclass(frozen=True)
class ShardRestore:
    """Crash-recovery payload: rebuild the shard model to ``block_id``.

    ``checkpoint`` is the assembled installed-rule journal the worker
    replays; ``frames`` is the full-frame + delta chain of the shard's
    EC table as last checkpointed (inner FBW1/FBW2 blobs, FSJ1 framing
    stripped) the rebuilt model is validated against; ``applied_ids``
    is the applied-block journal at that checkpoint.
    """

    block_id: int
    checkpoint: ModelCheckpoint
    frames: Tuple[bytes, ...]
    applied_ids: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ShardSpec:
    """One subspace shard assigned to a worker."""

    index: int
    name: str
    subspace_match: Match
    fault: Optional[str] = None  # WorkerFaultSpec string, chaos drills only
    restore: Optional[ShardRestore] = None


@dataclass(frozen=True)
class WorkerSpec:
    """A worker process's full configuration, passed at spawn time."""

    worker_id: int
    generation: int
    devices: Tuple[int, ...]
    layout: HeaderLayout
    shards: Tuple[ShardSpec, ...]
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    heartbeat_interval: float = 0.1
    checkpoint_every: int = 4
    compact_every: int = 4
    backend: str = "bdd"


@dataclass(frozen=True)
class Block:
    """An epoch-tagged update block for one shard.

    ``block_id`` is the idempotency watermark: a worker that has already
    applied this id acks it as ``skipped`` without touching the model,
    which is what makes supervisor redelivery (ack timeouts, respawn
    tail replay) safe.  ``attempt`` is the shard's fault-manifestation
    counter, so an ``exit@1`` chaos spec dies exactly once no matter
    which block the retry lands on.
    """

    shard: str
    block_id: int
    epoch: str
    updates: Tuple[RuleUpdate, ...]
    attempt: int = 0


@dataclass(frozen=True)
class Stop:
    """Drain request: report every shard, then say goodbye and exit."""

    collect_models: bool = False


# -- worker → supervisor ----------------------------------------------------
@dataclass(frozen=True)
class Hello:
    """First message after (re)spawn: per-shard restore outcomes.

    ``restored`` maps shard name → watermark block id after restore (0
    for a fresh shard); ``failed`` lists shards whose snapshot restore
    failed validation — the supervisor degrades those immediately
    rather than trusting a model it cannot verify.
    """

    worker_id: int
    generation: int
    restored: Dict[str, int] = field(default_factory=dict)
    failed: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Heartbeat:
    worker_id: int
    generation: int


@dataclass(frozen=True)
class BlockAck:
    """One block applied (or skipped as an already-applied duplicate)."""

    worker_id: int
    generation: int
    shard: str
    block_id: int
    seconds: float = 0.0
    ecs: int = 0
    skipped: bool = False


@dataclass(frozen=True)
class BlockError:
    """A block's apply raised; the model for this shard is unchanged."""

    worker_id: int
    generation: int
    shard: str
    block_id: int
    attempt: int
    error: str
    traceback: str = ""


@dataclass(frozen=True)
class ShardCheckpoint:
    """Periodic durability point: rule journal + FSJ1 snapshot frame.

    ``frame`` is FSJ1-framed; its inner blob is a full FBW1 table on
    compaction checkpoints (``checkpoint`` set, ``journal_delta`` None)
    and an FBW2 delta against the previous checkpoint's frame bytes on
    the ones in between (``journal_delta`` set, ``checkpoint`` None).
    The supervisor assembles deltas into its held recovery chain; a
    delta that fails fingerprint or journal validation is rejected and
    the chain self-heals at the next compaction.
    """

    worker_id: int
    generation: int
    shard: str
    block_id: int
    checkpoint: Optional[ModelCheckpoint]
    frame: bytes
    journal_delta: Optional[JournalDelta] = None


@dataclass(frozen=True)
class ShardDone:
    """Final per-shard report, sent while draining after :class:`Stop`."""

    worker_id: int
    generation: int
    shard: str
    seconds: float
    predicate_ops: int
    ecs: int
    updates_applied: int
    model: Optional[ModelPayload] = None


@dataclass(frozen=True)
class WorkerBye:
    """Last message before exit: the worker's telemetry snapshot."""

    worker_id: int
    generation: int
    registry_snapshot: dict = field(default_factory=dict)
