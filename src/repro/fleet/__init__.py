"""Persistent sharded worker fleet (ROADMAP item 2, robustness-first).

Long-lived worker processes each own subspace shards with incremental
models; :class:`FleetSupervisor` routes epoch-tagged update blocks over
per-worker queues with heartbeat liveness, delta-chain (FBW1 + FBW2)
checkpoint + journal crash recovery, idempotent redelivery, and graceful
degradation into an in-process fallback verifier.
``repro.core.parallel.run_partitioned`` runs on top of this package for
its pooled path; chaos validation lives in ``repro.difftest.fleet``.
See ``docs/fleet.md``.
"""

from .messages import (
    Block,
    BlockAck,
    BlockError,
    Hello,
    Heartbeat,
    JournalDelta,
    ShardCheckpoint,
    ShardDone,
    ShardRestore,
    ShardSpec,
    Stop,
    WorkerBye,
    WorkerSpec,
)
from .supervisor import (
    DEFAULT_ACK_TIMEOUT,
    FleetOutcome,
    FleetSupervisor,
    ShardOutcome,
)
from .worker import worker_main

__all__ = [
    "Block",
    "BlockAck",
    "BlockError",
    "DEFAULT_ACK_TIMEOUT",
    "FleetOutcome",
    "FleetSupervisor",
    "Heartbeat",
    "Hello",
    "JournalDelta",
    "ShardCheckpoint",
    "ShardDone",
    "ShardOutcome",
    "ShardRestore",
    "ShardSpec",
    "Stop",
    "WorkerBye",
    "WorkerSpec",
    "worker_main",
]
