"""Verification-as-a-service: a query daemon over snapshot-isolated models.

ROADMAP item 1: Flash's CE2D machinery keeps verification consistent
*while the data plane keeps changing* — this package turns that into an
operating mode.  A :class:`ServeDaemon` ingests epoch-tagged update
streams through the supervised-ingestion path, publishes an immutable
model snapshot per applied batch, and answers reachability / loop /
waypoint queries concurrently against pinned snapshots, with an
epoch-keyed result cache, backpressure, and graceful drain.

Quick tour::

    from repro import fabric, dst_only_layout
    from repro.serve import ReachabilityQuery, ServeDaemon

    topo, layout = fabric(2, 2, 2, 2), dst_only_layout(8)
    with ServeDaemon(topo, layout) as daemon:
        daemon.submit_updates(updates)          # advances the serve epoch
        daemon.drain()                          # quiesce the writer
        r = daemon.ask(ReachabilityQuery(source=0))
        print(r.answer.holds, r.epoch, r.cached)

Consistency contract (proved continuously by ``repro.serve.load``,
which CI runs as ``repro serve --quick``): an
answer pinned at serve epoch ``N`` equals the batch oracle's answer
after replaying exactly the first ``N`` batches.  See ``docs/serve.md``.
"""

from ..errors import QueryTimeoutError
from .cache import ResultCache
from .daemon import (
    IngestFailure,
    QueryResult,
    ServeDaemon,
    install_signal_handlers,
)
from .load import (
    BatchOracle,
    LoadResult,
    ServeWorkload,
    build_workload,
    random_query,
    run_load,
)
from .queries import (
    LoopQuery,
    Query,
    QueryAnswer,
    ReachabilityQuery,
    WaypointQuery,
    reaches_external_avoiding,
)
from .snapshots import Snapshot, SnapshotStore, isolate_view

__all__ = [
    "BatchOracle",
    "IngestFailure",
    "LoadResult",
    "LoopQuery",
    "Query",
    "QueryAnswer",
    "QueryResult",
    "QueryTimeoutError",
    "ReachabilityQuery",
    "ResultCache",
    "ServeDaemon",
    "ServeWorkload",
    "Snapshot",
    "SnapshotStore",
    "WaypointQuery",
    "build_workload",
    "install_signal_handlers",
    "isolate_view",
    "random_query",
    "reaches_external_avoiding",
    "run_load",
]
