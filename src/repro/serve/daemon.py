"""The long-lived verification daemon: one writer, many readers.

:class:`ServeDaemon` turns the batch verifier into a service:

* **ingest** — one writer thread consumes a *bounded* queue of update
  batches and feeds them through the daemon's own
  :class:`~repro.ce2d.verifier.SubspaceVerifier`, whose
  :class:`~repro.core.model_manager.ModelWriter` runs the ``repair``
  supervised-ingestion path of ``repro.resilience``.  Every applied
  batch advances the **serve epoch** and publishes a snapshot.
* **serve** — a thread pool answers :mod:`~repro.serve.queries` against
  pinned snapshots, consulting the epoch-keyed
  :class:`~repro.serve.cache.ResultCache` first and, on a miss, the
  per-vector :class:`~repro.serve.queries.VerdictMemo`, which the
  writer prunes in place to the live snapshots' vectors at every
  publish.
* **backpressure** — a full ingest queue rejects producers with
  :class:`~repro.errors.ServeSaturatedError` instead of buffering
  unboundedly; queries keep being answered from published snapshots.
* **drain** — :meth:`drain` stops intake, finishes every queued batch,
  and returns once the model is quiescent; :meth:`close` additionally
  stops the workers.

Consistency contract: a query is answered entirely against the snapshot
it pinned (serve epoch ``N`` = the model after exactly the first ``N``
ingested batches), so its answer equals the batch oracle's answer at
``N`` — the invariant ``repro.serve.load`` asserts for every mid-storm
query.  See ``docs/serve.md``.
"""

from __future__ import annotations

import queue
import signal as _signal
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..ce2d.verifier import SubspaceVerifier
from ..dataplane.update import RuleUpdate
from ..errors import QueryTimeoutError, ServeClosedError, ServeSaturatedError
from ..headerspace.fields import HeaderLayout
from ..network.topology import Topology
from ..resilience.validator import DeadLetterLog
from ..telemetry import Telemetry
from .cache import ResultCache
from .queries import Query, QueryAnswer, VerdictMemo
from .snapshots import SnapshotStore, isolate_view

_STOP = object()


@dataclass(frozen=True)
class QueryResult:
    """One served answer plus its serving metadata."""

    query: Query
    answer: QueryAnswer
    epoch: int  # the serve epoch the answer was pinned at
    cached: bool
    seconds: float


@dataclass(frozen=True)
class IngestFailure:
    """One batch the writer could not apply (kept for inspection)."""

    error: str  # "<exception class>: <message>"
    updates: int

    @property
    def kind(self) -> str:
        """The exception's class name — what the failure log counts by."""
        return self.error.partition(":")[0]


class ServeDaemon:
    """Snapshot-isolated verification-as-a-service.

    The writer is :attr:`verifier`, an unpartitioned
    :class:`~repro.ce2d.verifier.SubspaceVerifier` with no checkers (the
    daemon answers queries, not verdicts) under ``repair`` validation:
    poisoned updates are canonicalised or quarantined instead of wedging
    the writer.  It keeps the :attr:`KEEP_SNAPSHOTS` newest model
    versions and up to :attr:`CACHE_SIZE` cached answers.

    Parameters
    ----------
    isolation:
        Only ``"copy"`` is accepted (anything else is a ``ValueError``);
        the one mode kept its name when snapshots stopped copying.  Every
        published snapshot is the writer's own read view
        (:func:`~repro.serve.snapshots.isolate_view`): its handles pin
        its nodes in the writer's store, which readers read but never
        write — a query's scope compiles in the snapshot's private scope
        engine.
    queue_size:
        Ingest backpressure bound: producers hitting a full queue get
        :class:`~repro.errors.ServeSaturatedError`.
    """

    KEEP_SNAPSHOTS = 4
    CACHE_SIZE = 4096

    def __init__(
        self,
        topology: Topology,
        layout: HeaderLayout,
        *,
        isolation: str = "copy",
        queue_size: int = 64,
        workers: int = 4,
        query_deadline: Optional[float] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if isolation != "copy":
            raise ValueError(f"unknown isolation mode {isolation!r}")
        if query_deadline is not None and query_deadline <= 0:
            raise ValueError("query_deadline must be positive seconds")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if queue_size < 1:
            # queue.Queue(maxsize=0) is unbounded: no backpressure.
            raise ValueError("queue_size must be at least 1")
        self.query_deadline = query_deadline
        self.topology = topology
        self.layout = layout
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.verifier = SubspaceVerifier(
            topology,
            layout,
            epoch="serve",
            telemetry=self.telemetry,
            validation="repair",
        )
        self._snapshots = SnapshotStore(
            keep=self.KEEP_SNAPSHOTS, telemetry=self.telemetry
        )
        self._cache = ResultCache(self.CACHE_SIZE, telemetry=self.telemetry)
        # Readers get and set single keys; the writer prunes it in place
        # at each publish.
        self._memo = VerdictMemo(self.verifier.manager.store)
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_size)
        self._workers = workers
        self._state_lock = threading.Lock()
        self._applied = 0  # serve epoch = number of applied batches
        self._started = False
        self._draining = False
        self._closed = False
        self._ingest_thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        # ``failures.total`` is exact; the log holds the most recent ones.
        self.failures = DeadLetterLog()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServeDaemon":
        with self._state_lock:
            if self._closed:
                raise ServeClosedError("daemon already closed")
            if self._started:
                return self
            self._started = True
        self._publish(self.verifier.read_view())  # epoch 0: the empty model
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="serve-query"
        )
        self._ingest_thread = threading.Thread(
            target=self._ingest_loop, name="serve-ingest", daemon=True
        )
        self._ingest_thread.start()
        self.telemetry.count("serve.started")
        return self

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def drain(self) -> None:
        """Stop intake, apply everything already queued, return quiescent.

        Queries remain served (against the final snapshot) after a
        drain; only update intake is shut.
        """
        with self._state_lock:
            self._draining = True
        with self.telemetry.span("serve.drain"):
            self._queue.join()
        self.telemetry.count("serve.drained")

    def close(self) -> None:
        """Drain, then stop the writer thread and the query pool."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
        if self._ingest_thread is not None:
            self._queue.join()
            self._queue.put(_STOP)
            self._ingest_thread.join()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self.telemetry.count("serve.closed")

    # -- ingest (the writer side) --------------------------------------
    def submit_updates(
        self, updates: Sequence[RuleUpdate], *, timeout: float = 0.0
    ) -> None:
        """Enqueue one batch; applying it will advance the serve epoch.

        ``timeout`` is how long to wait for queue space before raising
        :class:`~repro.errors.ServeSaturatedError` (0 = fail fast).
        """
        if not self._started:
            raise ServeClosedError("daemon is not started")
        if self._draining or self._closed:
            raise ServeClosedError("daemon is draining; no new updates")
        batch = list(updates)
        try:
            if timeout > 0:
                self._queue.put(batch, timeout=timeout)
            else:
                self._queue.put_nowait(batch)
        except queue.Full:
            self.telemetry.count("serve.ingest.rejected")
            raise ServeSaturatedError(
                f"ingest queue full ({self._queue.maxsize} batches pending); "
                f"retry after backoff"
            ) from None
        self.telemetry.registry.gauge("serve.queue.depth").set(
            self._queue.qsize()
        )

    def _ingest_loop(self) -> None:
        while True:
            batch = self._queue.get()
            if batch is _STOP:
                self._queue.task_done()
                return
            try:
                self._apply(batch)
            except Exception as exc:  # noqa: BLE001 - one bad batch must
                # not kill the writer thread; the daemon keeps serving
                # the last good snapshot (match compile errors and
                # invariant trips land here).
                self.failures.record(
                    IngestFailure(f"{type(exc).__name__}: {exc}", len(batch))
                )
                self.telemetry.count("serve.ingest.failed")
            finally:
                self._queue.task_done()
                self.telemetry.registry.gauge("serve.queue.depth").set(
                    self._queue.qsize()
                )

    def _apply(self, batch: List[RuleUpdate]) -> None:
        with self.telemetry.span("serve.ingest.apply"):
            for device, updates in self._group_by_device(batch):
                self.verifier.ingest(device, updates)
            view = self.verifier.read_view()
        self.telemetry.count("serve.ingest.batches")
        self.telemetry.count("serve.ingest.updates", len(batch))
        self._publish(view)

    def _publish(self, view) -> None:
        with self.telemetry.span("serve.snapshot.capture"):
            self._snapshots.publish(self._applied, isolate_view(view))
        self.telemetry.registry.gauge("serve.epoch").set(self._applied)
        self._applied += 1
        self._cache.evict_below(self._snapshots.oldest_epoch())
        # Keep the verdicts of vectors some live snapshot holds.
        self._memo.retain({
            vector
            for live_view in self._snapshots.live_views()
            for _, vector in live_view.entries()
        })

    @staticmethod
    def _group_by_device(
        batch: Sequence[RuleUpdate],
    ) -> List[Tuple[int, List[RuleUpdate]]]:
        """Split a mixed batch per device, preserving arrival order."""
        order: List[int] = []
        groups: Dict[int, List[RuleUpdate]] = {}
        for update in batch:
            if update.device not in groups:
                order.append(update.device)
                groups[update.device] = []
            groups[update.device].append(update)
        return [(device, groups[device]) for device in order]

    # -- serve (the reader side) ---------------------------------------
    def submit_query(
        self, query: Query, *, epoch: Optional[int] = None
    ) -> "Future[QueryResult]":
        """Schedule a query; ``epoch=None`` pins the latest snapshot."""
        if not self._started or self._executor is None:
            raise ServeClosedError("daemon is not started")
        if self._closed:
            raise ServeClosedError("daemon is closed")
        try:
            return self._executor.submit(self._execute, query, epoch)
        except RuntimeError:
            # Lost the race with close(): the pool shut down after the
            # _closed check above.
            raise ServeClosedError("daemon is closed") from None

    def ask(self, query: Query, *, epoch: Optional[int] = None) -> QueryResult:
        """Synchronous :meth:`submit_query`."""
        return self.submit_query(query, epoch=epoch).result()

    def _execute(self, query: Query, epoch: Optional[int]) -> QueryResult:
        t0 = time.perf_counter()
        deadline = (
            time.monotonic() + self.query_deadline
            if self.query_deadline is not None
            else None
        )
        snapshot = self._snapshots.pin(epoch)
        try:
            with snapshot.lock:
                key = (snapshot.epoch,) + query.cache_key()
                answer = self._cache.get(key)
                cached = answer is not None
                if answer is None:
                    with self.telemetry.span("serve.query.eval"):
                        try:
                            answer = query.evaluate(
                                snapshot.view, self.topology, deadline,
                                self._memo,
                            )
                        except QueryTimeoutError:
                            # The worker thread is released; the Future
                            # carries the timeout to the caller.
                            self.telemetry.count("serve.query.timeouts")
                            raise
                    self._cache.put(key, answer)
        finally:
            snapshot.unpin()
        seconds = time.perf_counter() - t0
        self.telemetry.count("serve.query.count")
        self.telemetry.count(f"serve.query.kind.{query.kind}")
        if cached:
            self.telemetry.count("serve.query.cached")
        self.telemetry.registry.histogram("serve.query.seconds").observe(seconds)
        return QueryResult(query, answer, snapshot.epoch, cached, seconds)

    # -- introspection -------------------------------------------------
    @property
    def epoch(self) -> Optional[int]:
        """The latest published serve epoch (None before :meth:`start`)."""
        return self._snapshots.latest_epoch

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def snapshots(self) -> SnapshotStore:
        return self._snapshots

    def stats(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "queue_depth": self.queue_depth,
            "snapshots_live": len(self._snapshots),
            "cache_entries": len(self._cache),
            "cache_hit_rate": self._cache.hit_rate,
            "ingest_failures": self.failures.total,
        }

    def __repr__(self) -> str:
        return (
            f"ServeDaemon(epoch={self.epoch}, queue={self.queue_depth}, "
            f"cache={len(self._cache)})"
        )


def install_signal_handlers(
    daemon: ServeDaemon,
    signals: Sequence[int] = (_signal.SIGTERM, _signal.SIGINT),
) -> Dict[int, Any]:
    """Drain-and-close the daemon on SIGTERM/SIGINT, then exit cleanly.

    Must be called from the main thread (CPython restricts
    :func:`signal.signal` to it).  On the first signal the handler runs
    :meth:`ServeDaemon.close` — stop intake, apply every queued batch,
    stop the query pool — so in-flight work finishes instead of being
    torn down mid-batch.  It then chains to the previous handler if one
    was installed, else converts the signal to the conventional exit:
    ``KeyboardInterrupt`` for SIGINT, ``SystemExit(128 + signum)``
    otherwise.

    Returns the previous handlers keyed by signal number so callers
    (tests, embedders) can restore them.
    """
    previous: Dict[int, Any] = {}

    def _handle(signum, frame):
        daemon.telemetry.count("serve.signal.shutdowns")
        daemon.close()
        prev = previous.get(signum)
        if callable(prev) and prev not in (
            _signal.SIG_IGN,
            _signal.SIG_DFL,
            _signal.default_int_handler,
        ):
            prev(signum, frame)
        elif signum == _signal.SIGINT:
            raise KeyboardInterrupt
        else:
            raise SystemExit(128 + signum)

    for signum in signals:
        previous[signum] = _signal.signal(signum, _handle)
    return previous


__all__ = [
    "IngestFailure",
    "QueryResult",
    "ServeDaemon",
    "install_signal_handlers",
]
