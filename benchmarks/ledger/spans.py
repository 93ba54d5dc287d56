"""Outside-in span recording: wrappers around a layer's public functions.

The traced round times each layer *from outside*: :class:`Recorder.patch`
replaces a public function or method of ``repro`` with a wrapper that
records one span per call.  Nothing under ``src/`` knows about it.

A span is ``(id, parent, name, thread, op, start, end)``:

* ``parent`` is the span that was open on the same thread when this one
  started (each thread has its own stack), or — for a root span whose
  first argument was :meth:`Recorder.bind`-ed by the benchmark — the
  span of another thread that caused it (the client's ``ask`` span for a
  query evaluated on a pool thread);
* ``op`` is shared by all spans of one batch/block/query: a root span
  takes it from the binding, else it is ``<thread>-<serial>`` where the
  serial advances each time a ``closes_op`` span ends on that thread;
  children inherit it (the benchmark's own ``bench.op`` spans name theirs).

A span's *self time* is its duration minus the part of its interval that
its child spans cover (children on two threads may overlap each other, so
the covered part is the length of the union, not the sum).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    thread: str
    op: Optional[str]
    start: float
    end: float


class Recorder:
    """In-memory span sink plus the patch/unpatch bookkeeping."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._bound: Dict[int, Tuple[Optional[str], Optional[int]]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- op identity ----------------------------------------------------
    def bind(self, obj: object, op: str, parent: Optional[int]) -> None:
        """Root spans whose first argument is ``obj`` (on any thread) join
        ``op`` under ``parent``."""
        self._bound[id(obj)] = (op, parent)

    # -- recording ------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        on_call: Optional[Callable[..., None]] = None,
        closes_op: bool = False,
    ) -> Callable:
        """A wrapper recording one ``name`` span per call of ``fn``.

        ``on_call`` sees the positional arguments of every call, recording
        or not (for counts that must be taken where the work happens, and
        for engines created during set-up); ``closes_op`` makes the end
        of the span end the thread's current op, so a writer thread's
        spans are grouped per published batch.
        """
        local = self._local
        spans = self.spans
        ids = self._ids
        bound = self._bound
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent, op = stack[-1]
            else:
                parent = op = None
                if bound and args:
                    hit = bound.get(id(args[0]))
                    if hit is not None:
                        op, parent = hit
                if op is None:
                    op = "%s-%d" % (
                        threading.current_thread().name,
                        getattr(local, "serial", 0),
                    )
            sid = next(ids)
            stack.append((sid, op))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(sid, parent, name, threading.current_thread().name,
                         op, start, end)
                )
                if closes_op and not stack:
                    local.serial = getattr(local, "serial", 0) + 1

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: object, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` by its recording wrapper until :meth:`unpatch`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = original.__func__ if isinstance(original, (staticmethod, classmethod)) else original
        wrapped = self.wrap(name, fn, **kwargs)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(wrapped)
        elif isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span(self, name: str, op: Optional[str] = None):
        """Context manager for the benchmark's own spans (timed region, ops)."""
        return _ManualSpan(self, name, op)


class _ManualSpan:
    def __init__(self, recorder: Recorder, name: str, op: Optional[str]) -> None:
        self.recorder = recorder
        self.name = name
        self.op = op
        self.id: Optional[int] = None

    def __enter__(self) -> "_ManualSpan":
        rec = self.recorder
        local = rec._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        self._parent = stack[-1][0] if stack else None
        if self.op is None:
            self.op = stack[-1][1] if stack else None
        self.id = next(rec._ids)
        stack.append((self.id, self.op))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        rec = self.recorder
        rec._local.stack.pop()
        rec.spans.append(
            Span(self.id, self._parent, self.name,
                 threading.current_thread().name, self.op, self._start, end)
        )


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id → duration minus the part its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: Dict[int, float] = {}
    for s in spans:
        kids = children.get(s.id)
        if not kids:
            out[s.id] = s.end - s.start
            continue
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in kids]
        out[s.id] = (s.end - s.start) - covered(
            (a, b) for a, b in clipped if b > a
        )
    return out


def self_time_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out


def total_time_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    """Span name → summed duration, children included."""
    out: Dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
    return out


def calls_by_name(spans: Iterable[Span]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0) + 1
    return out


def unattributed_share(
    spans: Iterable[Span], start: float, end: float,
    own_prefix: str = "bench.", not_wall: str = "bench.calibrate",
) -> float:
    """Share of [start, end] that no layer span (any thread) covers.

    Spans named ``own_prefix*`` are the benchmark's own and do not count
    as attribution.  The intervals of ``not_wall`` spans (speed samples,
    taken between operations or beside them on an idle thread) are cut
    out of the wall and out of the layer spans alike.
    """
    def clip(selected) -> List[Tuple[float, float]]:
        pairs = ((max(s.start, start), min(s.end, end)) for s in selected)
        return [(a, b) for a, b in pairs if b > a]

    spans = list(spans)
    cut = clip(s for s in spans if s.name == not_wall)
    layer = clip(s for s in spans if not s.name.startswith(own_prefix))
    wall = (end - start) - covered(cut)
    if wall <= 0:
        return 0.0
    return 1.0 - (covered(layer + cut) - covered(cut)) / wall
