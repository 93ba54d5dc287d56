"""Span arithmetic: self time from nested, sibling and cross-thread spans."""

import threading

import pytest

from benchmarks.ledger.spans import (
    Recorder,
    Span,
    covered,
    self_time_by_name,
    self_times,
    unattributed_share,
)


def span(sid, parent, name, start, end, thread="main", op=None):
    return Span(sid, parent, name, thread, op, start, end)


def test_covered_is_the_length_of_the_union():
    assert covered([]) == 0.0
    assert covered([(0, 1), (2, 3)]) == 2.0
    assert covered([(0, 2), (1, 3)]) == 3.0
    assert covered([(0, 10), (2, 3), (4, 5)]) == 10.0
    assert covered([(1, 2), (0, 1)]) == 2.0


def test_self_time_nested_and_sibling():
    spans = [
        span(1, None, "block", 0.0, 10.0),
        span(2, 1, "map", 1.0, 4.0),      # sibling 1
        span(3, 1, "apply", 5.0, 9.0),    # sibling 2
        span(4, 3, "split", 6.0, 8.0),    # nested in apply
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 3.0, 3: 2.0, 4: 2.0}
    assert sum(own.values()) == 10.0  # self times add up to the root's wall
    assert self_time_by_name(spans) == {
        "block": 3.0, "map": 3.0, "apply": 2.0, "split": 2.0,
    }


def test_self_time_children_on_two_threads_overlap():
    # A client's ask() waits 0..10 while two pool threads evaluate parts of
    # it concurrently: the parent's covered part is the union (2..8), not
    # the sum (4 + 4).
    spans = [
        span(1, None, "ask", 0.0, 10.0, thread="client"),
        span(2, 1, "eval", 2.0, 6.0, thread="pool-0"),
        span(3, 1, "eval", 4.0, 8.0, thread="pool-1"),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(4.0)
    assert own[2] == own[3] == 4.0


def test_self_time_clips_children_that_outlive_the_parent():
    spans = [
        span(1, None, "ask", 0.0, 5.0),
        span(2, 1, "eval", 4.0, 9.0, thread="pool"),
    ]
    assert self_times(spans)[1] == pytest.approx(4.0)


def test_unattributed_share_ignores_the_benchmarks_own_spans():
    spans = [
        span(1, None, "bench.timed", 0.0, 10.0),
        span(2, 1, "core.apply", 1.0, 5.0),
        span(3, 1, "ce2d.check", 5.0, 8.0),
        span(4, None, "serve.eval", 7.0, 9.0, thread="pool"),  # other thread
    ]
    assert unattributed_share(spans, 0.0, 10.0) == pytest.approx(0.2)
    assert unattributed_share([], 0.0, 10.0) == 1.0
    assert unattributed_share(spans, 3.0, 3.0) == 0.0


def test_unattributed_share_cuts_speed_samples_out_of_wall_and_layers():
    between_ops = [
        span(1, None, "bench.timed", 0.0, 10.0),
        span(2, 1, "core.apply", 0.0, 4.0),
        span(3, 1, "bench.calibrate", 4.0, 6.0),  # between two operations
        span(4, 1, "core.apply", 6.0, 9.0),
    ]
    assert unattributed_share(between_ops, 0.0, 10.0) == pytest.approx(1 / 8)
    beside = [
        span(1, None, "bench.timed", 0.0, 10.0),
        span(2, None, "core.apply", 0.0, 10.0, thread="writer"),
        span(3, 1, "bench.calibrate", 4.0, 6.0),  # an idle thread, beside the work
    ]
    assert unattributed_share(beside, 0.0, 10.0) == pytest.approx(0.0)


def test_recorder_wraps_nests_and_restores():
    class Layer:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return x * 2

    rec = Recorder()
    seen = []
    rec.patch(Layer, "outer", "layer.outer", on_call=lambda self, x: seen.append(x))
    rec.patch(Layer, "inner", "layer.inner")
    layer = Layer()
    assert layer.outer(3) == 7 and rec.spans == []  # disabled: no spans ...
    assert seen == [3]                              # ... but counts still taken
    rec.enabled = True
    with rec.span("bench.op", op="op-1"):
        assert layer.outer(5) == 11
    rec.unpatch()
    assert layer.outer(1) == 3
    by_name = {s.name: s for s in rec.spans}
    assert set(by_name) == {"bench.op", "layer.outer", "layer.inner"}
    assert by_name["layer.inner"].parent == by_name["layer.outer"].id
    assert by_name["layer.outer"].parent == by_name["bench.op"].id
    assert {s.op for s in rec.spans} == {"op-1"}  # one id for the whole op
    assert len(rec.spans) == 3                    # the post-unpatch call left none


def test_recorder_keeps_one_stack_per_thread_and_links_bound_roots():
    rec = Recorder()
    rec.enabled = True
    barrier = threading.Barrier(2)

    def work(query):
        barrier.wait(timeout=5)
        return query

    evaluate = rec.wrap("serve.query_eval", work)
    publish = rec.wrap("serve.publish", lambda: None, closes_op=True)
    query = object()
    with rec.span("bench.op", op="query-0") as client_span:
        rec.bind(query, "query-0", client_span.id)
        pool = threading.Thread(target=evaluate, args=(query,), name="pool-0")
        pool.start()
        barrier.wait(timeout=5)
        pool.join(timeout=5)
        assert not pool.is_alive()
    writer = threading.Thread(target=lambda: (publish(), publish()), name="writer")
    writer.start()
    writer.join(timeout=5)
    assert not writer.is_alive()
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (evaluated,) = by_name["serve.query_eval"]
    assert evaluated.thread == "pool-0"
    assert evaluated.parent == client_span.id  # caused by the client's span
    assert evaluated.op == "query-0"
    assert [s.op for s in by_name["serve.publish"]] == ["writer-0", "writer-1"]
    assert all(s.parent is None for s in by_name["serve.publish"])
