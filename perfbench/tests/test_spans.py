"""Self-time arithmetic of the span recorder."""

import threading
import time

import pytest

from spans import Tracer, covered_seconds


def test_covered_seconds_merges_overlaps_and_clips():
    # [1,3] and [2,5] overlap -> [1,5]; [8,12] is clipped to [8,10].
    assert covered_seconds([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered_seconds([(11, 12), (-3, -1)], 0, 10) == 0
    assert covered_seconds([], 0, 10) == 0
    assert covered_seconds([(0, 10), (2, 3)], 0, 10) == 10


def test_self_time_is_duration_minus_union_of_children():
    tracer = Tracer(True)
    tracer.record("parent", 0.0, 10.0, parent=None)
    parent = tracer.spans[0].id
    tracer.record("child", 1.0, 3.0, parent=parent)
    tracer.record("child", 2.0, 5.0, parent=parent)      # overlaps
    tracer.record("other", 8.0, 12.0, parent=parent)     # runs past parent
    tracer.record("grandchild", 1.5, 2.5, parent=tracer.spans[1].id)
    own = tracer.self_by_name()
    assert own["parent"] == pytest.approx(10 - 6)
    # The grandchild is subtracted from its own parent only.
    assert own["child"] == pytest.approx((2 - 1) + 3)
    assert own["grandchild"] == pytest.approx(1)
    assert own["other"] == pytest.approx(4)
    assert tracer.total_by_name()["child"] == pytest.approx(5)
    # Everything under the root but its own uncovered time.
    assert tracer.layer_seconds("parent") == pytest.approx(
        own["child"] + own["grandchild"] + own["other"])


def test_layer_seconds_counts_only_spans_under_the_root():
    tracer = Tracer(True)
    tracer.record("setup", 0.0, 2.0, parent=None)          # outside
    tracer.record("root", 2.0, 12.0, parent=None)
    root = tracer.spans[-1].id
    tracer.record("layer", 3.0, 7.0, parent=root)
    layer = tracer.spans[-1].id
    tracer.record("inner", 4.0, 5.0, parent=layer)
    tracer.record("root", 20.0, 21.0, parent=None)
    tracer.record("layer", 20.0, 20.5, parent=tracer.spans[-1].id)
    # (4 - 1) + 1 + 0.5: the root's uncovered 6.5 s and "setup" are not
    # layer time.
    assert tracer.layer_seconds("root") == pytest.approx(4.5)
    assert tracer.layer_seconds("missing") == 0


def test_nested_context_managers_record_parent_links():
    tracer = Tracer(True)
    with tracer.span("outer") as outer:
        assert tracer.current() == outer
        with tracer.span("inner") as inner:
            time.sleep(0.01)
        assert tracer.current() == outer
    assert tracer.current() is None
    spans = {s.name: s for s in tracer.spans}
    assert spans["inner"].parent == outer
    assert spans["outer"].parent is None
    assert spans["inner"].id == inner
    own = tracer.self_seconds()
    assert own[outer] == pytest.approx(
        spans["outer"].duration - spans["inner"].duration, abs=1e-9)
    # Self times of a tree add up to its root's duration.
    assert sum(own.values()) == pytest.approx(spans["outer"].duration)


def test_explicit_parent_links_spans_from_other_threads():
    tracer = Tracer(True)
    with tracer.span("phase") as root:
        def work():
            with tracer.span("request", parent=root):
                time.sleep(0.02)
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
    requests = [s for s in tracer.spans if s.name == "request"]
    assert len(requests) == 2 and all(s.parent == root for s in requests)
    # Overlapping children are not double-counted: self time >= 0.
    assert tracer.self_seconds()[root] >= 0


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    first = tracer.span("a")
    with first as span_id:
        assert span_id is None
        tracer.record("b", 0.0, 1.0, parent=None)
    assert tracer.span("d") is first
    assert tracer.spans == []
    assert tracer.layer_seconds("a") == 0
