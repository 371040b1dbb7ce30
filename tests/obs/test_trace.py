"""The tracing layer itself: nesting, exception safety, threads, JSON."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def _clean_switch():
    """Every test starts and ends with tracing disabled."""
    trace.uninstall()
    yield
    trace.uninstall()


def by_name(collector, name):
    spans = collector.spans(name)
    assert len(spans) == 1, f"expected exactly one {name!r} span"
    return spans[0]


class TestNesting:
    def test_parent_child_depth_and_indices(self):
        collector = trace.install()
        with trace.span("outer"):
            with trace.span("inner-1"):
                with trace.span("leaf"):
                    pass
            with trace.span("inner-2"):
                pass
        outer = by_name(collector, "outer")
        inner1 = by_name(collector, "inner-1")
        inner2 = by_name(collector, "inner-2")
        leaf = by_name(collector, "leaf")
        assert outer.parent is None and outer.depth == 0
        assert inner1.parent == outer.index and inner1.depth == 1
        assert inner2.parent == outer.index and inner2.depth == 1
        assert leaf.parent == inner1.index and leaf.depth == 2
        # Open order: outer < inner-1 < leaf < inner-2.
        assert outer.index < inner1.index < leaf.index < inner2.index

    def test_records_appear_in_close_order(self):
        collector = trace.install()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        names = [record.name for record in collector.records()]
        assert names == ["inner", "outer"]

    def test_child_wall_time_within_parent(self):
        collector = trace.install()
        with trace.span("outer"):
            with trace.span("inner"):
                sum(range(10_000))
        outer = by_name(collector, "outer")
        inner = by_name(collector, "inner")
        assert 0 <= inner.wall_s <= outer.wall_s

    def test_attrs_are_recorded(self):
        collector = trace.install()
        with trace.span("solve", objective="mla", n_users=7):
            pass
        record = by_name(collector, "solve")
        assert record.attrs == {"objective": "mla", "n_users": 7}


class TestExceptionSafety:
    def test_span_closed_on_raise_with_error_status(self):
        collector = trace.install()
        with pytest.raises(RuntimeError, match="boom"):
            with trace.span("doomed"):
                raise RuntimeError("boom")
        record = by_name(collector, "doomed")
        assert record.status == "error"

    def test_stack_unwinds_after_raise(self):
        collector = trace.install()
        with pytest.raises(ValueError):
            with trace.span("outer"):
                with trace.span("inner"):
                    raise ValueError()
        # Both spans closed, inner first; new spans open at the root again.
        assert [r.name for r in collector.records()] == ["inner", "outer"]
        with trace.span("after"):
            pass
        assert by_name(collector, "after").depth == 0
        assert by_name(collector, "after").parent is None

    def test_timed_reports_duration_despite_raise(self):
        timer = trace.timed("t")
        with pytest.raises(KeyError):
            with timer:
                raise KeyError("x")
        assert timer.wall_s >= 0.0


class TestDisabled:
    def test_span_is_shared_noop_singleton(self):
        assert trace.span("a") is trace.span("b")
        with trace.span("a"):
            with trace.span("b"):
                pass  # nesting the singleton is fine

    def test_nothing_recorded_without_collector(self):
        assert not trace.enabled()
        with trace.span("invisible"):
            pass
        collector = trace.install()
        assert len(collector) == 0

    def test_timed_measures_without_collector(self):
        with trace.timed("t") as timer:
            sum(range(1000))
        assert timer.wall_s > 0.0
        assert timer.record is None

    def test_timed_matches_recorded_span_when_enabled(self):
        collector = trace.install()
        with trace.timed("t") as timer:
            sum(range(1000))
        record = by_name(collector, "t")
        assert timer.record is record
        assert timer.wall_s == record.wall_s
        assert timer.cpu_s == record.cpu_s


class TestThreadSafety:
    N_THREADS = 8
    SPANS_PER_THREAD = 50

    def test_concurrent_nested_spans(self):
        collector = trace.install()

        def work(tid: int) -> None:
            for i in range(self.SPANS_PER_THREAD):
                with trace.span("parent", tid=tid, i=i):
                    with trace.span("child", tid=tid, i=i):
                        pass

        with ThreadPoolExecutor(max_workers=self.N_THREADS) as pool:
            list(pool.map(work, range(self.N_THREADS)))

        records = collector.records()
        assert len(records) == self.N_THREADS * self.SPANS_PER_THREAD * 2
        indices = [record.index for record in records]
        assert len(set(indices)) == len(indices), "span indices must be unique"
        parents = {record.index: record for record in records}
        for child in records:
            if child.name != "child":
                continue
            parent = parents[child.parent]
            # Nesting is per-thread: the child's parent is the same
            # thread's enclosing span, with matching attributes.
            assert parent.name == "parent"
            assert parent.thread == child.thread
            assert parent.attrs == child.attrs


class TestJsonRoundTrip:
    def test_export_import_preserves_everything(self):
        collector = trace.install()
        with trace.span("outer", kind="test"):
            with trace.span("inner"):
                pass
        with pytest.raises(RuntimeError):
            with trace.span("failed"):
                raise RuntimeError()
        blob = collector.export()
        rehydrated = trace.TraceCollector.from_export(
            json.loads(json.dumps(blob))
        )
        assert rehydrated.export() == blob
        assert [r.name for r in rehydrated.records()] == [
            "inner",
            "outer",
            "failed",
        ]

    def test_from_export_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            trace.TraceCollector.from_export(
                {"kind": "something-else", "version": 1}
            )
        with pytest.raises(ValueError):
            trace.TraceCollector.from_export({"kind": "repro-trace", "version": 2})
