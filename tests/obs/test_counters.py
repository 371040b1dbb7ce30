"""Counters, gauges and histograms: semantics, threads, merge, no-op."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import counters


@pytest.fixture(autouse=True)
def _clean_switch():
    counters.uninstall()
    yield
    counters.uninstall()


class TestBasics:
    def test_counters_accumulate(self):
        registry = counters.install()
        counters.incr("rounds")
        counters.incr("rounds", 4)
        assert registry.counter("rounds") == 5
        assert registry.counter("never-touched") == 0
        assert registry.counters() == {"rounds": 5}

    def test_gauges_last_write_wins(self):
        registry = counters.install()
        counters.gauge("load", 0.25)
        counters.gauge("load", 0.75)
        assert registry.gauges() == {"load": 0.75}

    def test_histogram_percentiles_nearest_rank(self):
        registry = counters.install()
        for value in range(1, 101):  # 1..100
            counters.observe("latency", float(value))
        summary = registry.histogram("latency")
        assert summary["count"] == 100
        assert summary["sum"] == pytest.approx(5050.0)
        assert summary["min"] == 1.0 and summary["max"] == 100.0
        assert summary["p50"] == 50.0
        assert summary["p95"] == 95.0

    def test_histogram_unknown_name_raises(self):
        registry = counters.install()
        with pytest.raises(KeyError):
            registry.histogram("nope")

    def test_percentile_edge_cases(self):
        assert counters.percentile([7.0], 50) == 7.0
        assert counters.percentile([1.0, 2.0], 0) == 1.0
        assert counters.percentile([1.0, 2.0], 100) == 2.0
        with pytest.raises(ValueError):
            counters.percentile([], 50)
        with pytest.raises(ValueError):
            counters.percentile([1.0], 120)

    def test_reset_drops_everything(self):
        registry = counters.install()
        counters.incr("a")
        counters.gauge("b", 1.0)
        counters.observe("c", 2.0)
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestDisabled:
    def test_helpers_are_noops_without_registry(self):
        assert not counters.enabled()
        counters.incr("a")
        counters.gauge("b", 1.0)
        counters.observe("c", 2.0)
        registry = counters.install()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestThreadSafety:
    def test_concurrent_increments_are_exact(self):
        registry = counters.install()
        per_thread = 10_000
        n_threads = 8

        def work(tid: int) -> None:
            for _ in range(per_thread):
                counters.incr("hits")
            counters.observe("per-thread", float(tid))

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(work, range(n_threads)))
        assert registry.counter("hits") == per_thread * n_threads
        assert registry.histogram("per-thread")["count"] == n_threads


class TestMergeAndExport:
    def test_snapshot_is_json_able(self):
        registry = counters.install()
        counters.incr("a")
        counters.gauge("b", 0.5)
        counters.observe("c", 1.5)
        round_tripped = json.loads(json.dumps(registry.snapshot()))
        assert round_tripped["counters"] == {"a": 1}
        assert round_tripped["gauges"] == {"b": 0.5}
        assert round_tripped["histograms"]["c"]["count"] == 1
