"""Zero-dependency observability: solver tracing, counters and benching.

The package has three layers, all off by default and all behavior-neutral
(``tests/obs/test_noop_equivalence.py`` proves enabling them changes no
assignment):

* :mod:`repro.obs.trace` — nestable spans (``span("mcg.greedy")``) with
  wall/CPU time, a thread-safe collector, JSON export.
* :mod:`repro.obs.counters` — named counters/gauges/histograms (greedy
  rounds, B* probes, cache hits/misses, per-solver load gauges).
* :mod:`repro.obs.bench` — the pinned benchmark suite behind
  ``python -m repro bench``, emitting ``BENCH_obs.json`` and gating
  regressions against a committed baseline.

Usage::

    from repro import obs

    with obs.collecting() as session:
        solve_mla(problem)
    print(session.metrics.counters()["mcg.rounds"])
    print(session.trace.spans("mla.solve")[0].wall_s)

:func:`collecting` saves and restores whatever was installed before, so
sessions nest safely (the innermost wins, as with any scoped override).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs import counters, trace
from repro.obs.counters import (
    MetricsRegistry,
    gauge,
    incr,
    observe,
    percentile,
)
from repro.obs.trace import SpanRecord, TraceCollector, span, timed

__all__ = [
    "MetricsRegistry",
    "ObsSession",
    "SpanRecord",
    "TraceCollector",
    "collecting",
    "counters",
    "enabled",
    "gauge",
    "incr",
    "install",
    "observe",
    "percentile",
    "span",
    "timed",
    "trace",
    "uninstall",
]


@dataclass(frozen=True)
class ObsSession:
    """One installed collector/registry pair."""

    trace: TraceCollector
    metrics: MetricsRegistry


def enabled() -> bool:
    """True when tracing or metrics (or both) are installed."""
    return trace.enabled() or counters.enabled()


def install() -> ObsSession:
    """Install a fresh collector and registry; returns the pair."""
    return ObsSession(trace=trace.install(), metrics=counters.install())


def uninstall() -> None:
    """Disable both tracing and metrics."""
    trace.uninstall()
    counters.uninstall()


@contextmanager
def collecting() -> Iterator[ObsSession]:
    """Scoped observability: fresh collector + registry, restored on exit."""
    previous_trace = trace.active()
    previous_metrics = counters.active()
    session = install()
    try:
        yield session
    finally:
        trace._set_active(previous_trace)
        counters._set_active(previous_metrics)
