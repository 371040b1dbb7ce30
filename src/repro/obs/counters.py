"""Named counters, gauges and histograms behind a module-level switch.

Mirrors :mod:`repro.obs.trace`: a :class:`MetricsRegistry` must be
installed (:func:`install`) for the module-level :func:`incr`,
:func:`gauge` and :func:`observe` helpers to do anything — otherwise they
return immediately, which is what lets the solver hot paths carry
instrumentation at zero behavioral and near-zero runtime cost.

* **counters** accumulate (``incr``): greedy rounds, candidate scans,
  B* probes, cache hits/misses, protocol joins/leaves, ...
* **gauges** hold the last written value (``gauge``): per-solver load
  totals that the certificate tests cross-check against
  :func:`repro.verify.verify_assignment`.
* **histograms** collect observations (``observe``) with a bounded sample
  reservoir and report count/sum/min/max and nearest-rank p50/p95.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able dicts.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

#: Per-histogram reservoir cap; beyond it, count/sum/min/max stay exact
#: while percentiles are computed over the first ``CAP`` samples.
HISTOGRAM_SAMPLE_CAP = 4096


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (``p`` in [0, 100])."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class MetricsRegistry:
    """Thread-safe store of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._samples: dict[str, list[float]] = {}
        self._hist_count: dict[str, int] = {}
        self._hist_sum: dict[str, float] = {}
        self._hist_min: dict[str, float] = {}
        self._hist_max: dict[str, float] = {}

    # -- writing ---------------------------------------------------------

    def incr(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation."""
        with self._lock:
            samples = self._samples.setdefault(name, [])
            if len(samples) < HISTOGRAM_SAMPLE_CAP:
                samples.append(value)
            self._hist_count[name] = self._hist_count.get(name, 0) + 1
            self._hist_sum[name] = self._hist_sum.get(name, 0.0) + value
            self._hist_min[name] = min(self._hist_min.get(name, value), value)
            self._hist_max[name] = max(self._hist_max.get(name, value), value)

    def reset(self) -> None:
        """Drop every counter, gauge and histogram."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._samples.clear()
            self._hist_count.clear()
            self._hist_sum.clear()
            self._hist_min.clear()
            self._hist_max.clear()

    # -- reading ---------------------------------------------------------

    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def counter(self, name: str) -> float:
        """Counter value (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def histogram(self, name: str) -> dict[str, float]:
        """Summary dict for one histogram: count/sum/min/max/p50/p95."""
        with self._lock:
            return self._summary_locked(name)

    def _summary_locked(self, name: str) -> dict[str, float]:
        if name not in self._hist_count:
            raise KeyError(f"no observations for histogram {name!r}")
        samples = self._samples[name]
        return {
            "count": self._hist_count[name],
            "sum": self._hist_sum[name],
            "min": self._hist_min[name],
            "max": self._hist_max[name],
            "p50": percentile(samples, 50),
            "p95": percentile(samples, 95),
        }

    def snapshot(self) -> dict:
        """JSON-able summary of everything recorded so far."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: self._summary_locked(name) for name in self._hist_count
                },
            }


# -- module-level switch -----------------------------------------------------

_registry: MetricsRegistry | None = None


def install(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``registry`` (fresh when omitted) as the active registry."""
    global _registry
    if registry is None:
        registry = MetricsRegistry()
    _registry = registry
    return registry


def uninstall() -> MetricsRegistry | None:
    """Remove the active registry (returning it); helpers become no-ops."""
    global _registry
    previous = _registry
    _registry = None
    return previous


def _set_active(registry: MetricsRegistry | None) -> None:
    """Set the active registry directly (``None`` disables)."""
    global _registry
    _registry = registry


def active() -> MetricsRegistry | None:
    """The installed registry, or ``None`` when metrics are off."""
    return _registry


def enabled() -> bool:
    """True when a registry is installed (helpers actually record)."""
    return _registry is not None


def incr(name: str, amount: float = 1) -> None:
    """Increment a counter on the active registry; no-op when off."""
    registry = _registry
    if registry is not None:
        registry.incr(name, amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active registry; no-op when off."""
    registry = _registry
    if registry is not None:
        registry.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the active registry; no-op when off."""
    registry = _registry
    if registry is not None:
        registry.observe(name, value)
