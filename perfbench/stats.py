"""Latency summaries shared by every workload.

The tail rule follows the benchmark's contract: report the highest
percentile of a fixed ladder that still leaves at least
``MIN_BEYOND`` samples above it, and record which percentile that was
and how many samples it rests on.
"""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass
from typing import Sequence

#: Candidate tail percentiles, highest first.
TAIL_LADDER: tuple[float, ...] = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond the reported tail percentile.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], p: float) -> tuple[float, int]:
    """The nearest-rank ``p``-th percentile and the samples beyond it."""
    if not sorted_values:
        raise ValueError("no samples")
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1], n - rank


@dataclass(frozen=True)
class Tail:
    """The reported tail latency, with the percentile it was taken at."""

    value: float
    percentile: float
    n_samples: int
    n_beyond: int


def tail(values: Sequence[float]) -> Tail:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond.

    Too few samples for any rung falls back to the median, with the
    short count recorded in ``n_beyond``.
    """
    ordered = sorted(values)
    for p in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, p)
        if beyond >= MIN_BEYOND:
            return Tail(value, p, len(ordered), beyond)
    p = TAIL_LADDER[-1]
    value, beyond = nearest_rank(ordered, p)
    return Tail(value, p, len(ordered), beyond)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Phase:
    """Per-operation outcomes of one timed phase."""

    latencies_ms: list[float]
    wall_s: float
    failed: int

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def throughput_per_s(self) -> float:
        return self.attempted / self.wall_s
