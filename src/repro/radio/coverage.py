"""Deployment coverage analysis.

Quantifies what a given AP layout offers before any user arrives: covered
area fraction, multi-coverage depth (how many APs overlap — the resource
association control exploits), and the achievable-rate field. Explains the
paper's Fig 9(b)/10(b) trends (denser APs => higher rates, more overlap)
and supports the planning examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.radio.geometry import Area, Point, xy_array
from repro.radio.propagation import PropagationModel


def _sample_rates(
    area: Area,
    ap_positions: Sequence[Point],
    model: PropagationModel,
    resolution: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``resolution x resolution`` sample grid, as ``(n, 2)``
    coordinates, and its ``(n_aps, n)`` rate matrix."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    steps = np.arange(resolution)
    xs = area.x_min + area.width * steps / (resolution - 1)
    ys = area.y_min + area.height * steps / (resolution - 1)
    samples = np.column_stack([np.repeat(xs, resolution), np.tile(ys, resolution)])
    return samples, model.rate_matrix(xy_array(ap_positions), samples)


@dataclass(frozen=True)
class CoverageReport:
    """Sampled coverage statistics for one deployment."""

    covered_fraction: float
    mean_coverage_depth: float
    depth_histogram: tuple[int, ...]
    mean_best_rate_mbps: float
    samples: int

    def depth_fraction(self, at_least: int) -> float:
        """Fraction of sampled points covered by >= ``at_least`` APs."""
        if at_least < 0:
            raise ValueError("coverage depth must be non-negative")
        covered = sum(
            count
            for depth, count in enumerate(self.depth_histogram)
            if depth >= at_least
        )
        return covered / self.samples if self.samples else 0.0


def analyze_coverage(
    area: Area,
    ap_positions: Sequence[Point],
    model: PropagationModel,
    *,
    resolution: int = 40,
) -> CoverageReport:
    """Sample ``resolution x resolution`` points and report coverage.

    ``mean_best_rate_mbps`` averages the best achievable link rate over
    *covered* points only (0 if nothing is covered).
    """
    samples, rates = _sample_rates(area, ap_positions, model, resolution)
    depths = np.count_nonzero(rates, axis=0)
    covered = depths > 0
    # Averaged by Python's left-to-right sum, not numpy's pairwise one.
    best_rates = rates.max(axis=0, initial=0.0)[covered].tolist()
    return CoverageReport(
        covered_fraction=int(covered.sum()) / len(samples),
        mean_coverage_depth=int(depths.sum()) / len(samples),
        depth_histogram=tuple(np.bincount(depths).tolist()),
        mean_best_rate_mbps=(
            sum(best_rates) / len(best_rates) if best_rates else 0.0
        ),
        samples=len(samples),
    )


def coverage_holes(
    area: Area,
    ap_positions: Sequence[Point],
    model: PropagationModel,
    *,
    resolution: int = 40,
) -> list[Point]:
    """Sampled points not covered by any AP (for planning diagnostics)."""
    samples, rates = _sample_rates(area, ap_positions, model, resolution)
    return [Point(x, y) for x, y in samples[~rates.any(axis=0)].tolist()]


def recommend_ap_count(
    area: Area,
    model: PropagationModel,
    *,
    target_depth: int = 2,
    utilization: float = 0.6,
) -> int:
    """Back-of-envelope AP count for a target mean coverage depth.

    Each AP covers ``pi * r^2`` (discounted by ``utilization`` for edge
    effects and obstacles); the mean depth over the area is roughly
    ``n * effective_footprint / area``. Association control needs depth
    >= 2 somewhere to have any freedom at all.
    """
    import math

    if target_depth < 1:
        raise ValueError("target depth must be >= 1")
    if not 0 < utilization <= 1:
        raise ValueError("utilization must be in (0, 1]")
    footprint = math.pi * model.max_range**2 * utilization
    return max(1, math.ceil(target_depth * area.surface / footprint))
