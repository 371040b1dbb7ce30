"""Planar geometry primitives for WLAN deployments.

All coordinates are in meters on a flat 2-D plane, which matches the paper's
simulation setup (uniform random placement over a rectangular area with a
fixed radio propagation range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the plane, in meters."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in meters."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def clamped(self, area: "Area") -> "Point":
        """Return the nearest point inside ``area``."""
        return Point(
            min(max(self.x, area.x_min), area.x_max),
            min(max(self.y, area.y_min), area.y_max),
        )

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True, slots=True)
class Area:
    """An axis-aligned rectangle ``[x_min, x_max] x [y_min, y_max]``."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(f"degenerate area: {self}")

    @classmethod
    def square(cls, side: float) -> "Area":
        """A ``side x side`` square anchored at the origin."""
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        return cls(0.0, 0.0, side, side)

    @classmethod
    def of_square_km(cls, square_km: float) -> "Area":
        """A square with the given surface in km^2.

        The paper simulates "a 1.2 km^2 area"; this helper converts that
        surface into the side length of an equivalent square.
        """
        if square_km <= 0:
            raise ValueError(f"area must be positive, got {square_km}")
        side = math.sqrt(square_km * 1_000_000.0)
        return cls.square(side)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def surface(self) -> float:
        """Surface in square meters."""
        return self.width * self.height

    def contains(self, point: Point) -> bool:
        return (
            self.x_min <= point.x <= self.x_max
            and self.y_min <= point.y <= self.y_max
        )

    def center(self) -> Point:
        return Point((self.x_min + self.x_max) / 2, (self.y_min + self.y_max) / 2)


def xy_array(points: Sequence[Point]) -> np.ndarray:
    """The ``(n, 2)`` float array of ``points``' coordinates, in order."""
    return np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)


class NeighborIndex:
    """Uniform-grid spatial index answering range queries in ~O(1).

    The simulator repeatedly asks "which APs are within radio range of this
    user" — a grid bucketed at the query radius keeps those queries cheap
    even for the paper's largest deployments (200 APs, 400 users).
    """

    def __init__(self, points: Sequence[Point], cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._points = list(points)
        self._cell_size = cell_size
        self._cells: dict[tuple[int, int], list[int]] = {}
        for index, point in enumerate(self._points):
            self._cells.setdefault(self._cell_of(point), []).append(index)

    def _cell_of(self, point: Point) -> tuple[int, int]:
        return (
            int(math.floor(point.x / self._cell_size)),
            int(math.floor(point.y / self._cell_size)),
        )

    def __len__(self) -> int:
        return len(self._points)

    def within(self, center: Point, radius: float) -> list[int]:
        """Indices of points within ``radius`` of ``center`` (inclusive)."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        # One guard ring beyond the ceiling: the inclusive <= below is
        # evaluated in floats, so a point whose geometric distance is a
        # hair over `radius` can still round to <= radius while sitting
        # one cell outside the exact-radius square.
        reach = int(math.ceil(radius / self._cell_size)) + 1
        cx, cy = self._cell_of(center)
        hits: list[int] = []
        for gx in range(cx - reach, cx + reach + 1):
            for gy in range(cy - reach, cy + reach + 1):
                for index in self._cells.get((gx, gy), ()):
                    if self._points[index].distance_to(center) <= radius:
                        hits.append(index)
        return hits

    def nearest(self, center: Point) -> int | None:
        """Index of the closest point, or ``None`` if the index is empty."""
        best_index: int | None = None
        best_distance = math.inf
        for index, point in enumerate(self._points):
            distance = point.distance_to(center)
            if distance < best_distance:
                best_distance = distance
                best_index = index
        return best_index


def iter_grid_positions(area: Area, rows: int, cols: int) -> Iterator[Point]:
    """Yield ``rows x cols`` points forming a centered regular grid.

    Useful for planned (non-random) AP deployments in examples and tests.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    dx = area.width / cols
    dy = area.height / rows
    for row in range(rows):
        for col in range(cols):
            yield Point(
                area.x_min + (col + 0.5) * dx,
                area.y_min + (row + 0.5) * dy,
            )


def bounding_area(points: Iterable[Point], margin: float = 0.0) -> Area:
    """Smallest axis-aligned area containing ``points``, grown by ``margin``."""
    pts = list(points)
    if not pts:
        raise ValueError("cannot bound an empty point set")
    return Area(
        min(p.x for p in pts) - margin,
        min(p.y for p in pts) - margin,
        max(p.x for p in pts) + margin,
        max(p.y for p in pts) + margin,
    )
