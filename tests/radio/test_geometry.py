"""Unit and property tests for planar geometry primitives."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.radio.geometry import (
    Area,
    NeighborIndex,
    Point,
    bounding_area,
    iter_grid_positions,
    xy_array,
)

coords = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coords, coords)

class TestPoint:
    def test_distance_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_distance_to_self_is_zero(self):
        p = Point(2.5, -7.1)
        assert p.distance_to(p) == 0.0

    @given(points, points)
    def test_distance_symmetric(self, a, b):
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    def test_translated(self):
        assert Point(1, 2).translated(3, -1) == Point(4, 1)

    def test_clamped_inside_is_identity(self):
        area = Area.square(10)
        assert Point(3, 4).clamped(area) == Point(3, 4)

    def test_clamped_outside(self):
        area = Area.square(10)
        assert Point(-5, 20).clamped(area) == Point(0, 10)

    def test_as_tuple(self):
        assert Point(1.5, 2.5).as_tuple() == (1.5, 2.5)


class TestArea:
    def test_square(self):
        area = Area.square(100)
        assert area.width == 100
        assert area.height == 100
        assert area.surface == 10_000

    def test_square_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Area.square(0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Area(0, 0, -1, 5)

    def test_of_square_km_surface(self):
        area = Area.of_square_km(1.2)
        assert area.surface == pytest.approx(1.2e6)

    def test_of_square_km_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Area.of_square_km(-1)

    def test_contains_boundary(self):
        area = Area.square(5)
        assert area.contains(Point(0, 0))
        assert area.contains(Point(5, 5))
        assert not area.contains(Point(5.001, 5))

    def test_center(self):
        assert Area(0, 0, 10, 4).center() == Point(5, 2)


class TestNeighborIndex:
    def test_within_matches_bruteforce(self):
        pts = [Point(x * 7.3 % 50, x * 13.7 % 50) for x in range(40)]
        index = NeighborIndex(pts, cell_size=10)
        center = Point(25, 25)
        for radius in (0, 5, 12, 60):
            expected = sorted(
                i for i, p in enumerate(pts) if p.distance_to(center) <= radius
            )
            assert sorted(index.within(center, radius)) == expected

    @given(
        st.lists(points, min_size=1, max_size=30),
        points,
        st.floats(min_value=0, max_value=5000),
    )
    def test_within_property(self, pts, center, radius):
        index = NeighborIndex(pts, cell_size=100)
        got = sorted(index.within(center, radius))
        expected = sorted(
            i for i, p in enumerate(pts) if p.distance_to(center) <= radius
        )
        assert got == expected

    def test_nearest(self):
        pts = [Point(0, 0), Point(10, 0), Point(3, 0)]
        index = NeighborIndex(pts, cell_size=5)
        assert index.nearest(Point(2, 0)) == 2

    def test_nearest_empty(self):
        assert NeighborIndex([], cell_size=5).nearest(Point(0, 0)) is None

    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            NeighborIndex([], cell_size=0)

    def test_rejects_negative_radius(self):
        index = NeighborIndex([Point(0, 0)], cell_size=5)
        with pytest.raises(ValueError):
            index.within(Point(0, 0), -1)

    def test_len(self):
        assert len(NeighborIndex([Point(0, 0)] * 3, cell_size=1)) == 3


class TestHelpers:
    def test_xy_array(self):
        xy = xy_array([Point(0, 0), Point(3.5, -4)])
        assert xy.dtype == float and xy.tolist() == [[0.0, 0.0], [3.5, -4.0]]
        assert xy_array([]).shape == (0, 2)

    def test_grid_positions_count_and_containment(self):
        area = Area.square(100)
        pts = list(iter_grid_positions(area, rows=3, cols=4))
        assert len(pts) == 12
        assert all(area.contains(p) for p in pts)

    def test_grid_positions_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(iter_grid_positions(Area.square(1), rows=0, cols=2))

    def test_bounding_area(self):
        area = bounding_area([Point(1, 2), Point(5, -3)], margin=1)
        assert (area.x_min, area.y_min, area.x_max, area.y_max) == (0, -4, 6, 3)

    def test_bounding_area_empty_rejected(self):
        with pytest.raises(ValueError):
            bounding_area([])
