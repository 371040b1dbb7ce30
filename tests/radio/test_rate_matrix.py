"""``PropagationModel.rate_matrix`` against the scalar ``link_rate`` reference.

The bulk threshold kernel compares squared distances and recounts, with
``math.hypot``, only the pairs whose squared distance lies in a narrow band
around a squared threshold. These tests place pairs exactly on every
threshold and one or two ulps either side of it, where ``np.hypot`` and
squared comparisons disagree with ``math.hypot``, and demand byte equality
with the per-pair reference everywhere.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.radio import propagation
from repro.radio.geometry import Point
from repro.radio.propagation import (
    LogDistancePropagation,
    PropagationModel,
    ThresholdPropagation,
)
from repro.radio.rates import (
    RateStep,
    RateTable,
    dot11a_table,
    dot11b_table,
    dot11g_table,
)

TIED_TABLE = RateTable(
    [RateStep(6, 200), RateStep(12, 120), RateStep(18, 120), RateStep(24, 50)]
)

TABLES = {
    "11a": dot11a_table(),
    "11b": dot11b_table(),
    "11g": dot11g_table(),
    "tied-reach": TIED_TABLE,
    "11a-scaled": dot11a_table().scaled_reach(0.7),
    "11a-third": dot11a_table().scaled_reach(1.0 / 3.0),
}


def reference(model: PropagationModel, ap_xy, user_xy) -> np.ndarray:
    """The matrix built pair by pair from ``link_rate``."""
    rates = np.zeros((len(ap_xy), len(user_xy)))
    for a, (ax, ay) in enumerate(np.asarray(ap_xy, dtype=float).tolist()):
        for u, (ux, uy) in enumerate(np.asarray(user_xy, dtype=float).tolist()):
            rate = model.link_rate(Point(ax, ay), Point(ux, uy))
            if rate is not None:
                rates[a, u] = rate
    return rates


def assert_identical(model, ap_xy, user_xy):
    bulk = model.rate_matrix(ap_xy, user_xy)
    expected = reference(model, ap_xy, user_xy)
    assert bulk.dtype == np.float64
    assert bulk.shape == expected.shape
    assert bulk.tobytes() == expected.tobytes()


def ulp_steps(value: float, steps: int = 2) -> list[float]:
    """``value`` and its ``steps`` float neighbours on either side."""
    out = [value]
    up = down = value
    for _ in range(steps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


def threshold_users(table: RateTable, ap: tuple[float, float]) -> np.ndarray:
    """Users on, and 1-2 ulps off, every threshold around ``ap``.

    Axis-aligned offsets put the distance exactly on the threshold;
    diagonal ones (with either coordinate nudged) make squaring and
    summing round, which is where bulk and scalar distances part.
    """
    ax, ay = ap
    users: list[tuple[float, float]] = []
    for step in table:
        reach = step.max_distance_m
        for angle in (0.0, 0.3, math.pi / 4, 1.1, 2.0, 3.5, 5.9):
            dx, dy = reach * math.cos(angle), reach * math.sin(angle)
            for nx in ulp_steps(ax + dx):
                users.append((nx, ay + dy))
            for ny in ulp_steps(ay + dy):
                users.append((ax + dx, ny))
        for off in ulp_steps(reach):
            users.append((ax + off, ay))
            users.append((ax, ay - off))
    return np.array(users)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_threshold_edges_match_link_rate(name):
    model = ThresholdPropagation(TABLES[name])
    aps = [(0.0, 0.0), (123.456, -78.9), (1e3 / 3.0, 2e3 / 7.0)]
    users = np.concatenate([threshold_users(model.table, ap) for ap in aps])
    assert_identical(model, np.array(aps), users)


def test_threshold_edges_reach_the_exact_recount():
    # Guard against a kernel that silently skips the recount: on these
    # pairs the squared comparison alone disagrees with ``math.hypot``.
    table = dot11a_table()
    ap = (123.456, -78.9)
    users = threshold_users(table, ap)
    dx = ap[0] - users[:, 0]
    dy = ap[1] - users[:, 1]
    reach = np.array(sorted(s.max_distance_m for s in table))
    squared = (dx * dx + dy * dy)[:, None] > reach * reach
    exact = np.array([math.hypot(x, y) for x, y in zip(dx, dy, strict=True)])
    assert (squared != (exact[:, None] > reach)).any()
    assert_identical(ThresholdPropagation(table), np.array([ap]), users)


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_layouts_match_link_rate(name, seed):
    rng = np.random.default_rng(seed)
    ap_xy = rng.uniform(-50.0, 650.0, size=(13, 2))
    user_xy = rng.uniform(-50.0, 650.0, size=(211, 2))
    assert_identical(ThresholdPropagation(TABLES[name]), ap_xy, user_xy)


def test_integer_grid_layout_matches_link_rate():
    # Integer coordinates put many pairs exactly on the 11a thresholds
    # (e.g. the 3-4-5 multiples 35-...-200 m away).
    side = np.arange(0.0, 260.0, 5.0)
    grid = np.array([(x, y) for x in side for y in side])
    ap_xy = np.array([(0.0, 0.0), (125.0, 125.0)])
    assert_identical(ThresholdPropagation(), ap_xy, grid)


def test_blocked_build_matches_unblocked(monkeypatch):
    rng = np.random.default_rng(7)
    # The last AP sits where the threshold users are placed, so recounted
    # pairs fall in a later block than the first.
    ap_xy = np.concatenate([rng.uniform(0.0, 500.0, size=(9, 2)), [(0.0, 0.0)]])
    edge_users = threshold_users(dot11a_table(), (0.0, 0.0))
    user_xy = np.concatenate([rng.uniform(0.0, 500.0, size=(40, 2)), edge_users])
    model = ThresholdPropagation()
    whole = model.rate_matrix(ap_xy, user_xy)
    monkeypatch.setattr(propagation, "_BLOCK_PAIRS", 7)  # one AP row per block
    assert model.rate_matrix(ap_xy, user_xy).tobytes() == whole.tobytes()
    assert_identical(model, ap_xy, user_xy)


@pytest.mark.parametrize(
    "model",
    [
        ThresholdPropagation(),
        LogDistancePropagation(shadowing_sigma_db=4.0, seed=3),
    ],
    ids=["threshold", "log-distance"],
)
def test_empty_sides(model):
    some = np.array([(0.0, 0.0), (50.0, 10.0)])
    none = np.zeros((0, 2))
    assert model.rate_matrix(none, some).shape == (0, 2)
    assert model.rate_matrix(some, none).shape == (2, 0)
    assert model.rate_matrix(none, none).shape == (0, 0)


@pytest.mark.parametrize("sigma", [0.0, 4.0])
def test_log_distance_default_path_matches_link_rate(sigma):
    model = LogDistancePropagation(shadowing_sigma_db=sigma, seed=11)
    rng = np.random.default_rng(5)
    ap_xy = rng.uniform(0.0, 400.0, size=(6, 2))
    edge_users = threshold_users(model.rate_table, (0.0, 0.0))
    user_xy = np.concatenate([rng.uniform(0.0, 400.0, size=(60, 2)), edge_users])
    assert_identical(model, ap_xy, user_xy)


def test_accepts_point_coordinate_lists():
    model = ThresholdPropagation()
    bulk = model.rate_matrix([[0, 0]], [[30, 0], [36, 0], [201, 0]])
    assert bulk.tolist() == [[54.0, 48.0, 0.0]]
