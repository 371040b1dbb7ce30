"""Large-scale grid deployments for the 100k-user scale benchmark.

The paper's random-uniform generator (:mod:`repro.scenarios.generator`)
places nodes one by one through :class:`random.Random`, which suits the
paper-sized instances (≤ 2000 users). This scale-bench companion draws in
numpy: APs on a square grid whose pitch lets each cell's AP cover the whole
cell, and users uniform within randomly chosen AP cells. Link rates are the
paper's, from ``ThresholdPropagation(dot11a_table()).rate_matrix``. Fully
deterministic in ``seed``.

The 180 m pitch keeps the farthest in-cell point at ``90·√2 ≈ 127 m``
from the cell's AP — inside the 200 m basic-rate range — so instances are
always coverable (no isolated users), which the BLA/MLA objectives need.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.problem import MulticastAssociationProblem
from repro.radio.propagation import ThresholdPropagation
from repro.radio.rates import dot11a_table
from repro.scenarios.sessions import uniform_catalog

#: AP grid pitch in meters (< 200·√2, so cells are fully covered).
GRID_PITCH_M = 180.0


def generate_largescale(
    *,
    n_users: int,
    n_aps: int,
    n_sessions: int = 8,
    seed: int = 0,
    stream_rate_mbps: float = 1.0,
    budget: float = 0.9,
) -> MulticastAssociationProblem:
    """A deterministic grid deployment at benchmark scale.

    APs fill a ``ceil(sqrt(n_aps))``-wide grid row by row; each user picks
    a uniformly random AP cell and a uniform position inside it, so every
    user is within basic-rate range of at least its own cell's AP. Link
    rates to *all* APs (neighbors included) follow the 802.11a ladder.
    """
    if n_aps <= 0 or n_users < 0:
        raise ValueError("need at least one AP and a non-negative user count")
    rng = np.random.default_rng(seed)
    side = math.ceil(math.sqrt(n_aps))
    cells = np.arange(n_aps, dtype=np.int64)
    ap_xy = np.column_stack(
        [
            (cells % side + 0.5) * GRID_PITCH_M,
            (cells // side + 0.5) * GRID_PITCH_M,
        ]
    )
    host = rng.integers(0, n_aps, size=n_users)
    offsets = rng.uniform(
        -GRID_PITCH_M / 2.0, GRID_PITCH_M / 2.0, size=(n_users, 2)
    )
    user_xy = ap_xy[host] + offsets
    rates = ThresholdPropagation(dot11a_table()).rate_matrix(ap_xy, user_xy)

    sessions = uniform_catalog(n_sessions, stream_rate_mbps)
    user_sessions = [int(s) for s in rng.integers(0, n_sessions, size=n_users)]
    return MulticastAssociationProblem(rates, user_sessions, sessions, budget)
