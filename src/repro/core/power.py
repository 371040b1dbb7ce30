"""Adaptive transmit-power control (paper Section 8, future work).

The paper's model fixes one transmit power; Section 8 proposes letting APs
choose from a finite set of discrete power levels. We model a power level as
a range-scaling factor applied to the rate ladder (transmitting louder makes
every modulation reach proportionally farther, per the log-distance model's
scale invariance): at level ``p`` with factor ``f_p``, a user at distance
``d`` decodes the rates a default-power user at distance ``d / f_p`` would.

``expand_with_power_levels`` lifts a geometric deployment into a *power-
extended* problem: each (AP, power level) becomes a virtual AP whose link
rates reflect that level, and whose budget is shared with its siblings —
approximated conservatively by giving each virtual AP the physical budget
and validating the merged physical loads afterwards. All existing solvers
then work unchanged; :func:`project_power_assignment` maps a virtual
assignment back to (physical AP, chosen power) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.assignment import Assignment
from repro.core.errors import ModelError
from repro.core.problem import MulticastAssociationProblem, Session
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel


@dataclass(frozen=True)
class PowerLevel:
    """A discrete power setting and its range-scaling factor."""

    name: str
    range_factor: float

    def __post_init__(self) -> None:
        if self.range_factor <= 0:
            raise ModelError("range factor must be positive")


DEFAULT_LEVELS = (
    PowerLevel("low", 0.7),
    PowerLevel("nominal", 1.0),
    PowerLevel("high", 1.3),
)


@dataclass(frozen=True)
class PowerExtendedProblem:
    """A problem whose APs are (physical AP, power level) pairs."""

    problem: MulticastAssociationProblem
    n_physical_aps: int
    levels: tuple[PowerLevel, ...]

    def physical_ap(self, virtual_ap: int) -> int:
        return virtual_ap // len(self.levels)

    def level_of(self, virtual_ap: int) -> PowerLevel:
        return self.levels[virtual_ap % len(self.levels)]


def scaled_link_rate(
    model: PropagationModel, ap: Point, user: Point, factor: float
) -> float | None:
    """Link rate when the AP's range is scaled by ``factor``.

    Equivalent to evaluating the unscaled model at distance ``d / factor``.
    """
    # Exact for isotropic models: evaluate the unscaled model along the
    # x-axis at the scaled distance.
    distance = ap.distance_to(user)
    origin = Point(0.0, 0.0)
    probe = Point(distance / factor, 0.0)
    return model.link_rate(origin, probe)


def expand_with_power_levels(
    ap_positions: Sequence[Point],
    user_positions: Sequence[Point],
    model: PropagationModel,
    sessions: Sequence[Session],
    user_sessions: Sequence[int],
    *,
    levels: Sequence[PowerLevel] = DEFAULT_LEVELS,
    budgets: float = math.inf,
) -> PowerExtendedProblem:
    """Build the power-extended instance over virtual (AP, level) pairs."""
    if not levels:
        raise ModelError("need at least one power level")
    n_virtual = len(ap_positions) * len(levels)
    rates = np.zeros((n_virtual, len(user_positions)))
    for a, ap in enumerate(ap_positions):
        for li, level in enumerate(levels):
            row = a * len(levels) + li
            for u, user in enumerate(user_positions):
                rate = scaled_link_rate(model, ap, user, level.range_factor)
                if rate is not None:
                    rates[row, u] = rate
    problem = MulticastAssociationProblem(
        rates, user_sessions, sessions, budgets
    )
    return PowerExtendedProblem(
        problem=problem,
        n_physical_aps=len(ap_positions),
        levels=tuple(levels),
    )


@dataclass(frozen=True)
class PowerAssignment:
    """Physical view of a virtual assignment: AP and power per user."""

    ap_of_user: tuple[int | None, ...]
    level_of_user: tuple[PowerLevel | None, ...]
    physical_loads: tuple[float, ...]

    @property
    def total_load(self) -> float:
        return sum(self.physical_loads)

    @property
    def max_load(self) -> float:
        return max(self.physical_loads, default=0.0)


def project_power_assignment(
    extended: PowerExtendedProblem, assignment: Assignment
) -> PowerAssignment:
    """Collapse virtual (AP, level) loads back onto physical APs.

    A physical AP's load is the sum of its virtual siblings' loads — each
    (session, level) pair is a separate transmission, so no min-rate merge
    across levels applies.
    """
    n_phys = extended.n_physical_aps
    # One read of the priced load vector; collapsing the (AP, level) axis
    # is a reshape + per-row fsum, rounded like every other load sum.
    virtual_loads = assignment.load_array().reshape(
        n_phys, len(extended.levels)
    )
    loads = [math.fsum(row.tolist()) for row in virtual_loads]
    ap_of_user: list[int | None] = []
    level_of_user: list[PowerLevel | None] = []
    for user in range(extended.problem.n_users):
        virtual = assignment.ap_of(user)
        if virtual is None:
            ap_of_user.append(None)
            level_of_user.append(None)
        else:
            ap_of_user.append(extended.physical_ap(virtual))
            level_of_user.append(extended.level_of(virtual))
    return PowerAssignment(
        ap_of_user=tuple(ap_of_user),
        level_of_user=tuple(level_of_user),
        physical_loads=tuple(loads),
    )
