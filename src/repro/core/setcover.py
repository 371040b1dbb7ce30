"""Weighted greedy set cover — the paper's ``CostSC`` (Fig. 8).

Repeatedly picks the set maximizing newly-covered-elements per unit cost
until the ground set is covered; an ``(ln n + 1)``-approximation (Theorem 6,
via Vazirani). Used directly by Centralized MLA.

:func:`greedy_set_cover` is the scalar reference. The production
:func:`greedy_set_cover_flat` has no loop of its own: it is the no-groups
call of the one flat greedy, :func:`repro.core.mcg.greedy_flat`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.candidates import CandidateFamily, CandidateSet
from repro.core.errors import CoverageError
from repro.core.mcg import greedy_flat


@dataclass(frozen=True)
class SetCoverResult:
    """Selected sets in greedy order and their summed (planned) cost."""

    selected: tuple[CandidateSet, ...]
    total_cost: float


def greedy_set_cover(
    candidates: Sequence[CandidateSet], ground: set[int]
) -> SetCoverResult:
    """Run ``CostSC``; raise :class:`CoverageError` if X is not coverable."""
    coverable: set[int] = set()
    for candidate in candidates:
        coverable |= candidate.users
    missing = ground - coverable
    if missing:
        raise CoverageError(sorted(missing))

    uncovered_count = [len(c.users & ground) for c in candidates]
    incidence: dict[int, list[int]] = {}
    for k, candidate in enumerate(candidates):
        for user in candidate.users:
            if user in ground:
                incidence.setdefault(user, []).append(k)

    remaining = set(ground)
    selected: list[CandidateSet] = []
    chosen_indices: set[int] = set()
    total_cost = 0.0
    while remaining:
        best_index = -1
        best_effectiveness = 0.0
        for k, candidate in enumerate(candidates):
            if k in chosen_indices or uncovered_count[k] == 0:
                continue
            effectiveness = uncovered_count[k] / candidate.cost
            if effectiveness > best_effectiveness:
                best_effectiveness = effectiveness
                best_index = k
        if best_index < 0:  # unreachable given the coverability check above
            raise CoverageError(sorted(remaining))
        candidate = candidates[best_index]
        selected.append(candidate)
        chosen_indices.add(best_index)
        total_cost += candidate.cost
        for user in candidate.users & remaining:
            for k in incidence.get(user, ()):
                uncovered_count[k] -= 1
        remaining -= candidate.users
    return SetCoverResult(selected=tuple(selected), total_cost=total_cost)


# -- the flat (array-backed) twin --------------------------------------------


def greedy_set_cover_flat(
    family: CandidateFamily, ground: np.ndarray | None = None
) -> tuple[list[int], float]:
    """``CostSC`` on a flat family; bit-identical to :func:`greedy_set_cover`.

    The no-groups call of the one flat greedy,
    :func:`~repro.core.mcg.greedy_flat`. ``ground`` is the element
    universe as a numpy bool mask, or ``None`` for all users. Returns the
    selected candidate indices in greedy order plus the summed cost
    (accumulated in the same order, so the float is identical to the
    scalar reference's). With no groups the greedy stops short only on
    users no candidate covers, so the users it leaves are exactly the
    missing ones: it raises :class:`CoverageError` with the same sorted
    list as the reference.
    """
    selected, _, remaining, _ = greedy_flat(family, ground, None, None, None)
    if remaining.any():
        raise CoverageError(np.flatnonzero(remaining).tolist())
    total_cost = 0.0  # summed in pick order, as the reference does
    for k in selected:
        total_cost += family.cost[k]
    return selected, total_cost
