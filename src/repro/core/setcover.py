"""Weighted greedy set cover — the paper's ``CostSC`` (Fig. 8).

Repeatedly picks the set maximizing newly-covered-elements per unit cost
until the ground set is covered; an ``(ln n + 1)``-approximation (Theorem 6,
via Vazirani). Used directly by Centralized MLA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.candidates import CandidateFamily, CandidateSet
from repro.core.errors import CoverageError
from repro.vec import backend


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

    ``ground`` is the element universe as a numpy bool mask, or ``None``
    for all users. Returns the selected candidate indices in greedy order
    plus the summed cost (accumulated in the same order, so the float is
    identical to the scalar reference's). Raises :class:`CoverageError`
    with the same sorted missing-user list.
    """
    n = family.n_candidates
    offsets = backend.as_int64(family.offsets)
    members = backend.as_int64(family.members)
    costs = backend.as_float64(family.cost)
    inc_off_raw, inc_cand_raw = family.incidence()
    inc_off = backend.as_int64(inc_off_raw)
    inc_cand = backend.as_int64(inc_cand_raw)

    remaining = (
        np.ones(family.n_users, dtype=bool)
        if ground is None
        else np.array(ground, dtype=bool)
    )
    coverable = np.zeros(family.n_users, dtype=bool)
    if members.size:
        coverable[members] = True
    missing = remaining & ~coverable
    if missing.any():
        raise CoverageError([int(u) for u in np.nonzero(missing)[0]])

    remaining_count = int(remaining.sum())
    counts = backend.segment_counts(offsets, members, remaining)
    eff = (
        np.where(counts > 0, counts / costs, -np.inf)
        if n
        else np.empty(0, dtype=np.float64)
    )
    selected: list[int] = []
    total_cost = 0.0
    # Per-pick scalars come from the stdlib columns: indexing them is
    # cheaper than boxing numpy scalars, and the values are the same.
    bounds, cost_of = family.offsets, family.cost
    while remaining_count:
        k = backend.first_argmax(eff) if eff.size else -1
        if k < 0 or not eff[k] > 0.0:  # unreachable given the check above
            raise CoverageError([int(u) for u in np.nonzero(remaining)[0]])
        selected.append(k)
        total_cost += cost_of[k]
        eff[k] = -np.inf
        m = members[bounds[k] : bounds[k + 1]]
        new = m[remaining[m]]
        if new.size:
            remaining[new] = False
            remaining_count -= int(new.size)
            touched = backend.gather_segments(inc_off, inc_cand, new)
            backend.subtract_at(counts, touched)
            left = counts[touched]
            keep = (left > 0) & (eff[touched] > -np.inf)
            eff[touched] = np.where(keep, left / costs[touched], -np.inf)
    return selected, total_cost
