"""Greedy Maximum Coverage with Group Budgets (paper Fig. 3, cost version).

The algorithm is Chekuri & Kumar's greedy for MCG, adapted as in the paper:
there is no overall budget (the wired backbone is not the bottleneck), only
per-group (per-AP) budgets. Each round, every group whose selected cost is
still strictly below its budget nominates its most cost-effective set
(covered-new-elements per unit cost); the best nominee overall is added.
A set may overshoot its group's budget — the paper then splits the selection
``H`` into ``H1`` (sets that stayed within budget when added) and ``H2``
(the overshooting sets, at most one per group) and outputs whichever covers
more elements, yielding the 8-approximation of Theorem 2.

:func:`greedy_mcg` is the scalar reference. Production runs
:func:`greedy_flat`, the one array-backed greedy loop: MCG calls it with
budgets and keeps only the H1/H2 split (:func:`greedy_mcg_flat`), and
``CostSC`` (:func:`repro.core.setcover.greedy_set_cover_flat`) is its
no-groups call. Its setup — the family's numpy views and incidence
tables — is built once per family by
:meth:`~repro.core.candidates.CandidateFamily.arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core import instrument
from repro.core.candidates import CandidateFamily, CandidateSet
from repro.core.ledger import CandidateGainIndex
from repro.vec import backend


@dataclass(frozen=True)
class McgResult:
    """Outcome of the greedy MCG run.

    ``selected`` is the raw greedy selection ``H`` in order; ``within_budget``
    and ``overshooting`` are the paper's ``H1``/``H2``; ``chosen`` is the
    larger-coverage of the two — the algorithm's actual output.
    """

    selected: tuple[CandidateSet, ...]
    within_budget: tuple[CandidateSet, ...]
    overshooting: tuple[CandidateSet, ...]
    chosen: tuple[CandidateSet, ...]
    covered: frozenset[int] = field(repr=False)

    @property
    def n_covered(self) -> int:
        return len(self.covered)


def _union(sets: Sequence[CandidateSet]) -> frozenset[int]:
    covered: set[int] = set()
    for candidate in sets:
        covered |= candidate.users
    return frozenset(covered)


def greedy_mcg(
    candidates: Sequence[CandidateSet],
    budgets: Sequence[float],
    ground: set[int],
    *,
    split: bool = True,
    initial_group_cost: Sequence[float] | None = None,
) -> McgResult:
    """Run the budgeted greedy (Fig. 3) and the H1/H2 split (Theorem 2).

    Parameters
    ----------
    candidates:
        the MCG sets; each carries its AP (= group), cost and users.
    budgets:
        per-group budget ``B_i``, indexed by AP.
    ground:
        the element universe ``X`` (users to cover).
    split:
        when False, skip the H1/H2 repair and output the raw greedy ``H``
        even if it overshoots budgets — used by the ablation bench and by
        callers that apply their own repair.
    initial_group_cost:
        pre-existing per-group cost counted against the budgets (used by
        Centralized BLA's iterated runs, whose group loads accumulate
        across iterations).
    """
    # All per-round cost-effectiveness bookkeeping (uncovered counts, group
    # budgets, the masked argmax over candidates) lives in the vectorized
    # CandidateGainIndex; this loop only records the selection order and the
    # H1/H2 membership.
    index = CandidateGainIndex(candidates, budgets, ground, initial_group_cost)
    remaining = set(ground)
    selected: list[CandidateSet] = []
    within_budget: list[CandidateSet] = []
    overshooting: list[CandidateSet] = []

    rounds = 0
    with instrument.span(
        "mcg.greedy", n_candidates=len(candidates), n_ground=len(ground)
    ):
        while remaining:
            rounds += 1
            best_index = index.best()
            if best_index < 0:
                break  # every open group has only zero-value sets left
            candidate = candidates[best_index]
            newly_covered = candidate.users & remaining
            index.select(best_index, newly_covered)
            selected.append(candidate)
            if index.group_cost(candidate.ap) > budgets[candidate.ap]:
                overshooting.append(candidate)
            else:
                within_budget.append(candidate)
            remaining -= newly_covered
    if instrument.enabled():
        instrument.incr("mcg.runs")
        instrument.incr("mcg.rounds", rounds)
        instrument.incr("mcg.candidate_scans", rounds * len(candidates))
        instrument.incr("mcg.sets_selected", len(selected))

    if not split:
        chosen = tuple(selected)
    else:
        covered_h1 = _union(within_budget)
        covered_h2 = _union(overshooting)
        chosen = tuple(
            within_budget if len(covered_h1) >= len(covered_h2) else overshooting
        )
    return McgResult(
        selected=tuple(selected),
        within_budget=tuple(within_budget),
        overshooting=tuple(overshooting),
        chosen=chosen,
        covered=_union(chosen),
    )


# -- the flat (array-backed) kernel ------------------------------------------


def greedy_flat(
    family: CandidateFamily,
    ground: np.ndarray | None,
    live: np.ndarray | None,
    budgets: Sequence[float] | None,
    initial_group_cost: Sequence[float] | None,
) -> tuple[list[int], list[int], np.ndarray, int]:
    """The one array-backed greedy loop, for ``CostSC`` and for MCG.

    Each round picks the first candidate of highest efficiency (newly
    covered users per unit cost) among ``live`` candidates (all when
    ``None``) over the ``ground`` users (all when ``None``), until no
    candidate covers a new user. ``budgets=None`` is ``CostSC`` (Fig. 8):
    no groups. Otherwise it is Fig. 3's greedy: a group (AP) whose cost,
    counted from ``initial_group_cost``, reaches its budget is closed.

    A candidate's efficiency is ``-inf`` once it can never be picked —
    picked, not live, its group closed, or nothing new to cover — and
    none of these is ever undone, so a pick only recomputes the finite
    efficiencies of the candidates it touched.

    Returns ``(selected, overshooting, remaining, n_live)``: the picks in
    order, the picks that left their group over budget (H2), the ground
    users left uncovered, and the number of live candidates that cover
    some ground user.
    """
    arrays = family.arrays()
    members, costs = arrays.members, arrays.cost
    inc_off, inc_cand = arrays.inc_offsets, arrays.inc_candidates
    remaining = (
        np.ones(family.n_users, dtype=bool)
        if ground is None
        else np.array(ground, dtype=bool)
    )
    remaining_count = int(np.count_nonzero(remaining))
    counts = backend.segment_counts(arrays.offsets, members, remaining)
    eligible = counts > 0
    if live is not None:
        eligible &= live
    n_live = int(np.count_nonzero(eligible))
    if budgets is not None:
        budget = [float(b) for b in budgets]
        group_cost = (
            [0.0] * len(budget)
            if initial_group_cost is None
            else [float(c) for c in initial_group_cost]
        )
        is_open = [c < b for c, b in zip(group_cost, budget, strict=True)]
        eligible &= np.array(is_open, dtype=bool)[arrays.ap]
        group_off, group_cand = arrays.groups()
    eff = np.where(eligible, counts / costs, -np.inf)

    selected: list[int] = []
    overshooting: list[int] = []
    # Per-pick scalars come from the stdlib columns: indexing them is
    # cheaper than boxing numpy scalars, and the values are the same.
    bounds, group_of, cost_of = family.offsets, family.ap, family.cost
    n = family.n_candidates
    while remaining_count:
        k = backend.first_argmax(eff) if n else -1
        if k < 0 or not eff[k] > 0.0:
            break
        selected.append(k)
        eff[k] = -np.inf
        if budgets is not None:
            # A pick's group is open, so this pick may close it.
            g = group_of[k]
            group_cost[g] += cost_of[k]
            if group_cost[g] > budget[g]:
                overshooting.append(k)
            if not group_cost[g] < budget[g]:
                eff[group_cand[group_off[g] : group_off[g + 1]]] = -np.inf
        m = members[bounds[k] : bounds[k + 1]]
        new = m[remaining[m]]
        remaining[new] = False
        remaining_count -= int(new.size)
        touched = backend.gather_segments(inc_off, inc_cand, new)
        backend.subtract_at(counts, touched)
        left = counts[touched]
        keep = (left > 0) & (eff[touched] > -np.inf)
        eff[touched] = np.where(keep, left / costs[touched], -np.inf)
    return selected, overshooting, remaining, n_live


@dataclass(frozen=True)
class FlatMcgResult:
    """Outcome of :func:`greedy_mcg_flat` in candidate-index form.

    Mirrors :class:`McgResult` field for field, but holds candidate
    *indices* into the family instead of materialized sets, and the
    covered users as a numpy bool mask; callers materialize the picks
    they need with :func:`~repro.core.assignment.from_selected_sets`.
    """

    selected: tuple[int, ...]
    within_budget: tuple[int, ...]
    overshooting: tuple[int, ...]
    chosen: tuple[int, ...]
    covered: np.ndarray = field(repr=False)

    @property
    def n_covered(self) -> int:
        return int(self.covered.sum())


def greedy_mcg_flat(
    family: CandidateFamily,
    budgets: Sequence[float],
    *,
    ground: np.ndarray | None = None,
    live: "Sequence[bool] | np.ndarray | None" = None,
    split: bool = True,
    initial_group_cost: Sequence[float] | None = None,
) -> FlatMcgResult:
    """The budgeted greedy (Fig. 3) + H1/H2 split on a flat family.

    Bit-identical to :func:`greedy_mcg` run on the equivalent scalar
    candidate list: ``live`` marks the candidates that list would contain
    (e.g. MNU's cost-feasible subset) and ``ground`` the element universe
    (a numpy bool mask, or ``None`` for all users) —
    scalar callers pre-restrict their lists with
    :func:`~repro.core.candidates.restrict_to_users`; here restriction is
    just the mask. Selection order, H1/H2 membership, accumulated group
    costs and every emitted counter match the scalar twin exactly.
    """
    if initial_group_cost is not None and len(initial_group_cost) != len(
        budgets
    ):
        raise ValueError("one initial cost per group required")
    ground = None if ground is None else np.asarray(ground, dtype=bool)
    with instrument.span("mcg.greedy"):
        selected, overshooting, remaining, n_live = greedy_flat(
            family,
            ground,
            None if live is None else np.asarray(live, dtype=bool),
            budgets,
            initial_group_cost,
        )
    arrays = family.arrays()

    def half_mask(indices: Sequence[int]) -> np.ndarray:
        keys = np.asarray(indices, dtype=np.int64)
        union = np.zeros(family.n_users, dtype=bool)
        union[backend.gather_segments(arrays.offsets, arrays.members, keys)] = True
        return union if ground is None else union & ground

    over = set(overshooting)
    within = [k for k in selected if k not in over]
    if not split:
        chosen = tuple(selected)
        covered = half_mask(selected)
    else:
        h1_mask = half_mask(within)
        h2_mask = half_mask(overshooting)
        if int(h1_mask.sum()) >= int(h2_mask.sum()):
            chosen, covered = tuple(within), h1_mask
        else:
            chosen, covered = tuple(overshooting), h2_mask
    if instrument.enabled():
        # The scalar loop counts a last, empty round when it stalls.
        rounds = len(selected) + int(remaining.any())
        instrument.incr("mcg.runs")
        instrument.incr("mcg.rounds", rounds)
        instrument.incr("mcg.candidate_scans", rounds * n_live)
        instrument.incr("mcg.sets_selected", len(selected))
    return FlatMcgResult(
        selected=tuple(selected),
        within_budget=tuple(within),
        overshooting=tuple(overshooting),
        chosen=chosen,
        covered=covered,
    )
