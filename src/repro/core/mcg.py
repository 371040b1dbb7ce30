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


# -- the flat (array-backed) twin --------------------------------------------


@dataclass(frozen=True)
class FlatMcgResult:
    """Outcome of :func:`greedy_mcg_flat` in candidate-index form.

    Mirrors :class:`McgResult` field for field, but holds candidate
    *indices* into the family instead of materialized sets, and the
    covered users as a numpy bool mask. :meth:`to_mcg_result`
    materializes the classic result for callers that want it.
    """

    selected: tuple[int, ...]
    within_budget: tuple[int, ...]
    overshooting: tuple[int, ...]
    chosen: tuple[int, ...]
    covered: np.ndarray = field(repr=False)
    rounds: int
    n_live: int

    @property
    def n_covered(self) -> int:
        return int(self.covered.sum())

    def covered_users(self) -> list[int]:
        """The covered users, ascending."""
        return [int(u) for u in np.nonzero(self.covered)[0]]

    def to_mcg_result(self, family: CandidateFamily) -> McgResult:
        """The classic :class:`McgResult`, each selected candidate
        materialized once from ``family``."""
        cache: dict[int, CandidateSet] = {}

        def get(k: int) -> CandidateSet:
            if k not in cache:
                cache[k] = family.candidate(k)
            return cache[k]

        return McgResult(
            selected=tuple(get(k) for k in self.selected),
            within_budget=tuple(get(k) for k in self.within_budget),
            overshooting=tuple(get(k) for k in self.overshooting),
            chosen=tuple(get(k) for k in self.chosen),
            covered=frozenset(self.covered_users()),
        )


def _flat_numpy(
    family: CandidateFamily,
    budgets: Sequence[float],
    ground: "np.ndarray | None",
    live: "np.ndarray | None",
    initial_group_cost: Sequence[float] | None,
) -> tuple[list[int], list[int], list[int], np.ndarray, int, int]:
    """Numpy-backed greedy rounds. Returns ``(selected, within, over,
    ground0, rounds, n_live)``."""
    n = family.n_candidates
    offsets = backend.as_int64(family.offsets)
    members = backend.as_int64(family.members)
    costs = backend.as_float64(family.cost)
    group_of = backend.as_int64(family.ap)
    inc_off_raw, inc_cand_raw = family.incidence()
    inc_off = backend.as_int64(inc_off_raw)
    inc_cand = backend.as_int64(inc_cand_raw)

    ground0 = (
        np.ones(family.n_users, dtype=bool) if ground is None else ground.copy()
    )
    remaining = ground0.copy()
    remaining_count = int(remaining.sum())
    counts = backend.segment_counts(offsets, members, remaining)
    live_mask = (
        np.ones(n, dtype=bool) if live is None else np.asarray(live, dtype=bool)
    )
    n_live = int((live_mask & (counts > 0)).sum())

    group_cost = (
        [0.0] * len(budgets)
        if initial_group_cost is None
        else [float(c) for c in initial_group_cost]
    )
    budget_list = [float(b) for b in budgets]
    open_list = [c < b for c, b in zip(group_cost, budget_list, strict=True)]
    open_np = np.array(open_list, dtype=bool)
    available = np.ones(n, dtype=bool)
    eligible = live_mask & (counts > 0) & open_np[group_of] if n else live_mask
    eff = (
        np.where(eligible, counts / costs, -np.inf)
        if n
        else np.empty(0, dtype=np.float64)
    )
    gm_off, gm_cand = backend.invert_csr(
        np.arange(n + 1, dtype=np.int64), group_of, len(budget_list)
    )

    selected: list[int] = []
    within: list[int] = []
    overshooting: list[int] = []
    rounds = 0
    # Per-pick scalars come from the stdlib columns: indexing them is
    # cheaper than boxing numpy scalars, and the values are the same.
    bounds, group_list, cost_of = family.offsets, family.ap, family.cost
    while remaining_count:
        rounds += 1
        if not eff.size:
            break
        k = backend.first_argmax(eff)
        if not eff[k] > 0.0:
            break
        g = group_list[k]
        group_cost[g] += cost_of[k]
        closes = open_list[g] and not (group_cost[g] < budget_list[g])
        if closes:
            open_list[g] = False
            open_np[g] = False
        available[k] = False
        eff[k] = -np.inf
        m = members[bounds[k] : bounds[k + 1]]
        new = m[remaining[m]]
        touched: "np.ndarray | None" = None
        if new.size:
            remaining[new] = False
            remaining_count -= int(new.size)
            touched = backend.gather_segments(inc_off, inc_cand, new)
            backend.subtract_at(counts, touched)
        if closes:
            eff[gm_cand[gm_off[g] : gm_off[g + 1]]] = -np.inf
        if touched is not None and touched.size:
            ok = (
                live_mask[touched]
                & available[touched]
                & (counts[touched] > 0)
                & open_np[group_of[touched]]
            )
            eff[touched] = np.where(
                ok, counts[touched] / costs[touched], -np.inf
            )
        selected.append(k)
        if group_cost[g] > budgets[g]:
            overshooting.append(k)
        else:
            within.append(k)
    return selected, within, overshooting, ground0, rounds, n_live


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
    ground_arr = None if ground is None else np.asarray(ground, dtype=bool)
    with instrument.span("mcg.greedy"):
        selected, within, overshooting, ground0, rounds, n_live = (
            _flat_numpy(
                family, budgets, ground_arr, _as_bool_or_none(live),
                initial_group_cost,
            )
        )
    offsets = backend.as_int64(family.offsets)
    members = backend.as_int64(family.members)

    def half_mask(indices: Sequence[int]) -> np.ndarray:
        union = np.zeros(family.n_users, dtype=bool)
        for k in indices:
            m = members[offsets[k] : offsets[k + 1]]
            union[m[ground0[m]]] = True
        return union

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
        rounds=rounds,
        n_live=n_live,
    )


def _as_bool_or_none(
    live: "Sequence[bool] | np.ndarray | None",
) -> "np.ndarray | None":
    if live is None:
        return None
    return np.asarray(live, dtype=bool)
