"""Centralized BLA — minimize the maximum AP load (paper Section 5.1).

Reduces the instance to Set Cover with Group Budgets (Theorem 3) and solves
it as the paper prescribes (Fig. 6): guess the optimal max-load ``B*``,
impose it as every group's budget, and iterate *Centralized MNU* — each
iteration covers at least 1/8 of the remaining users, so ``log_{8/7} n + 1``
iterations suffice when the guess is feasible. The union of all iterations'
selections is the cover; per-group cost is bounded by ``(log_{8/7} n + 1) B*``
(Theorem 4).

Guessing ``B*``: the paper tries "several (a constant number) values between
``c_max`` and 1". We search a geometric grid between a provable lower bound
(every user's cheapest serving cost must be paid by some AP) and the max
load of an unconstrained greedy cover, then refine by bisection, keeping the
assignment with the smallest *derived* max load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core import instrument
from repro.core.assignment import Assignment
from repro.core.candidates import (
    CandidateFamily,
    CandidateSet,
    build_candidates,
    build_family,
    restrict_to_users,
)
from repro.core.errors import CoverageError
from repro.core.mcg import greedy_mcg, greedy_mcg_flat
from repro.core.problem import MulticastAssociationProblem


@dataclass(frozen=True)
class BlaSolution:
    """A BLA assignment plus the winning budget guess and iteration count."""

    assignment: Assignment
    b_star: float
    iterations: int

    @property
    def max_load(self) -> float:
        return self.assignment.max_load()


def max_iterations(n_users: int) -> int:
    """The paper's iteration cap: ``log_{8/7} n + 1``."""
    if n_users <= 1:
        return 1
    return int(math.ceil(math.log(n_users, 8.0 / 7.0))) + 1


def _iterated_mnu(
    candidates: Sequence[CandidateSet],
    n_aps: int,
    b_star: float,
    ground: set[int],
    iteration_cap: int,
) -> tuple[list[CandidateSet], int] | None:
    """Iterate Centralized MNU until all of ``ground`` is covered.

    Returns the union of selections and the iteration count, or ``None``
    when the cap is hit first (the guess ``b_star`` is then infeasible).

    Group costs are *carried across iterations*: at iteration ``k`` each
    group may hold at most ``k * b_star`` of accumulated cost. The paper
    resets budgets every iteration, which satisfies the same
    ``(log_{8/7} n + 1) B*`` bound (Theorem 4) but lets the greedy pile
    every iteration's selections onto the same few high-value APs;
    carrying costs keeps the bound and actually balances.
    """
    remaining = set(ground)
    picked: list[CandidateSet] = []
    accumulated = [0.0] * n_aps
    iterations = 0
    while remaining:
        if iterations >= iteration_cap:
            return None
        iterations += 1
        budgets = [iterations * b_star] * n_aps
        available = restrict_to_users(candidates, remaining)
        result = greedy_mcg(
            available,
            budgets,
            remaining,
            split=True,
            initial_group_cost=accumulated,
        )
        if not result.covered:
            return None  # no progress is possible: some user has no set
        picked.extend(result.chosen)
        for chosen in result.chosen:
            accumulated[chosen.ap] += chosen.cost
        remaining -= result.covered
    return picked, iterations


def assignment_from_cover(
    problem: MulticastAssociationProblem, picked: Sequence[CandidateSet]
) -> Assignment:
    """First-cover-wins mapping: each user joins the AP of the earliest
    selected set containing it.

    (The rate-preferring mapping of ``from_selected_sets`` would re-pile
    users onto their best-rate APs, undoing the balancing the budgeted
    iterations worked for.)
    """
    ap_of_user: list[int | None] = [None] * problem.n_users
    for candidate in picked:
        for user in candidate.users:
            if ap_of_user[user] is None:
                ap_of_user[user] = candidate.ap
    return Assignment(problem, ap_of_user)


def _iterated_mnu_flat(
    family: CandidateFamily,
    n_aps: int,
    b_star: float,
    iteration_cap: int,
) -> tuple[list[tuple[int, np.ndarray]], int] | None:
    """The flat twin of :func:`_iterated_mnu`.

    Returns ``(picks, iterations)`` where each pick is a candidate index
    plus its members restricted to the iteration-start remaining set
    (ascending) — exactly the restricted sets the scalar twin extends
    ``picked`` with. ``None`` when the cap is hit (guess infeasible).
    """
    members = family.arrays().members
    bounds = family.offsets
    remaining = np.ones(family.n_users, dtype=bool)
    remaining_count = family.n_users
    picks: list[tuple[int, np.ndarray]] = []
    accumulated = [0.0] * n_aps
    iterations = 0
    while remaining_count:
        if iterations >= iteration_cap:
            return None
        iterations += 1
        budgets = [iterations * b_star] * n_aps
        result = greedy_mcg_flat(
            family,
            budgets,
            ground=remaining,
            split=True,
            initial_group_cost=accumulated,
        )
        if not result.n_covered:
            return None  # no progress is possible: some user has no set
        for k in result.chosen:
            mem = members[bounds[k] : bounds[k + 1]]
            picks.append((k, mem[remaining[mem]]))
        for k in result.chosen:
            accumulated[family.ap[k]] += family.cost[k]
        remaining &= ~result.covered
        remaining_count = int(remaining.sum())
    return picks, iterations


def _assignment_from_cover_flat(
    problem: MulticastAssociationProblem,
    family: CandidateFamily,
    picks: Sequence[tuple[int, np.ndarray]],
) -> Assignment:
    """First-cover-wins mapping over flat picks — the twin of
    :func:`assignment_from_cover` (per-user result is independent of
    within-set order, so both produce the same map)."""
    ap_of = np.full(problem.n_users, -1, dtype=np.int64)
    for k, members in picks:
        ap_of[members[ap_of[members] < 0]] = family.ap[k]
    return Assignment._of(problem, ap_of)


Prober = Callable[[float], "tuple[Assignment, int] | None"]


def _flat_prober(problem: MulticastAssociationProblem, cap: int) -> Prober:
    """B* probes over the flat family: iterated MNU plus the mapping."""
    family = build_family(problem)

    def run_iterated(b_star: float) -> tuple[Assignment, int] | None:
        outcome = _iterated_mnu_flat(family, problem.n_aps, b_star, cap)
        if outcome is None:
            return None
        return (
            _assignment_from_cover_flat(problem, family, outcome[0]),
            outcome[1],
        )

    return run_iterated


def _reference_prober(
    problem: MulticastAssociationProblem, cap: int
) -> Prober:
    """The scalar twin of :func:`_flat_prober`, on a candidate list."""
    candidates = build_candidates(problem)
    ground = set(range(problem.n_users))

    def run_iterated(b_star: float) -> tuple[Assignment, int] | None:
        outcome = _iterated_mnu(candidates, problem.n_aps, b_star, ground, cap)
        if outcome is None:
            return None
        return assignment_from_cover(problem, outcome[0]), outcome[1]

    return run_iterated


def _lower_bound(problem: MulticastAssociationProblem) -> float:
    """``max_u min_a cost(a, u)`` — bit-identical to
    :func:`_reference_lower_bound`: division by a positive rate is
    monotone, so each user's cheapest cost is its stream rate over its
    best link rate, without an ``n_aps × n_users`` cost matrix."""
    stream = np.asarray(
        [
            problem.session_rate(problem.session_of(u))
            for u in range(problem.n_users)
        ]
    )
    with np.errstate(divide="ignore"):
        costs = stream / problem.link_rates.max(axis=0)
    return float(costs.max())


def _reference_lower_bound(problem: MulticastAssociationProblem) -> float:
    return max(problem.min_cost_of_user(u) for u in range(problem.n_users))


def solve_bla(
    problem: MulticastAssociationProblem,
    *,
    n_guesses: int = 12,
    refine_steps: int = 12,
    local_search: bool = True,
) -> BlaSolution:
    """Run Centralized BLA; raises :class:`CoverageError` for isolated users.

    ``n_guesses`` controls the geometric grid of ``B*`` values and
    ``refine_steps`` the bisection refinement around the best guess; the
    ``ablation_bstar`` benchmark sweeps both.

    ``local_search`` (an implementation addition beyond the paper's Fig. 6,
    quantified in the ``ablation_bstar`` benchmark) finishes with the
    sequential best-response dynamics of Section 5.2 started from the
    cover: each pass strictly reduces the sorted load vector, preserves
    full coverage, and terminates by the argument of Lemma 2. It repairs
    the greedy's blind spot — cost-effective APs that are later *forced*
    to absorb single-coverage users.
    """
    return _solve(
        problem,
        _flat_prober,
        _lower_bound,
        n_guesses=n_guesses,
        refine_steps=refine_steps,
        local_search=local_search,
    )


def solve_bla_reference(
    problem: MulticastAssociationProblem,
    *,
    n_guesses: int = 12,
    refine_steps: int = 12,
    local_search: bool = True,
) -> BlaSolution:
    """Scalar reference for :func:`solve_bla`: the same B* search with
    every probe run by :func:`greedy_mcg` over :func:`build_candidates`'
    list, and the lower bound taken user by user.

    Bit-identical to :func:`solve_bla`, probe for probe — map, loads and
    counters. The differential tests and the ``scalar_vs_vector`` oracle
    compare the two; no production call reaches it.
    """
    return _solve(
        problem,
        _reference_prober,
        _reference_lower_bound,
        n_guesses=n_guesses,
        refine_steps=refine_steps,
        local_search=local_search,
    )


def _solve(
    problem: MulticastAssociationProblem,
    make_prober: Callable[[MulticastAssociationProblem, int], Prober],
    lower_bound: Callable[[MulticastAssociationProblem], float],
    *,
    n_guesses: int,
    refine_steps: int,
    local_search: bool,
) -> BlaSolution:
    isolated = problem.isolated_users()
    if isolated:
        raise CoverageError(isolated)
    if n_guesses < 1:
        raise ValueError("need at least one B* guess")

    with instrument.span(
        "bla.solve", n_users=problem.n_users, n_aps=problem.n_aps
    ):
        run_iterated = make_prober(problem, max_iterations(problem.n_users))

        # Upper bound: an unconstrained cover always exists; its max load
        # is a feasible (if poor) value of the objective.
        unconstrained = run_iterated(math.inf)
        assert unconstrained is not None  # guaranteed: no isolated users
        best_assignment = unconstrained[0]
        best_iterations = unconstrained[1]
        best_b_star = math.inf
        best_value = best_assignment.max_load()

        lower = lower_bound(problem)
        upper = max(best_value, lower * (1 + 1e-9))

        def try_guess(b_star: float) -> bool:
            """Attempt one guess; update the incumbent. True when feasible."""
            nonlocal best_assignment, best_b_star, best_value, best_iterations
            instrument.incr("bla.bstar_probes")
            with instrument.span("bla.bstar-probe", b_star=b_star):
                outcome = run_iterated(b_star)
            if outcome is None:
                instrument.incr("bla.bstar_infeasible")
                return False
            instrument.incr("bla.bstar_feasible")
            assignment = outcome[0]
            value = assignment.max_load()
            if value < best_value - 1e-15:
                best_assignment = assignment
                best_value = value
                best_b_star = b_star
                best_iterations = outcome[1]
            return True

        # Geometric grid between the lower bound and the unconstrained
        # max load.
        if upper > lower > 0:
            ratio = (upper / lower) ** (1.0 / max(n_guesses - 1, 1))
            feasible_guesses: list[float] = []
            infeasible_guesses: list[float] = []
            for i in range(n_guesses):
                guess = lower * ratio**i
                if try_guess(guess):
                    feasible_guesses.append(guess)
                else:
                    infeasible_guesses.append(guess)
            # Bisection refinement between the largest infeasible and the
            # smallest feasible guess.
            low = max(infeasible_guesses, default=lower)
            high = min(feasible_guesses, default=upper)
            for _ in range(refine_steps):
                if high - low <= 1e-9:
                    break
                mid = (low + high) / 2
                if try_guess(mid):
                    high = mid
                else:
                    low = mid

        if local_search:
            best_assignment = rebalance_cover(best_assignment)

        best_assignment.validate(check_budgets=False)
    if instrument.enabled():
        instrument.incr("bla.solves")
        instrument.incr("bla.iterations", best_iterations)
        instrument.gauge("bla.n_served", float(best_assignment.n_served))
        instrument.gauge("bla.total_load", best_assignment.total_load())
        instrument.gauge("bla.max_load", best_assignment.max_load())
    return BlaSolution(
        assignment=best_assignment,
        b_star=best_b_star,
        iterations=best_iterations,
    )


def rebalance_cover(assignment: Assignment) -> Assignment:
    """Sequential BLA best-response dynamics from a full cover.

    Converges (Lemma 2's argument) and never unserves a user, so the
    result is still a full cover with a max load no larger than the input's.
    """
    from repro.core.distributed import run_distributed

    result = run_distributed(
        assignment.problem,
        "bla",
        mode="sequential",
        initial=list(assignment.ap_of_user),
        enforce_budgets=False,
        shuffle_each_round=False,
    )
    refined = result.assignment
    if refined.sorted_load_vector() <= assignment.sorted_load_vector():
        return refined
    return assignment
