"""Exact solvers for MNU / BLA / MLA via mixed-integer linear programming.

The paper's Fig. 12 compares its heuristics against optimal solutions
computed by ILPs "based on the ILP of set cover"; we formulate the same ILPs
over the candidate-set family and solve them with ``scipy.optimize.milp``
(HiGHS). Exponential in the worst case, so only small instances (the paper's
30-AP / ≤50-user setting) are practical — exactly how the paper used them.

Soundness of additive costs: selecting two sets of the same (AP, session) at
rates ``r1 < r2`` is never better than selecting only the ``r1`` set — it
covers a superset of users at the summed (higher) cost — so an optimal
solution of the additive-cost ILP picks at most one rate per (AP, session),
where the additive cost equals the true multicast load. The ILP optimum
therefore equals the true optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp

from repro.core.assignment import Assignment, from_candidate_sets
from repro.core.candidates import CandidateSet, build_candidates
from repro.core.errors import CoverageError, SolverError
from repro.core.problem import MulticastAssociationProblem

@dataclass(frozen=True)
class OptimalSolution:
    """An exact optimum: the assignment and the solver's objective value."""

    assignment: Assignment
    objective: float
    selected: tuple[CandidateSet, ...]


def _coverage_matrix(
    candidates: list[CandidateSet], n_users: int
) -> sparse.csr_matrix:
    """Sparse (n_users x n_sets) incidence matrix: M[u, k] = 1 if u in S_k."""
    rows: list[int] = []
    cols: list[int] = []
    for k, candidate in enumerate(candidates):
        for user in candidate.users:
            rows.append(user)
            cols.append(k)
    data = np.ones(len(rows))
    return sparse.csr_matrix(
        (data, (rows, cols)), shape=(n_users, len(candidates))
    )


def _group_cost_matrix(
    candidates: list[CandidateSet], n_aps: int
) -> sparse.csr_matrix:
    """Sparse (n_aps x n_sets) matrix of per-AP summed selection costs."""
    rows = [c.ap for c in candidates]
    cols = list(range(len(candidates)))
    data = [c.cost for c in candidates]
    return sparse.csr_matrix((data, (rows, cols)), shape=(n_aps, len(candidates)))


def _selected_sets(
    candidates: list[CandidateSet], x: np.ndarray
) -> tuple[CandidateSet, ...]:
    return tuple(c for k, c in enumerate(candidates) if x[k] > 0.5)


def _check(result: OptimizeResult, what: str) -> None:
    if not result.success:
        raise SolverError(f"MILP for {what} failed: {result.message}")


def _scaled(
    constraints: list[LinearConstraint], factor: float
) -> list[LinearConstraint]:
    """Constraints with rows and bounds multiplied by ``factor``.

    Row scaling leaves the feasible set untouched but moves HiGHS off the
    numerically degenerate regime it hits when a constraint is tight to
    within ~1e-6 (observed: "HiGHS Status 4: Solve error" on instances
    whose budget nearly equals one set cost).
    """
    scaled: list[LinearConstraint] = []
    for constraint in constraints:
        scaled.append(
            LinearConstraint(
                constraint.A * factor,
                np.asarray(constraint.lb) * factor,
                np.asarray(constraint.ub) * factor,
            )
        )
    return scaled


def _milp(
    c: np.ndarray,
    constraints: "list[LinearConstraint] | LinearConstraint",
    integrality: np.ndarray,
    bounds: Bounds,
    what: str,
) -> OptimizeResult:
    """``scipy.optimize.milp`` with a scaled retry on solver errors."""
    result = milp(
        c=c, constraints=constraints, integrality=integrality, bounds=bounds
    )
    if not result.success:
        result = milp(
            c=c,
            constraints=_scaled(list(constraints), 1024.0),
            integrality=integrality,
            bounds=bounds,
        )
    _check(result, what)
    return result


def solve_mla_optimal(problem: MulticastAssociationProblem) -> OptimalSolution:
    """Exact MLA: minimum-total-load full cover."""
    isolated = problem.isolated_users()
    if isolated:
        raise CoverageError(isolated)
    candidates = build_candidates(problem)
    n = len(candidates)
    coverage = _coverage_matrix(candidates, problem.n_users)
    costs = np.array([c.cost for c in candidates])
    constraints = [LinearConstraint(coverage, lb=1, ub=np.inf)]
    result = _milp(costs, constraints, np.ones(n), Bounds(0, 1), "MLA")
    selected = _selected_sets(candidates, result.x)
    assignment = from_candidate_sets(problem, selected)
    assignment.validate(check_budgets=False)
    return OptimalSolution(
        assignment=assignment, objective=float(result.fun), selected=selected
    )


def solve_bla_optimal(problem: MulticastAssociationProblem) -> OptimalSolution:
    """Exact BLA: full cover minimizing the maximum per-AP load.

    Variables: one binary per candidate set plus a continuous makespan ``L``.
    """
    isolated = problem.isolated_users()
    if isolated:
        raise CoverageError(isolated)
    candidates = build_candidates(problem)
    n = len(candidates)
    coverage = _coverage_matrix(candidates, problem.n_users)
    group_costs = _group_cost_matrix(candidates, problem.n_aps)

    # Column layout: [x_0 .. x_{n-1}, L]
    objective = np.zeros(n + 1)
    objective[n] = 1.0
    coverage_ext = sparse.hstack(
        [coverage, sparse.csr_matrix((problem.n_users, 1))]
    )
    load_ext = sparse.hstack(
        [group_costs, -np.ones((problem.n_aps, 1))]
    )
    constraints = [
        LinearConstraint(coverage_ext, lb=1, ub=np.inf),
        LinearConstraint(load_ext, lb=-np.inf, ub=0),
    ]
    integrality = np.concatenate([np.ones(n), [0]])
    lower = np.zeros(n + 1)
    upper = np.concatenate([np.ones(n), [np.inf]])
    result = _milp(
        objective, constraints, integrality, Bounds(lower, upper), "BLA"
    )
    selected = _selected_sets(candidates, result.x[:n])
    assignment = from_candidate_sets(problem, selected)
    assignment.validate(check_budgets=False)
    return OptimalSolution(
        assignment=assignment, objective=float(result.fun), selected=selected
    )


def solve_mnu_optimal(problem: MulticastAssociationProblem) -> OptimalSolution:
    """Exact MNU: maximize served users under per-AP budgets.

    Variables: one binary per candidate set plus one binary ``y_u`` per user
    (``y_u = 1`` iff the user is covered by a selected set).
    """
    budgets = np.asarray(problem.budgets, dtype=float)
    if not np.all(np.isfinite(budgets)):
        raise SolverError("MNU requires finite per-AP budgets")
    candidates = build_candidates(problem)
    n = len(candidates)
    m = problem.n_users
    coverage = _coverage_matrix(candidates, m)
    group_costs = _group_cost_matrix(candidates, problem.n_aps)

    # Column layout: [x_0 .. x_{n-1}, y_0 .. y_{m-1}]
    objective = np.concatenate([np.zeros(n), -np.ones(m)])
    # y_u <= sum of covering x:  y - M x <= 0
    linkage = sparse.hstack([-coverage, sparse.eye(m, format="csr")])
    budget_rows = sparse.hstack(
        [group_costs, sparse.csr_matrix((problem.n_aps, m))]
    )
    constraints = [
        LinearConstraint(linkage, lb=-np.inf, ub=0),
        LinearConstraint(budget_rows, lb=-np.inf, ub=budgets),
    ]
    result = _milp(
        objective, constraints, np.ones(n + m), Bounds(0, 1), "MNU"
    )
    x = result.x[:n]
    y = result.x[n:]
    selected = _selected_sets(candidates, x)
    # Associate exactly the users the ILP marked served; a user covered by a
    # selected set but with y_u = 0 would only lower the objective, so the
    # optimizer marks every covered user — still, associate from y for
    # bit-exact consistency with the reported objective.
    ap_of_user: list[int | None] = [None] * m
    best_rate = [-1.0] * m
    for candidate in selected:
        for user in candidate.users:
            if y[user] < 0.5:
                continue
            link = problem.link_rate(candidate.ap, user)
            if link > best_rate[user]:
                best_rate[user] = link
                ap_of_user[user] = candidate.ap
    assignment = Assignment(problem, ap_of_user)
    assignment.validate(check_budgets=True)
    return OptimalSolution(
        assignment=assignment,
        objective=-float(result.fun),
        selected=selected,
    )


def optimal_value(
    problem: MulticastAssociationProblem, objective: str
) -> float:
    """Convenience: the optimal objective value for ``'mnu'|'bla'|'mla'``."""
    solvers = {
        "mnu": solve_mnu_optimal,
        "bla": solve_bla_optimal,
        "mla": solve_mla_optimal,
    }
    if objective not in solvers:
        raise ValueError(f"unknown objective {objective!r}")
    return solvers[objective](problem).objective
