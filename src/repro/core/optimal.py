"""Exact solvers for MNU / BLA / MLA via mixed-integer linear programming.

The paper's Fig. 12 compares its heuristics against optimal solutions
computed by ILPs "based on the ILP of set cover"; we formulate the same ILPs
over the candidate family (:func:`~repro.core.candidates.build_family`) and
solve them with ``scipy.optimize.milp`` (HiGHS). Exponential in the worst
case, so only small instances (the paper's 30-AP / ≤50-user setting) are
practical — exactly how the paper used them. The LP bounds of
:mod:`repro.core.bounds` solve the same :class:`CoverModel` relaxed.

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

from repro.core.assignment import Assignment, from_selected_sets
from repro.core.candidates import CandidateFamily, CandidateSet, build_family
from repro.core.errors import CoverageError, SolverError
from repro.core.problem import MulticastAssociationProblem
from repro.vec import backend


@dataclass(frozen=True)
class OptimalSolution:
    """An exact optimum: the assignment and the solver's objective value."""

    assignment: Assignment
    objective: float
    selected: tuple[CandidateSet, ...]


@dataclass(frozen=True)
class CoverModel:
    """One objective's ILP over the candidate family.

    The first ``family.n_candidates`` columns select candidate sets; MLA
    has no others, BLA adds the makespan ``L`` and MNU one ``y_u`` per
    user. The solver minimizes ``c @ x``; the objective's value is
    ``sense`` times that (``-1`` for MNU, which maximizes served users).
    """

    family: CandidateFamily
    name: str
    sense: float
    c: np.ndarray
    constraints: list[LinearConstraint]
    integrality: np.ndarray
    bounds: Bounds

    def solve(self, *, relax: bool = False) -> tuple[float, np.ndarray]:
        """The objective's value and ``x`` at the MILP optimum, or at its
        LP relaxation's with ``relax``.

        An instance with no users has nothing to cover or serve: value 0
        with nothing selected.
        """
        if not self.family.n_users:
            return 0.0, np.zeros(self.c.size)
        if relax:
            result = milp(
                c=self.c,
                constraints=self.constraints,
                integrality=np.zeros(self.c.size),
                bounds=self.bounds,
            )
            if not result.success:
                raise SolverError(
                    f"LP relaxation for {self.name} failed: {result.message}"
                )
        else:
            result = _milp(self)
        return self.sense * float(result.fun), result.x


def cover_model(
    problem: MulticastAssociationProblem, objective: str
) -> CoverModel:
    """The ILP of ``'mla'``, ``'bla'`` or ``'mnu'`` on ``problem``.

    MLA and BLA raise :class:`CoverageError` for isolated users; MNU
    raises :class:`SolverError` unless every budget is finite.
    """
    if objective not in ("mla", "bla", "mnu"):
        raise ValueError(f"unknown objective {objective!r}")
    budgets = np.asarray(problem.budgets, dtype=float)
    if objective == "mnu":
        if not np.all(np.isfinite(budgets)):
            raise SolverError("MNU requires finite per-AP budgets")
    else:
        isolated = problem.isolated_users()
        if isolated:
            raise CoverageError(isolated)
    family = build_family(problem)
    n, m, n_aps = family.n_candidates, problem.n_users, problem.n_aps
    offsets = backend.as_int64(family.offsets)
    members = backend.as_int64(family.members)
    cost = np.array(family.cost, dtype=float)
    # M[u, k] = 1 if candidate k covers user u.
    coverage = sparse.csr_matrix(
        (
            np.ones(members.size),
            (members, np.repeat(np.arange(n), np.diff(offsets))),
        ),
        shape=(m, n),
    )
    # G[a, k] = cost of candidate k if AP a owns it.
    group_costs = sparse.csr_matrix(
        (cost, (backend.as_int64(family.ap), np.arange(n))), shape=(n_aps, n)
    )
    if objective == "mla":
        c, integrality, bounds = cost, np.ones(n), Bounds(0, 1)
        constraints = [LinearConstraint(coverage, lb=1, ub=np.inf)]
    elif objective == "bla":
        # Column layout: [x_0 .. x_{n-1}, L]
        c = np.zeros(n + 1)
        c[n] = 1.0
        integrality = np.concatenate([np.ones(n), [0]])
        bounds = Bounds(np.zeros(n + 1), np.concatenate([np.ones(n), [np.inf]]))
        constraints = [
            LinearConstraint(
                sparse.hstack([coverage, sparse.csr_matrix((m, 1))]),
                lb=1,
                ub=np.inf,
            ),
            LinearConstraint(
                sparse.hstack([group_costs, -np.ones((n_aps, 1))]),
                lb=-np.inf,
                ub=0,
            ),
        ]
    else:
        # Column layout: [x_0 .. x_{n-1}, y_0 .. y_{m-1}]
        c = np.concatenate([np.zeros(n), -np.ones(m)])
        integrality, bounds = np.ones(n + m), Bounds(0, 1)
        constraints = [
            # y_u <= sum of covering x:  y - M x <= 0
            LinearConstraint(
                sparse.hstack([-coverage, sparse.eye(m, format="csr")]),
                lb=-np.inf,
                ub=0,
            ),
            LinearConstraint(
                sparse.hstack([group_costs, sparse.csr_matrix((n_aps, m))]),
                lb=-np.inf,
                ub=budgets,
            ),
        ]
    sense = -1.0 if objective == "mnu" else 1.0
    return CoverModel(
        family, objective.upper(), sense, c, constraints, integrality, bounds
    )


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


def _milp(model: CoverModel) -> OptimizeResult:
    """``scipy.optimize.milp`` with a scaled retry on solver errors."""
    result = milp(
        c=model.c,
        constraints=model.constraints,
        integrality=model.integrality,
        bounds=model.bounds,
    )
    if not result.success:
        result = milp(
            c=model.c,
            constraints=_scaled(model.constraints, 1024.0),
            integrality=model.integrality,
            bounds=model.bounds,
        )
    if not result.success:
        raise SolverError(f"MILP for {model.name} failed: {result.message}")
    return result


def _optimum(
    problem: MulticastAssociationProblem, objective: str
) -> OptimalSolution:
    model = cover_model(problem, objective)
    value, x = model.solve()
    family = model.family
    chosen = np.flatnonzero(x[: family.n_candidates] > 0.5)
    assignment = from_selected_sets(problem, family, chosen)
    if objective == "mnu":
        # Associate exactly the users the ILP marked served; a user covered
        # by a selected set but with y_u = 0 would only lower the
        # objective, so the optimizer marks every covered user — still,
        # associate from y for bit-exact consistency with the value.
        y = x[family.n_candidates :]
        assignment = Assignment(
            problem,
            [
                None if y[user] < 0.5 else ap
                for user, ap in enumerate(assignment.ap_of_user)
            ],
        )
    assignment.validate(check_budgets=objective == "mnu")
    return OptimalSolution(
        assignment=assignment,
        objective=value,
        selected=tuple(family.candidate(k) for k in chosen.tolist()),
    )


def solve_mla_optimal(problem: MulticastAssociationProblem) -> OptimalSolution:
    """Exact MLA: minimum-total-load full cover."""
    return _optimum(problem, "mla")


def solve_bla_optimal(problem: MulticastAssociationProblem) -> OptimalSolution:
    """Exact BLA: full cover minimizing the maximum per-AP load.

    Variables: one binary per candidate set plus a continuous makespan ``L``.
    """
    return _optimum(problem, "bla")


def solve_mnu_optimal(problem: MulticastAssociationProblem) -> OptimalSolution:
    """Exact MNU: maximize served users under per-AP budgets.

    Variables: one binary per candidate set plus one binary ``y_u`` per user
    (``y_u = 1`` iff the user is covered by a selected set).
    """
    return _optimum(problem, "mnu")


def optimal_value(
    problem: MulticastAssociationProblem, objective: str
) -> float:
    """Convenience: the optimal objective value for ``'mnu'|'bla'|'mla'``."""
    return _optimum(problem, objective).objective
