"""The exact ILPs and the LP bounds read one model, built from the family.

:func:`repro.core.optimal.cover_model` builds each objective's ILP from
:func:`~repro.core.candidates.build_family`; the MILPs solve it and the LP
bounds solve it relaxed. The differential below restates the formulation
over the scalar :func:`~repro.core.candidates.build_candidates` list, as
it stood before the model was shared, and requires the same objective
(``float.hex``), selected sets and map from every MILP and the same value
from every LP bound, on instances with legacy, DMS and hybrid sessions,
finite budgets and MNU optima that leave users unserved.
"""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.assignment import Assignment
from repro.core.bla import solve_bla
from repro.core.bounds import (
    bla_lp_bound,
    mla_lp_bound,
    mnu_lp_bound,
    quality_certificate,
)
from repro.core.candidates import build_candidates
from repro.core.mla import solve_mla
from repro.core.mnu import solve_mnu
from repro.core.optimal import (
    solve_bla_optimal,
    solve_mla_optimal,
    solve_mnu_optimal,
)
from repro.core.problem import TX_POLICIES, MulticastAssociationProblem, Session
from repro.engine.engine import ShardedEngine
from repro.verify.certificates import verify_assignment
from tests.conftest import PYTEST_SEED

N_INSTANCES = 200
RATES = (6.0, 12.0, 18.0, 24.0, 36.0, 48.0, 54.0)
BUDGETS = (1.5, 0.9, 0.5, 0.25, 0.1)

OPTIMA = {
    "mla": solve_mla_optimal,
    "bla": solve_bla_optimal,
    "mnu": solve_mnu_optimal,
}
LP_BOUNDS = {"mla": mla_lp_bound, "bla": bla_lp_bound, "mnu": mnu_lp_bound}


def random_instance(rng: random.Random) -> MulticastAssociationProblem:
    """Up to 5 APs and 10 users, every user in range of some AP, per-AP
    finite budgets, per-session policies and stream rates."""
    n_aps = rng.randint(1, 5)
    n_users = rng.randint(1, 10)
    n_sessions = rng.randint(1, 3)
    link = np.zeros((n_aps, n_users))
    for user in range(n_users):
        for ap in rng.sample(range(n_aps), rng.randint(1, n_aps)):
            link[ap, user] = rng.choice(RATES)
    sessions = [
        Session(s, rng.choice((1.0, 2.0, 6.0))) for s in range(n_sessions)
    ]
    return MulticastAssociationProblem(
        link,
        [rng.randrange(n_sessions) for _ in range(n_users)],
        sessions,
        [rng.choice(BUDGETS) for _ in range(n_aps)],
        [rng.choice(TX_POLICIES) for _ in range(n_sessions)],
    )


# -- the formulation over the scalar candidate list ---------------------------


def _scalar_model(problem, objective):
    candidates = build_candidates(problem)
    n, m, n_aps = len(candidates), problem.n_users, problem.n_aps
    rows, cols = [], []
    for k, candidate in enumerate(candidates):
        for user in candidate.users:
            rows.append(user)
            cols.append(k)
    coverage = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(m, n)
    )
    group_costs = sparse.csr_matrix(
        ([c.cost for c in candidates], ([c.ap for c in candidates], range(n))),
        shape=(n_aps, n),
    )
    if objective == "mla":
        return (
            candidates,
            np.array([c.cost for c in candidates]),
            [LinearConstraint(coverage, lb=1, ub=np.inf)],
            np.ones(n),
            Bounds(0, 1),
        )
    if objective == "bla":
        c = np.zeros(n + 1)
        c[n] = 1.0
        return (
            candidates,
            c,
            [
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
            ],
            np.concatenate([np.ones(n), [0]]),
            Bounds(np.zeros(n + 1), np.concatenate([np.ones(n), [np.inf]])),
        )
    return (
        candidates,
        np.concatenate([np.zeros(n), -np.ones(m)]),
        [
            LinearConstraint(
                sparse.hstack([-coverage, sparse.eye(m, format="csr")]),
                lb=-np.inf,
                ub=0,
            ),
            LinearConstraint(
                sparse.hstack([group_costs, sparse.csr_matrix((n_aps, m))]),
                lb=-np.inf,
                ub=np.asarray(problem.budgets, dtype=float),
            ),
        ],
        np.ones(n + m),
        Bounds(0, 1),
    )


def scalar_optimum(problem, objective):
    """``(objective, selected sets, map)`` of the scalar-list MILP."""
    candidates, c, constraints, integrality, bounds = _scalar_model(
        problem, objective
    )
    result = milp(
        c=c, constraints=constraints, integrality=integrality, bounds=bounds
    )
    assert result.success
    n = len(candidates)
    selected = tuple(
        candidate for k, candidate in enumerate(candidates) if result.x[k] > 0.5
    )
    served = result.x[n:] if objective == "mnu" else np.ones(problem.n_users)
    ap_of_user = [None] * problem.n_users
    best_rate = [-1.0] * problem.n_users
    for candidate in selected:
        for user in candidate.users:
            if served[user] < 0.5:
                continue
            link = problem.link_rate(candidate.ap, user)
            if link > best_rate[user]:
                best_rate[user] = link
                ap_of_user[user] = candidate.ap
    value = -float(result.fun) if objective == "mnu" else float(result.fun)
    return value, selected, tuple(ap_of_user)


def scalar_lp_bound(problem, objective):
    _, c, constraints, _, bounds = _scalar_model(problem, objective)
    result = milp(
        c=c,
        constraints=constraints,
        integrality=np.zeros(len(c)),
        bounds=bounds,
    )
    assert result.success
    return -float(result.fun) if objective == "mnu" else float(result.fun)


@pytest.mark.parametrize("objective", ["mla", "bla", "mnu"])
def test_model_matches_scalar_formulation(objective):
    rng = random.Random(f"cover-model-{objective}-{PYTEST_SEED}")
    policies, unserved = set(), 0
    for _ in range(N_INSTANCES):
        problem = random_instance(rng)
        policies.update(problem.policy_of(s) for s in range(problem.n_sessions))
        value, selected, ap_of_user = scalar_optimum(problem, objective)
        optimum = OPTIMA[objective](problem)
        assert optimum.objective.hex() == value.hex()
        assert optimum.selected == selected
        assert optimum.assignment.ap_of_user == ap_of_user
        bound = LP_BOUNDS[objective](problem)
        assert bound.hex() == scalar_lp_bound(problem, objective).hex()
        unserved += optimum.assignment.n_served < problem.n_users
    assert policies == set(TX_POLICIES)
    if objective == "mnu":
        assert unserved >= N_INSTANCES // 10


# -- the empty instance -------------------------------------------------------


@pytest.mark.parametrize("objective", ["mla", "bla", "mnu"])
def test_empty_instance_has_objective_zero(objective):
    problem = MulticastAssociationProblem(
        np.zeros((2, 0)), [], [Session(0, 1.0)], 1.0
    )
    empty = Assignment.empty(problem)
    optimum = OPTIMA[objective](problem)
    assert optimum.objective.hex() == (0.0).hex()
    assert optimum.assignment == empty
    assert optimum.selected == ()
    assert LP_BOUNDS[objective](problem).hex() == (0.0).hex()
    assert verify_assignment(problem, empty, objective, exact=True).ok
    certificate = quality_certificate(empty, objective)
    assert (certificate.achieved, certificate.lp_bound, certificate.gap) == (
        0.0,
        0.0,
        0.0,
    )


# -- no second candidate path -------------------------------------------------


def test_production_never_builds_the_scalar_list(monkeypatch):
    """Every production solve, engine solve, MILP and LP bound reads the
    candidate family; the scalar list serves only the references."""

    def unreachable(*args, **kwargs):
        raise AssertionError("build_candidates reached from production")

    patched = []
    for name, module in list(sys.modules.items()):
        in_core = name == "repro.core" or name.startswith("repro.core.")
        if in_core and hasattr(module, "build_candidates"):
            monkeypatch.setattr(module, "build_candidates", unreachable)
            patched.append(name)
    assert {"repro.core.candidates", "repro.core.mla", "repro.core.mnu"} <= set(
        patched
    )

    problem = random_instance(random.Random(7))
    solve_mnu(problem)
    solve_mla(problem)
    solve_bla(problem)
    for objective in ("mnu", "mla", "bla"):
        ShardedEngine(problem).solve(objective)
        OPTIMA[objective](problem)
        LP_BOUNDS[objective](problem)
