"""The engine's membership argument: any iterable of user indices.

``ShardedEngine.solve(active=...)`` accepts a set, a list, a tuple, a
generator or an int64 array, duplicates allowed. Every form must solve
exactly alike — same map, same ``float.hex`` objective, same cache hits
and misses — and an out-of-range membership must name the same user
whatever its form: the lowest if one is negative, else the highest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.problem import MulticastAssociationProblem
from repro.engine import ShardedEngine
from tests.engine.conftest import block_problem

FORMS = {
    "set": set,
    "list": list,
    "tuple": tuple,
    "generator": lambda users: (user for user in users),
    "ndarray": lambda users: np.array(users, dtype=np.int64),
}


def with_isolated_user(
    problem: MulticastAssociationProblem,
) -> MulticastAssociationProblem:
    """``problem`` plus one last user that hears no AP."""
    rates = np.hstack([problem.link_rates, np.zeros((problem.n_aps, 1))])
    return MulticastAssociationProblem(
        rates,
        [*problem.user_sessions, 0],
        problem.sessions,
        problem.budgets,
    )


@pytest.fixture
def problem():
    return with_isolated_user(block_problem(7, n_blocks=4))


def members(problem, objective):
    """Every third user plus a few repeats; MNU also asks for the
    isolated user, which BLA and MLA would reject."""
    users = list(range(0, problem.n_users - 1, 3))
    if objective == "mnu":
        users.append(problem.n_users - 1)
    return users + users[:4]


def outcome(problem, objective, active, **options):
    """A cold then a warm solve on a fresh engine, as comparable data."""
    engine = ShardedEngine(problem)
    runs = []
    for _ in range(2):
        solution = engine.solve(objective, active=active(), **options)
        runs.append(
            (
                solution.assignment.ap_of_user,
                solution.objective_value.hex(),
                solution.cache_hits,
                solution.cache_misses,
                solution.n_resolved,
            )
        )
    return runs


@pytest.mark.parametrize(
    "objective, options",
    [("mnu", {}), ("mnu", {"augment": True}), ("bla", {}), ("mla", {})],
)
def test_every_form_solves_alike(problem, objective, options):
    users = members(problem, objective)
    results = {
        name: outcome(problem, objective, lambda: form(users), **options)
        for name, form in FORMS.items()
    }
    expected = results.pop("set")
    assert any(ap is not None for ap in expected[0][0])
    for name, runs in results.items():
        assert runs == expected, name


@pytest.mark.parametrize("name", FORMS)
def test_empty_membership_in_every_form(problem, name):
    engine = ShardedEngine(problem)
    solution = engine.solve("mnu", active=FORMS[name]([]))
    assert solution.assignment.n_served == 0
    assert solution.n_resolved == 0


@pytest.mark.parametrize("name", FORMS)
def test_out_of_range_users_name_the_same_offender(problem, name):
    engine = ShardedEngine(problem)
    n = problem.n_users
    form = FORMS[name]
    with pytest.raises(ModelError, match="^unknown user -3$"):
        engine.solve("mnu", active=form([-3, -1, n + 2]))
    with pytest.raises(ModelError, match=f"^unknown user {n + 5}$"):
        engine.solve("mnu", active=form([0, n, n + 5]))


def test_isolated_user_has_no_shard(problem):
    engine = ShardedEngine(problem)
    isolated = problem.n_users - 1
    assert engine.shard_of_user(isolated) is None
    assert engine.shard_of_user(0) == 0
    with pytest.raises(ModelError, match=f"unknown user {problem.n_users}"):
        engine.shard_of_user(problem.n_users)
