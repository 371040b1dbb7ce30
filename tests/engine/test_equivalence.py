"""The engine's exactness contract: sharded solves == monolithic solves.

These are the PR's acceptance tests. On multi-component instances (block
composed and geometrically federated) the engine must return the *same*
objective values — and, solving for the full user set, the same user->AP
maps — as ``solve_mnu`` / ``solve_bla`` / ``solve_mla`` run monolithically.
Edge cases: single-component instances (one shard == the whole problem),
isolated users, and active-user subsets that empty out entire shards.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.bla import solve_bla
from repro.core.errors import CoverageError
from repro.core.ledger import LoadLedger
from repro.core.mla import solve_mla
from repro.core.mnu import solve_mnu
from repro.core.problem import MulticastAssociationProblem, Session
from repro.engine import ShardedEngine, plan_shards
from repro.scenarios.federation import generate_federation
from tests.conftest import random_problem
from tests.engine.conftest import block_problem

SEEDS = [0, 1, 2, 3, 4]


@pytest.mark.parametrize("seed", SEEDS)
def test_mnu_matches_monolithic(seed):
    problem = block_problem(seed)
    reference = solve_mnu(problem)
    engine = ShardedEngine(problem)
    solution = engine.solve("mnu")
    assert solution.assignment.ap_of_user == reference.assignment.ap_of_user


@pytest.mark.parametrize("seed", SEEDS)
def test_mnu_augmented_matches_monolithic(seed):
    problem = block_problem(seed, budget=0.3)  # tight budgets leave leftovers
    reference = solve_mnu(problem, augment=True)
    engine = ShardedEngine(problem)
    solution = engine.solve("mnu", augment=True)
    assert solution.assignment.ap_of_user == reference.assignment.ap_of_user


@pytest.mark.parametrize("seed", SEEDS)
def test_mla_matches_monolithic(seed):
    problem = block_problem(seed)
    reference = solve_mla(problem)
    engine = ShardedEngine(problem)
    solution = engine.solve("mla")
    assert solution.assignment.ap_of_user == reference.assignment.ap_of_user


@pytest.mark.parametrize("seed", SEEDS)
def test_bla_matches_monolithic(seed):
    problem = block_problem(seed)
    reference = solve_bla(problem)
    engine = ShardedEngine(problem)
    solution = engine.solve("bla")
    assert solution.assignment.ap_of_user == reference.assignment.ap_of_user
    assert solution.b_star == reference.b_star
    assert solution.iterations == reference.iterations


def test_federation_acceptance(federation_problem):
    """The ISSUE's acceptance scenario: >= 5 components, identical values."""
    plan = plan_shards(federation_problem)
    assert plan.n_components >= 5
    engine = ShardedEngine(federation_problem)
    mnu = engine.solve("mnu")
    bla = engine.solve("bla")
    mla = engine.solve("mla")
    assert mnu.assignment.n_served == solve_mnu(federation_problem).assignment.n_served
    assert bla.assignment.max_load() == solve_bla(
        federation_problem
    ).assignment.max_load()
    assert mla.assignment.total_load() == solve_mla(
        federation_problem
    ).assignment.total_load()


@pytest.mark.parametrize("seed", SEEDS)
def test_single_component_instances(seed):
    """One shard == the whole problem: the engine is a pass-through."""
    rng = random.Random(seed)
    problem = random_problem(rng, n_aps=6, n_users=18, n_sessions=2)
    if problem.isolated_users():
        pytest.skip("isolated draw; covered by the isolated-user tests")
    engine = ShardedEngine(problem)
    assert (
        engine.solve("mnu").assignment.ap_of_user
        == solve_mnu(problem).assignment.ap_of_user
    )
    assert (
        engine.solve("bla").assignment.ap_of_user
        == solve_bla(problem).assignment.ap_of_user
    )
    assert (
        engine.solve("mla").assignment.ap_of_user
        == solve_mla(problem).assignment.ap_of_user
    )


def _with_isolated_user():
    return MulticastAssociationProblem(
        np.array([[6.0, 12.0, 0.0], [6.0, 0.0, 0.0]]),
        [0, 0, 0],
        [Session(0, 1.0)],
        np.full(2, 0.9),
    )


def test_isolated_users_mnu_left_unserved():
    problem = _with_isolated_user()
    engine = ShardedEngine(problem)
    solution = engine.solve("mnu")
    assert solution.assignment.ap_of(2) is None
    assert (
        solution.assignment.n_served
        == solve_mnu(problem).assignment.n_served
    )


@pytest.mark.parametrize("objective", ["bla", "mla"])
def test_isolated_users_full_coverage_rejected(objective):
    problem = _with_isolated_user()
    engine = ShardedEngine(problem)
    with pytest.raises(CoverageError) as full:
        engine.solve(objective)
    # Without user 0 the isolated user 2 is local index 1 of the
    # restricted problem; the error must still name it globally.
    with pytest.raises(CoverageError) as subset:
        engine.solve(objective, active=[1, 2])
    assert full.value.uncovered == [2]
    assert subset.value.uncovered == [2]


@pytest.mark.parametrize("objective", ["mnu", "bla", "mla"])
def test_active_subset_matches_restricted_monolithic(objective):
    """Deactivating one whole block (an empty shard) keeps exactness."""
    problem = block_problem(7, n_blocks=4, users_per=6)
    plan = plan_shards(problem)
    dropped_shard = set(plan.shards[1].users)
    thinned = {plan.shards[2].users[0]}  # plus one user of another shard
    active = sorted(set(range(problem.n_users)) - dropped_shard - thinned)
    restricted, keep = problem.restricted_to_users(active)
    solver = {"mnu": solve_mnu, "bla": solve_bla, "mla": solve_mla}[objective]
    reference = solver(restricted).assignment
    engine = ShardedEngine(problem)
    solution = engine.solve(objective, active=active)
    for local, global_user in enumerate(keep):
        assert solution.assignment.ap_of(global_user) == reference.ap_of(local)
    for user in sorted(dropped_shard | thinned):
        assert solution.assignment.ap_of(user) is None


def test_merged_shards_preserve_exactness():
    """Packing several components into one shard must not change results."""
    problem = block_problem(9, n_blocks=6, users_per=4)
    reference = solve_mla(problem).assignment
    engine = ShardedEngine(problem, max_shard_users=10)
    assert engine.plan.n_shards < engine.plan.n_components
    solution = engine.solve("mla")
    assert solution.assignment.ap_of_user == reference.ap_of_user


def test_no_active_users_yields_empty_assignment():
    problem = block_problem(11, n_blocks=2)
    engine = ShardedEngine(problem)
    for objective in ("mnu", "bla", "mla"):
        solution = engine.solve(objective, active=[])
        assert solution.assignment.n_served == 0
        assert solution.value() == 0.0
        if objective == "bla":
            assert solution.b_star == math.inf
            assert solution.iterations == 0


def _mla_instance(kind: str) -> tuple[MulticastAssociationProblem, int | None]:
    """``(problem, max_shard_users)`` for one exactness case."""
    if kind == "federation":
        problem = generate_federation(
            n_clusters=6,
            aps_per_cluster=3,
            users_per_cluster=10,
            n_sessions=3,
            seed=42,
        ).problem()
        return problem, None
    problem = block_problem(13, n_blocks=4, n_sessions=3)
    if kind == "blocks":
        return problem, None
    return problem, problem.n_users  # every component packed in one shard


_POLICY_MIXES = {
    "legacy": ("legacy",),
    "mixed": ("legacy", "dms", "hybrid"),
    "dms-hybrid": ("dms", "hybrid"),
}


@pytest.mark.parametrize("policies", sorted(_POLICY_MIXES))
@pytest.mark.parametrize("share", [1.0, 0.6])
@pytest.mark.parametrize("kind", ["federation", "blocks", "one-shard"])
def test_mla_value_is_bit_identical_to_monolithic(kind, share, policies):
    """The engine's MLA objective (the ``fsum`` of the per-shard fragment
    loads) equals the monolithic total load and a fresh ledger's, to the
    last bit, and the map equals the monolithic map."""
    problem, cap = _mla_instance(kind)
    mix = _POLICY_MIXES[policies]
    problem = problem.with_policies(
        [mix[s % len(mix)] for s in range(problem.n_sessions)]
    )
    users = range(problem.n_users)
    active = sorted(
        random.Random(5).sample(users, round(share * problem.n_users))
    )
    restricted, keep = problem.restricted_to_users(active)
    reference = solve_mla(restricted).assignment
    engine = ShardedEngine(problem, max_shard_users=cap)
    if kind == "one-shard":
        assert engine.plan.n_shards == 1
    else:
        assert engine.plan.n_shards > 1
    solution = engine.solve("mla", active=active)
    expected = [None] * problem.n_users
    for local, global_user in enumerate(keep):
        expected[global_user] = reference.ap_of(local)
    assert list(solution.assignment.ap_of_user) == expected
    value = solution.value().hex()
    assert value == reference.total_load().hex()
    assert value == LoadLedger(
        problem, solution.assignment.ap_of_user
    ).total_load().hex()
