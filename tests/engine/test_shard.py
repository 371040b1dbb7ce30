"""Tests for shard slicing and index remapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.engine.partition import plan_shards
from repro.engine.shard import build_shards, stitch_assignment
from tests.engine.conftest import block_problem


@pytest.fixture
def sharded():
    problem = block_problem(10, n_blocks=4, aps_per=2, users_per=5)
    plan = plan_shards(problem)
    return problem, build_shards(plan)


class TestSlice:
    def test_submatrix_matches_parent(self, sharded):
        problem, shards = sharded
        for shard in shards:
            sub = shard.slice(problem)
            assert sub.problem.n_aps == shard.n_aps
            assert sub.problem.n_users == shard.n_users
            for li, gu in enumerate(sub.users):
                for lj, ga in enumerate(sub.aps):
                    assert sub.problem.link_rates[lj, li] == pytest.approx(
                        problem.link_rates[ga, gu]
                    )
                assert sub.problem.session_of(li) == problem.session_of(gu)
            assert np.array_equal(
                sub.problem.budgets, problem.budgets[list(shard.aps)]
            )

    def test_sessions_catalog_preserved(self, sharded):
        problem, shards = sharded
        for shard in shards:
            assert shard.slice(problem).problem.sessions == problem.sessions

    def test_active_subset_slicing(self, sharded):
        problem, shards = sharded
        shard = shards[0]
        keep = set(shard.users[::2])
        sub = shard.slice(problem, shard.active_users(keep))
        assert sub.users == tuple(sorted(keep))
        assert sub.problem.n_users == len(keep)

    def test_active_users_ignores_other_shards(self, sharded):
        _, shards = sharded
        foreign = set(shards[1].users)
        assert shards[0].active_users(foreign) == ()

    def test_local_global_roundtrip(self, sharded):
        problem, shards = sharded
        for shard in shards:
            sub = shard.slice(problem)
            for gu in shard.users:
                assert sub.global_user(shard.local_user(gu)) == gu
            for ga in shard.aps:
                assert sub.global_ap(shard.local_ap(ga)) == ga


class TestMapAssignment:
    def test_maps_to_global_pairs(self, sharded):
        problem, shards = sharded
        shard = shards[0]
        sub = shard.slice(problem)
        local = [0] * sub.problem.n_users
        local[0] = None
        pairs = sub.map_assignment(local)
        assert all(ap == shard.aps[0] for _, ap in pairs)
        assert len(pairs) == sub.problem.n_users - 1

    def test_wrong_length_rejected(self, sharded):
        problem, shards = sharded
        sub = shards[0].slice(problem)
        with pytest.raises(ModelError):
            sub.map_assignment([None])


class TestStitch:
    def test_unmentioned_users_stay_unserved(self, sharded):
        problem, _ = sharded
        assignment = stitch_assignment(problem, [(0, 0)])
        assert assignment.ap_of(0) == 0
        assert assignment.n_served == 1

    def test_duplicate_user_rejected(self, sharded):
        problem, _ = sharded
        with pytest.raises(ModelError):
            stitch_assignment(problem, [(0, 0), (0, 1)])

    def test_consistent_duplicate_tolerated(self, sharded):
        problem, _ = sharded
        assignment = stitch_assignment(problem, [(0, 0), (0, 0)])
        assert assignment.ap_of(0) == 0

    def test_unknown_ap_names_the_lowest_user(self, sharded):
        problem, _ = sharded
        n = problem.n_aps
        with pytest.raises(ModelError, match=f"user 1 assigned to unknown AP {n}"):
            stitch_assignment(problem, [(2, -1), (1, n), (0, 0)])
        with pytest.raises(ModelError, match="user 2 assigned to unknown AP -1"):
            stitch_assignment(problem, [(2, -1), (0, 0)])

    def test_unknown_user_rejected(self, sharded):
        problem, _ = sharded
        with pytest.raises(ModelError, match=f"unknown user {problem.n_users}"):
            stitch_assignment(problem, [(0, 0), (problem.n_users, 0)])
        with pytest.raises(ModelError, match="unknown user -1"):
            stitch_assignment(problem, [(-1, 0)])
