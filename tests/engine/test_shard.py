"""Tests for shard slicing and index remapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.engine.partition import plan_shards
from repro.engine.shard import build_shards, stitch_arrays
from tests.engine.conftest import block_problem


def stitch_pairs(problem, pairs):
    """:func:`stitch_arrays` over a list of (user, AP) pairs."""
    flat = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return stitch_arrays(problem, flat[:, 0], flat[:, 1])


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
        mask = np.zeros(problem.n_users, dtype=bool)
        mask[shard.users[::2]] = True
        users = shard.active_users(mask)
        assert users.tolist() == shard.users[::2].tolist()
        assert not users.flags.writeable
        sub = shard.slice(problem, users)
        assert sub.users is users
        assert sub.problem.n_users == users.size

    def test_active_users_ignores_other_shards(self, sharded):
        problem, shards = sharded
        foreign = np.zeros(problem.n_users, dtype=bool)
        foreign[shards[1].users] = True
        assert shards[0].active_users(foreign).size == 0

    def test_index_arrays_are_sorted_and_read_only(self, sharded):
        _, shards = sharded
        for shard in shards:
            for index in (shard.users, shard.aps):
                assert index.dtype == np.int64
                assert not index.flags.writeable
                assert (np.diff(index) > 0).all()


class TestMapAssignment:
    """A shard's local map translated into global pairs."""

    def test_maps_to_global_pairs(self, sharded):
        problem, shards = sharded
        shard = shards[0]
        sub = shard.slice(problem)
        local = np.zeros(sub.problem.n_users, dtype=np.int64)
        local[0] = -1  # unserved
        users, aps = sub.global_pairs(local)
        assert users.tolist() == shard.users[1:].tolist()
        assert (aps == shard.aps[0]).all()
        assert not users.flags.writeable and not aps.flags.writeable

    def test_wrong_length_rejected(self, sharded):
        problem, shards = sharded
        sub = shards[0].slice(problem)
        with pytest.raises(ModelError, match="map covers 1"):
            sub.global_pairs(np.array([-1], dtype=np.int64))


class TestStitch:
    def test_unmentioned_users_stay_unserved(self, sharded):
        problem, _ = sharded
        assignment = stitch_pairs(problem, [(0, 0)])
        assert assignment.ap_of(0) == 0
        assert assignment.n_served == 1

    def test_duplicate_user_rejected(self, sharded):
        problem, _ = sharded
        with pytest.raises(ModelError, match=r"user 0 assigned by two shards \(0, 1\)"):
            stitch_pairs(problem, [(0, 0), (0, 1)])

    def test_consistent_duplicate_tolerated(self, sharded):
        problem, _ = sharded
        assignment = stitch_pairs(problem, [(0, 0), (0, 0)])
        assert assignment.ap_of(0) == 0

    def test_unknown_ap_names_the_lowest_user(self, sharded):
        problem, _ = sharded
        n = problem.n_aps
        with pytest.raises(ModelError, match=f"user 1 assigned to unknown AP {n}"):
            stitch_pairs(problem, [(2, -1), (1, n), (0, 0)])
        with pytest.raises(ModelError, match="user 2 assigned to unknown AP -1"):
            stitch_pairs(problem, [(2, -1), (0, 0)])

    def test_unknown_user_rejected(self, sharded):
        problem, _ = sharded
        with pytest.raises(ModelError, match=f"unknown user {problem.n_users}"):
            stitch_pairs(problem, [(0, 0), (problem.n_users, 0)])
        with pytest.raises(ModelError, match="unknown user -1"):
            stitch_pairs(problem, [(-1, 0)])
