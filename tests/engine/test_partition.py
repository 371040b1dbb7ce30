"""Tests for coverage-graph partitioning (components, packing).

``UnionFind``, ``reference_components`` and ``reference_packing`` are the
scalar references ``plan_shards`` is checked against, orderings included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import MulticastAssociationProblem, Session
from repro.engine.partition import (
    Component,
    coverage_components,
    plan_shards,
)
from repro.scenarios.federation import generate_federation
from repro.scenarios.generator import generate
from tests.engine.conftest import block_problem


class UnionFind:
    """Array-based disjoint sets with union by rank and path halving."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("need a non-negative number of nodes")
        self._parent = list(range(n))
        self._rank = [0] * n

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True


def reference_components(problem):
    """Components, isolated users and idle APs by union-find, pair by pair."""
    n_aps, n_users = problem.n_aps, problem.n_users
    finder = UnionFind(n_aps + n_users)
    edges = np.argwhere(problem.link_rates > 0)
    for ap, user in edges:
        finder.union(int(ap), n_aps + int(user))
    edge_aps = sorted({int(a) for a in edges[:, 0]})
    edge_users = sorted({int(u) for u in edges[:, 1]})
    members: dict[int, tuple[list[int], list[int]]] = {}
    for ap in edge_aps:
        members.setdefault(finder.find(ap), ([], []))[0].append(ap)
    for user in edge_users:
        members.setdefault(finder.find(n_aps + user), ([], []))[1].append(user)
    components = sorted(
        (
            Component(aps=tuple(aps), users=tuple(users))
            for aps, users in members.values()
        ),
        key=lambda c: c.aps[0],
    )
    isolated = [u for u in range(n_users) if u not in set(edge_users)]
    idle = [a for a in range(n_aps) if a not in set(edge_aps)]
    return components, isolated, idle


def reference_packing(components, max_shard_users):
    """First-fit decreasing into bins that track their user count."""
    capacity = max(max_shard_users, max((c.n_users for c in components), default=0))
    bins: list[tuple[list[int], list[int], int]] = []  # (aps, users, used)
    for component in sorted(components, key=lambda c: (-c.n_users, c.aps[0])):
        for index, (aps, users, used) in enumerate(bins):
            if used + component.n_users <= capacity:
                aps.extend(component.aps)
                users.extend(component.users)
                bins[index] = (aps, users, used + component.n_users)
                break
        else:
            bins.append((list(component.aps), list(component.users), component.n_users))
    merged = [
        Component(aps=tuple(sorted(aps)), users=tuple(sorted(users)))
        for aps, users, _ in bins
    ]
    return sorted(merged, key=lambda c: c.aps[0])


def _problem(rates):
    rates = np.asarray(rates, dtype=float)
    n_users = rates.shape[1]
    return MulticastAssociationProblem(
        rates, [0] * n_users, [Session(0, 1.0)], np.full(rates.shape[0], 0.9)
    )


class TestUnionFind:
    def test_singletons_are_distinct(self):
        finder = UnionFind(4)
        assert len({finder.find(i) for i in range(4)}) == 4

    def test_union_merges_and_reports(self):
        finder = UnionFind(4)
        assert finder.union(0, 1) is True
        assert finder.union(0, 1) is False
        assert finder.find(0) == finder.find(1)
        assert finder.find(2) != finder.find(0)

    def test_transitive_merge(self):
        finder = UnionFind(6)
        finder.union(0, 1)
        finder.union(1, 2)
        finder.union(4, 5)
        assert finder.find(0) == finder.find(2)
        assert finder.find(4) == finder.find(5)
        assert finder.find(3) not in {finder.find(0), finder.find(4)}

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)


class TestCoverageComponents:
    def test_two_blocks_split(self):
        problem = _problem(
            [
                [6.0, 12.0, 0.0, 0.0],
                [0.0, 6.0, 0.0, 0.0],
                [0.0, 0.0, 24.0, 6.0],
            ]
        )
        components, isolated, idle = coverage_components(problem)
        assert components == [
            Component(aps=(0, 1), users=(0, 1)),
            Component(aps=(2,), users=(2, 3)),
        ]
        assert isolated == []
        assert idle == []

    def test_isolated_user_and_idle_ap_reported(self):
        problem = _problem(
            [
                [6.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],  # idle AP: hears nobody
            ]
        )
        components, isolated, idle = coverage_components(problem)
        assert components == [Component(aps=(0,), users=(0,))]
        assert isolated == [1, 2]
        assert idle == [1]

    def test_bridging_user_joins_blocks(self):
        # User 1 hears both APs, welding them into one component.
        problem = _problem(
            [
                [6.0, 12.0, 0.0],
                [0.0, 6.0, 24.0],
            ]
        )
        components, _, _ = coverage_components(problem)
        assert components == [Component(aps=(0, 1), users=(0, 1, 2))]

    def test_components_ordered_by_first_ap(self):
        problem = block_problem(3, n_blocks=4)
        components, _, _ = coverage_components(problem)
        firsts = [c.aps[0] for c in components]
        assert firsts == sorted(firsts)
        for component in components:
            assert list(component.aps) == sorted(component.aps)
            assert list(component.users) == sorted(component.users)


def _sparse_problem(seed: int, n_aps: int, n_users: int, density: float):
    """Random sparse coverage: many components, isolated users, idle APs."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n_aps, n_users)) < density
    return _problem(np.where(mask, 12.0, 0.0))


DIFFERENTIAL_CASES = {
    **{
        f"sparse-{seed}": (lambda seed=seed: _sparse_problem(seed, 30, 90, 0.02))
        for seed in range(6)
    },
    "sparse-wide": lambda: _sparse_problem(9, 5, 400, 0.004),
    "dense": lambda: _sparse_problem(10, 12, 50, 0.5),
    "no-edges": lambda: _problem(np.zeros((3, 4))),
    "no-users": lambda: _problem(np.zeros((3, 0))),
    "blocks": lambda: block_problem(6, n_blocks=7, users_per=5, density=0.3),
    "federation": lambda: generate_federation(
        n_clusters=6, aps_per_cluster=3, users_per_cluster=20, seed=2
    ).problem(),
    "paper": lambda: generate(n_aps=40, n_users=120, seed=4).problem(),
}


class TestAgainstUnionFind:
    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_components_isolated_and_idle_match(self, case):
        problem = DIFFERENTIAL_CASES[case]()
        assert coverage_components(problem) == reference_components(problem)

    def test_cases_cover_isolated_users_and_idle_aps(self):
        outcomes = [
            reference_components(build()) for build in DIFFERENTIAL_CASES.values()
        ]
        assert any(isolated for _, isolated, _ in outcomes)
        assert any(idle for _, _, idle in outcomes)
        assert any(len(components) > 10 for components, _, _ in outcomes)

    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    @pytest.mark.parametrize("cap", [1, 4, 25])
    def test_packed_shards_match(self, case, cap):
        problem = DIFFERENTIAL_CASES[case]()
        components, isolated, idle = reference_components(problem)
        plan = plan_shards(problem, max_shard_users=cap)
        assert list(plan.shards) == reference_packing(components, cap)
        assert plan.n_components == len(components)
        assert plan.isolated_users == tuple(isolated)
        assert plan.idle_aps == tuple(idle)


class TestPlanShards:
    def test_block_problem_has_block_components(self):
        problem = block_problem(0, n_blocks=5, users_per=6)
        plan = plan_shards(problem)
        assert plan.n_components >= 5
        assert plan.n_shards == plan.n_components
        # Every non-isolated user appears in exactly one shard.
        seen = [u for shard in plan.shards for u in shard.users]
        assert sorted(seen + list(plan.isolated_users)) == list(
            range(problem.n_users)
        )

    def test_merging_respects_cap_and_keeps_everyone(self):
        problem = block_problem(1, n_blocks=6, users_per=4)
        unmerged = plan_shards(problem)
        merged = plan_shards(problem, max_shard_users=8)
        assert merged.n_shards < unmerged.n_shards
        assert merged.n_components == unmerged.n_components
        biggest = max(c.n_users for c in unmerged.shards)
        for shard in merged.shards:
            assert shard.n_users <= max(8, biggest)
        merged_users = sorted(
            u for shard in merged.shards for u in shard.users
        )
        unmerged_users = sorted(
            u for shard in unmerged.shards for u in shard.users
        )
        assert merged_users == unmerged_users

    def test_oversized_component_stays_alone(self):
        problem = block_problem(2, n_blocks=3, users_per=10)
        plan = plan_shards(problem, max_shard_users=1)
        # Nothing fits the cap, so every component stays its own shard.
        assert plan.n_shards == plan.n_components

    def test_lookup_maps(self):
        problem = block_problem(4, n_blocks=3)
        plan = plan_shards(problem)
        user_map = plan.shard_of_user()
        ap_map = plan.shard_of_ap()
        for index, shard in enumerate(plan.shards):
            assert all(user_map[u] == index for u in shard.users)
            assert all(ap_map[a] == index for a in shard.aps)

    def test_bad_cap_rejected(self):
        problem = block_problem(5, n_blocks=2)
        with pytest.raises(ValueError):
            plan_shards(problem, max_shard_users=0)
