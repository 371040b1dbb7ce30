"""Coverage-graph partitioning — the decomposition the sharded engine rests on.

A user can only ever associate with an AP whose coverage reaches it, so the
bipartite *candidate graph* (APs on one side, users on the other, an edge
wherever ``link_rate > 0``) fully determines which parts of a deployment can
interact. Its connected components are mutually independent sub-instances:
no assignment, load, or budget of one component can influence another. The
engine therefore solves components separately — and, because the paper's
greedy algorithms pick by per-set cost-effectiveness and per-AP budgets,
the component-wise runs reproduce the monolithic runs *exactly* (see
``repro.engine.executor`` for where the two genuinely global decisions, the
H1/H2 split and the B* search, are re-applied across shards).

Components are extracted with a union–find over ``n_aps + n_users`` nodes.
Tiny components (common in sparse or federated deployments) can optionally
be merged into balanced shards under a user-count cap — merging is still
lossless, since a shard containing several components just runs their
independent solves interleaved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import MulticastAssociationProblem


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


@dataclass(frozen=True)
class Component:
    """One connected component of the candidate graph."""

    aps: tuple[int, ...]
    users: tuple[int, ...]

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_aps(self) -> int:
        return len(self.aps)


@dataclass(frozen=True)
class ShardPlan:
    """The engine's decomposition of one problem instance.

    ``shards`` lists the (AP set, user set) of every shard — each shard is a
    union of one or more coverage components. ``isolated_users`` can hear no
    AP at all (MNU leaves them unserved; BLA/MLA reject the instance), and
    ``idle_aps`` cover no user and so can never carry multicast load.
    """

    shards: tuple[Component, ...]
    isolated_users: tuple[int, ...]
    idle_aps: tuple[int, ...]
    n_components: int

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of_user(self) -> dict[int, int]:
        """user -> shard index (isolated users absent)."""
        return {
            user: index
            for index, shard in enumerate(self.shards)
            for user in shard.users
        }

    def shard_of_ap(self) -> dict[int, int]:
        """AP -> shard index (idle APs absent)."""
        return {
            ap: index
            for index, shard in enumerate(self.shards)
            for ap in shard.aps
        }


def coverage_components(
    problem: MulticastAssociationProblem,
) -> tuple[list[Component], list[int], list[int]]:
    """Connected components of the AP–user candidate graph.

    Returns ``(components, isolated_users, idle_aps)``. Components are
    ordered by their smallest AP index; AP and user lists inside each are
    ascending, so downstream index remaps preserve the monolithic orderings
    the solvers' tie-breaks depend on.
    """
    n_aps, n_users = problem.n_aps, problem.n_users
    finder = UnionFind(n_aps + n_users)
    edges = np.argwhere(problem.link_rates > 0)
    for ap, user in edges:
        finder.union(int(ap), n_aps + int(user))

    members: dict[int, tuple[list[int], list[int]]] = {}
    has_edge_ap = set(int(a) for a in edges[:, 0]) if len(edges) else set()
    has_edge_user = set(int(u) for u in edges[:, 1]) if len(edges) else set()
    isolated_users = [u for u in range(n_users) if u not in has_edge_user]
    idle_aps = [a for a in range(n_aps) if a not in has_edge_ap]
    for ap in has_edge_ap:
        members.setdefault(finder.find(ap), ([], []))[0].append(ap)
    for user in has_edge_user:
        members.setdefault(finder.find(n_aps + user), ([], []))[1].append(user)

    components = [
        Component(aps=tuple(sorted(aps)), users=tuple(sorted(users)))
        for aps, users in members.values()
    ]
    components.sort(key=lambda c: c.aps[0])
    return components, isolated_users, idle_aps


def _merge_components(
    components: list[Component], max_shard_users: int
) -> list[Component]:
    """First-fit-decreasing packing of components into capped shards.

    Components above the cap stay alone (splitting them would not be
    lossless); the effective capacity is therefore the larger of the cap
    and the biggest component.
    """
    if max_shard_users <= 0:
        raise ValueError("max_shard_users must be positive")
    capacity = max(
        max_shard_users, max((c.n_users for c in components), default=0)
    )
    bins: list[tuple[list[int], list[int], int]] = []  # (aps, users, used)
    for component in sorted(
        components, key=lambda c: (-c.n_users, c.aps[0])
    ):
        placed = False
        for index, (aps, users, used) in enumerate(bins):
            if used + component.n_users <= capacity:
                aps.extend(component.aps)
                users.extend(component.users)
                bins[index] = (aps, users, used + component.n_users)
                placed = True
                break
        if not placed:
            bins.append(
                (list(component.aps), list(component.users), component.n_users)
            )
    merged = [
        Component(aps=tuple(sorted(aps)), users=tuple(sorted(users)))
        for aps, users, _ in bins
    ]
    merged.sort(key=lambda c: c.aps[0])
    return merged


def plan_shards(
    problem: MulticastAssociationProblem,
    *,
    max_shard_users: int | None = None,
) -> ShardPlan:
    """Partition ``problem`` into solve shards.

    With ``max_shard_users=None`` every coverage component becomes its own
    shard (the finest cache granularity); with a cap, small components are
    packed into balanced shards of at most that many users (fewer, beefier
    solver invocations — better when per-shard overhead dominates).
    """
    components, isolated_users, idle_aps = coverage_components(problem)
    shards = (
        _merge_components(components, max_shard_users)
        if max_shard_users is not None
        else components
    )
    return ShardPlan(
        shards=tuple(shards),
        isolated_users=tuple(isolated_users),
        idle_aps=tuple(idle_aps),
        n_components=len(components),
    )
