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

Components are labelled in bulk by ``scipy.sparse.csgraph`` over the
``n_aps + n_users`` nodes, then grouped with array sorts.
Tiny components (common in sparse or federated deployments) can optionally
be merged into balanced shards under a user-count cap — merging is still
lossless, since a shard containing several components just runs their
independent solves interleaved.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.core.problem import MulticastAssociationProblem


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


def coverage_components(
    problem: MulticastAssociationProblem,
) -> tuple[list[Component], list[int], list[int]]:
    """Connected components of the AP–user candidate graph.

    Returns ``(components, isolated_users, idle_aps)``. Components are
    ordered by their smallest AP index; AP and user lists inside each are
    ascending, so downstream index remaps preserve the monolithic orderings
    the solvers' tie-breaks depend on.
    """
    n_aps = problem.n_aps
    n_nodes = n_aps + problem.n_users
    aps, users = np.nonzero(problem.link_rates > 0)
    graph = sparse.coo_matrix(
        (np.ones(len(aps), dtype=np.int8), (aps, n_aps + users)),
        shape=(n_nodes, n_nodes),
    )
    _, labels = connected_components(graph, directed=False)
    linked = np.zeros(n_nodes, dtype=bool)
    linked[aps] = linked[n_aps + users] = True
    nodes = np.flatnonzero(linked)  # APs first, then users, ascending
    # Every component with an edge holds an AP, so its first node is its
    # smallest AP: rank components by that first node.
    found, first = np.unique(labels[nodes], return_index=True)
    rank = np.empty(n_nodes, dtype=np.int64)
    rank[found[np.argsort(first)]] = np.arange(len(found))
    keys = rank[labels[nodes]]
    grouped = nodes[np.argsort(keys, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(keys, minlength=len(found))).tolist()
    components = []
    for start, end in zip([0, *ends], ends, strict=False):
        group = grouped[start:end]
        cut = bisect_left(group, n_aps)
        components.append(
            Component(
                aps=tuple(group[:cut]),
                users=tuple(node - n_aps for node in group[cut:]),
            )
        )
    return (
        components,
        np.flatnonzero(~linked[n_aps:]).tolist(),
        np.flatnonzero(~linked[:n_aps]).tolist(),
    )


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
    bins: list[tuple[list[int], list[int]]] = []  # (aps, users)
    for component in sorted(
        components, key=lambda c: (-c.n_users, c.aps[0])
    ):
        fits = (b for b in bins if len(b[1]) + component.n_users <= capacity)
        target = next(fits, None)
        if target is None:
            target = ([], [])
            bins.append(target)
        target[0].extend(component.aps)
        target[1].extend(component.users)
    merged = [
        Component(aps=tuple(sorted(aps)), users=tuple(sorted(users)))
        for aps, users in bins
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
