"""Shard slicing — per-shard sub-problems with stable index remapping.

A :class:`Shard` freezes one entry of a :class:`~repro.engine.partition.
ShardPlan` and can slice the parent problem into a self-contained
:class:`~repro.core.problem.MulticastAssociationProblem` over the shard's
APs and (a subset of) its users. Index maps run both ways:

* global -> local: ``shard.local_user(u)`` / ``shard.local_ap(a)``;
* local -> global: positional — local index ``i`` is ``aps[i]`` /
  the ``i``-th kept user.

Both slicings sort indices ascending, so the sub-problem's candidate-set
enumeration order, tie-breaks and floating-point costs coincide exactly
with the monolithic solver's restriction to the shard — the invariant the
engine's equivalence guarantee rests on. The full session catalog is kept
(unused sessions simply produce no candidate sets), so session ids and
stream rates need no remapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Iterable, Sequence

import numpy as np

from repro.core import instrument
from repro.core.assignment import Assignment
from repro.core.errors import ModelError
from repro.core.problem import MulticastAssociationProblem
from repro.engine.partition import Component, ShardPlan
from repro.vec import strategy as vec_strategy


@dataclass(frozen=True)
class ShardProblem:
    """A sliced sub-instance plus its local -> global maps."""

    problem: MulticastAssociationProblem
    users: tuple[int, ...]  # local user i  ->  global user users[i]
    aps: tuple[int, ...]  # local AP j    ->  global AP aps[j]

    def global_user(self, local: int) -> int:
        return self.users[local]

    def global_ap(self, local: int) -> int:
        return self.aps[local]

    def map_assignment(self, local_map: Sequence[int | None]) -> list[tuple[int, int]]:
        """Translate a local ``ap_of_user`` into global (user, ap) pairs."""
        if len(local_map) != len(self.users):
            raise ModelError(
                f"shard has {len(self.users)} users, map covers {len(local_map)}"
            )
        resolved = vec_strategy.resolve_strategy(len(self.users))
        if resolved == vec_strategy.VECTOR and vec_strategy.numpy_enabled():
            local = np.fromiter(
                (-1 if ap is None else ap for ap in local_map),
                dtype=np.int64,
                count=len(local_map),
            )
            served = np.nonzero(local >= 0)[0]
            global_users = np.asarray(self.users, dtype=np.int64)[served]
            global_aps = np.asarray(self.aps, dtype=np.int64)[local[served]]
            return [
                (int(u), int(a))
                for u, a in zip(global_users, global_aps, strict=True)
            ]
        return [
            (self.users[u], self.aps[a])
            for u, a in enumerate(local_map)
            if a is not None
        ]


class Shard:
    """One shard of the partition, bound to its parent problem."""

    def __init__(
        self,
        index: int,
        problem: MulticastAssociationProblem,
        component: Component,
    ) -> None:
        self.index = index
        self.problem = problem
        self.aps = component.aps
        self.users = component.users
        self.user_set = frozenset(component.users)
        self.ap_set = frozenset(component.aps)
        self._ap_local = {ap: j for j, ap in enumerate(component.aps)}
        self._user_local = {u: i for i, u in enumerate(component.users)}
        self._block_digest: bytes | None = None

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_aps(self) -> int:
        return len(self.aps)

    def local_user(self, global_user: int) -> int:
        return self._user_local[global_user]

    def local_ap(self, global_ap: int) -> int:
        return self._ap_local[global_ap]

    def rebind(self, problem: MulticastAssociationProblem) -> None:
        """Bind this shard to ``problem``, whose link rates must be equal.

        The index maps stay; so does the cached :meth:`block_digest` when
        ``problem`` shares the bound rate matrix (the same array object).
        """
        if problem.link_rates is not self.problem.link_rates:
            self._block_digest = None
        self.problem = problem

    def block_digest(self, problem: MulticastAssociationProblem) -> bytes:
        """SHA-256 of ``problem``'s link rates over this shard's full
        ``aps × users`` block.

        Hashed once for the rate matrix the shard is bound to and cached;
        a problem carrying any other ``link_rates`` array is hashed
        afresh, never answered from the cache.
        """
        if problem.link_rates is not self.problem.link_rates:
            return _hash_block(problem.link_rates, self.aps, self.users)
        if self._block_digest is None:
            self._block_digest = _hash_block(
                self.problem.link_rates, self.aps, self.users
            )
        return self._block_digest

    def active_users(self, active: Iterable[int] | None) -> tuple[int, ...]:
        """The shard's users intersected with ``active``, ascending."""
        if active is None:
            return self.users
        return tuple(sorted(self.user_set.intersection(active)))

    def slice(self, active: Iterable[int] | None = None) -> ShardProblem:
        """The sub-problem over this shard's APs and active users.

        Keeps every session (ids stay stable), slices the rate matrix with
        sorted index vectors (orders stay stable), and carries the per-AP
        budgets and per-session transmission policies over verbatim.
        """
        users = self.active_users(active)
        rates = self.problem.link_rates[np.ix_(self.aps, users)]
        sub = MulticastAssociationProblem(
            rates,
            [self.problem.session_of(u) for u in users],
            self.problem.sessions,
            self.problem.budgets[list(self.aps)],
            self.problem.session_policies,
        )
        return ShardProblem(problem=sub, users=users, aps=self.aps)

    def __repr__(self) -> str:
        return (
            f"Shard(index={self.index}, aps={self.n_aps}, users={self.n_users})"
        )


def _hash_block(
    rates: np.ndarray, aps: Sequence[int], users: Sequence[int]
) -> bytes:
    return sha256(rates[np.ix_(aps, users)].tobytes()).digest()


def build_shards(
    problem: MulticastAssociationProblem, plan: ShardPlan
) -> list[Shard]:
    """Materialize every shard of ``plan`` against ``problem``."""
    return [
        Shard(index, problem, component)
        for index, component in enumerate(plan.shards)
    ]


def stitch_assignment(
    problem: MulticastAssociationProblem,
    pairs: Iterable[tuple[int, int]],
    *,
    strategy: str | None = None,
) -> Assignment:
    """Global assignment from per-shard (user, AP) pairs.

    Users appearing in no pair stay unserved. Shards are user-disjoint, so
    a duplicate user indicates a bug in the caller's shard bookkeeping.
    Dual-strategy (auto-switched on ``problem.n_users``, overridable via
    ``strategy``): both twins produce the same map and, on a conflicting
    input, the same error for the *first* conflicting pair.
    """
    resolved = vec_strategy.resolve_strategy(
        problem.n_users, override=strategy
    )
    if resolved == vec_strategy.VECTOR and vec_strategy.numpy_enabled():
        return _stitch_assignment_vector(problem, pairs)
    ap_of_user: list[int | None] = [None] * problem.n_users
    for user, ap in pairs:
        if ap_of_user[user] is not None and ap_of_user[user] != ap:
            raise ModelError(
                f"user {user} assigned by two shards ({ap_of_user[user]}, {ap})"
            )
        ap_of_user[user] = ap
    return Assignment(problem, ap_of_user)


def _stitch_assignment_vector(
    problem: MulticastAssociationProblem,
    pairs: Iterable[tuple[int, int]],
) -> Assignment:
    """The array twin of the :func:`stitch_assignment` scalar loop.

    Conflict detection: until the first conflicting pair the scalar loop
    only ever re-writes a user's slot with the same AP, so the stored
    value at that point equals the AP of the user's *first* pair — which
    is what the vectorized scan compares against.
    """
    if instrument.enabled():
        instrument.incr("stitch.strategy_switches")
    pair_list = list(pairs)
    if not pair_list:
        return Assignment(problem, [None] * problem.n_users)
    users = np.fromiter(
        (p[0] for p in pair_list), dtype=np.int64, count=len(pair_list)
    )
    aps = np.fromiter(
        (p[1] for p in pair_list), dtype=np.int64, count=len(pair_list)
    )
    unique_users, first_index = np.unique(users, return_index=True)
    reference = aps[first_index[np.searchsorted(unique_users, users)]]
    conflicts = aps != reference
    if conflicts.any():
        where = int(np.argmax(conflicts))
        raise ModelError(
            f"user {int(users[where])} assigned by two shards "
            f"({int(reference[where])}, {int(aps[where])})"
        )
    ap_of = np.full(problem.n_users, -1, dtype=np.int64)
    ap_of[users] = aps
    return Assignment(problem, [None if a < 0 else int(a) for a in ap_of])
