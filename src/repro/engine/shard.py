"""Shard slicing — per-shard sub-problems with stable index remapping.

A :class:`Shard` freezes one entry of a :class:`~repro.engine.partition.
ShardPlan` and can slice a parent problem into a self-contained
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

from dataclasses import dataclass, field
from hashlib import sha256
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.core.assignment import Assignment
from repro.core.errors import ModelError
from repro.core.problem import MulticastAssociationProblem
from repro.engine.partition import Component, ShardPlan


@dataclass(frozen=True)
class ShardProblem:
    """A sliced sub-instance plus its local -> global maps."""

    problem: MulticastAssociationProblem
    users: tuple[int, ...]  # local user i  ->  global user users[i]
    aps: tuple[int, ...]  # local AP j    ->  global AP aps[j]
    # The same two maps as read-only int64 arrays.
    user_index: np.ndarray = field(repr=False, compare=False)
    ap_index: np.ndarray = field(repr=False, compare=False)

    def global_user(self, local: int) -> int:
        return self.users[local]

    def global_ap(self, local: int) -> int:
        return self.aps[local]

    def map_assignment(self, local_map: Sequence[int | None]) -> list[tuple[int, int]]:
        """Translate a local ``ap_of_user`` into global (user, ap) pairs."""
        held = np.fromiter(
            (-1 if a is None else a for a in local_map),
            dtype=np.int64,
            count=len(local_map),
        )
        users, aps = self.global_pairs(held)
        return list(zip(users.tolist(), aps.tolist(), strict=True))

    def global_pairs(self, held: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Translate a local int64 map (``-1`` = unserved) into read-only
        global ``(users, aps)`` arrays, users ascending."""
        if held.size != len(self.users):
            raise ModelError(
                f"shard has {len(self.users)} users, map covers {held.size}"
            )
        served = np.flatnonzero(held >= 0)
        users = self.user_index[served]
        aps = self.ap_index[held[served]]
        users.setflags(write=False)
        aps.setflags(write=False)
        return users, aps


class Shard:
    """One shard of the partition: its APs and users, no problem bound.

    The engine owns the one current problem and hands it to
    :meth:`slice` and :meth:`block_digest` on every call.
    """

    def __init__(self, index: int, component: Component) -> None:
        self.index = index
        self.aps = component.aps
        self.users = component.users
        self.user_set = frozenset(component.users)
        self.ap_set = frozenset(component.aps)
        self.ap_index = np.asarray(component.aps, dtype=np.int64)
        self.ap_index.setflags(write=False)
        self._ap_local = {ap: j for j, ap in enumerate(component.aps)}
        self._user_local = {u: i for i, u in enumerate(component.users)}
        self._digest_rates: np.ndarray | None = None
        self._block_digest = b""

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

    def block_digest(self, problem: MulticastAssociationProblem) -> bytes:
        """SHA-256 of ``problem``'s link rates over this shard's full
        ``aps × users`` block.

        The digest of the last rate-matrix object hashed is cached: a
        problem carrying that same array is answered from the cache, any
        other ``link_rates`` array is hashed afresh.
        """
        rates = problem.link_rates
        if rates is not self._digest_rates:
            self._block_digest = _hash_block(rates, self.aps, self.users)
            self._digest_rates = rates
        return self._block_digest

    def active_users(self, active: Iterable[int]) -> tuple[int, ...]:
        """The shard's users intersected with ``active``, ascending."""
        return tuple(sorted(self.user_set.intersection(active)))

    def slice(
        self,
        problem: MulticastAssociationProblem,
        users: tuple[int, ...] | None = None,
    ) -> ShardProblem:
        """The sub-problem of ``problem`` over this shard's APs and
        ``users`` (ascending, as :meth:`active_users` returns them; all of
        the shard's users by default).

        Keeps every session (ids stay stable), slices the rate matrix with
        sorted index vectors (orders stay stable), and carries the per-AP
        budgets and per-session transmission policies over verbatim. A
        shard holding every AP slices the user axis only.
        """
        if users is None:
            users = self.users
        columns = np.asarray(users, dtype=np.int64)
        columns.setflags(write=False)
        if len(self.aps) == problem.n_aps:  # sorted, distinct: all APs
            rates = np.take(problem.link_rates, columns, axis=1)
            budgets = problem.budgets
        else:
            rates = problem.link_rates[np.ix_(self.aps, columns)]
            budgets = problem.budgets[list(self.aps)]
        sub = MulticastAssociationProblem(
            rates,
            problem.session_index[columns],
            problem.sessions,
            budgets,
            problem.session_policies,
        )
        return ShardProblem(
            problem=sub,
            users=users,
            aps=self.aps,
            user_index=columns,
            ap_index=self.ap_index,
        )

    def __repr__(self) -> str:
        return (
            f"Shard(index={self.index}, aps={self.n_aps}, users={self.n_users})"
        )


def _hash_block(
    rates: np.ndarray, aps: Sequence[int], users: Sequence[int]
) -> bytes:
    return sha256(rates[np.ix_(aps, users)].tobytes()).digest()


def build_shards(plan: ShardPlan) -> list[Shard]:
    """Materialize every shard of ``plan``."""
    return [
        Shard(index, component) for index, component in enumerate(plan.shards)
    ]


def stitch_assignment(
    problem: MulticastAssociationProblem,
    pairs: Iterable[tuple[int, int]],
) -> Assignment:
    """Global assignment from per-shard (user, AP) pairs
    (:func:`stitch_arrays` over the pairs' two columns)."""
    flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64)
    return stitch_arrays(problem, flat[0::2], flat[1::2])


def stitch_arrays(
    problem: MulticastAssociationProblem,
    users: np.ndarray,
    aps: np.ndarray,
) -> Assignment:
    """Global assignment from parallel int64 ``users``/``aps`` arrays,
    one entry per (user, AP) pair, scattered into one int64 map.

    Users appearing in no pair stay unserved. Shards are user-disjoint, so
    a duplicate user holding two APs indicates a bug in the caller's shard
    bookkeeping; the error names the *first* conflicting pair. A repeated
    identical pair is harmless. An AP out of range raises for the lowest
    user holding one.
    """
    n_users = problem.n_users
    if users.size and (users.min() < 0 or users.max() >= n_users):
        bad = (users < 0) | (users >= n_users)
        raise ModelError(f"unknown user {users[bad.argmax()]}")
    held = np.full(n_users, -1, dtype=np.int64)
    held[users] = aps
    if (held[users] != aps).any():
        _raise_first_conflict(users.tolist(), aps.tolist())
    if aps.size and (aps.min() < 0 or aps.max() >= problem.n_aps):
        user = int(users[(aps < 0) | (aps >= problem.n_aps)].min())
        raise ModelError(f"user {user} assigned to unknown AP {held[user]}")
    return Assignment._of(problem, held)


def _raise_first_conflict(users: list[int], aps: list[int]) -> None:
    """Walk the pairs in order and blame the first user whose AP differs
    from the one its first pair gave it."""
    first: dict[int, int] = {}
    for user, ap in zip(users, aps, strict=True):
        held = first.setdefault(user, ap)
        if held != ap:
            raise ModelError(
                f"user {user} assigned by two shards ({held}, {ap})"
            )
