"""Shard slicing — per-shard sub-problems over sorted int64 index arrays.

A :class:`Shard` freezes one entry of a :class:`~repro.engine.partition.
ShardPlan` as two read-only, ascending int64 arrays, ``aps`` and
``users``, and can slice a parent problem into a self-contained
:class:`~repro.core.problem.MulticastAssociationProblem` over the shard's
APs and (a subset of) its users. The index maps are positional: local AP
``j`` is ``aps[j]`` and local user ``i`` is ``users[i]`` of the
:class:`ShardProblem`, and :meth:`ShardProblem.global_pairs` applies them
to a whole local map at once.

Both slicings keep indices ascending, so the sub-problem's candidate-set
enumeration order, tie-breaks and floating-point costs coincide exactly
with the monolithic solver's restriction to the shard — the invariant the
engine's equivalence guarantee rests on. The full session catalog is kept
(unused sessions simply produce no candidate sets), so session ids and
stream rates need no remapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256

import numpy as np

from repro.core.assignment import Assignment
from repro.core.errors import ModelError
from repro.core.problem import MulticastAssociationProblem
from repro.engine.partition import Component, ShardPlan


@dataclass(frozen=True, eq=False)
class ShardProblem:
    """A sliced sub-instance plus its local -> global index arrays."""

    problem: MulticastAssociationProblem
    users: np.ndarray  # local user i -> global user users[i]
    aps: np.ndarray  # local AP j -> global AP aps[j]

    def global_pairs(self, held: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Translate a local int64 map (``-1`` = unserved) into read-only
        global ``(users, aps)`` arrays, users ascending."""
        if held.size != self.users.size:
            raise ModelError(
                f"shard has {self.users.size} users, map covers {held.size}"
            )
        served = np.flatnonzero(held >= 0)
        users = self.users[served]
        aps = self.aps[held[served]]
        users.setflags(write=False)
        aps.setflags(write=False)
        return users, aps


class Shard:
    """One shard of the partition: its APs and users, no problem bound.

    ``aps`` and ``users`` are read-only int64 arrays, ascending. The
    engine owns the one current problem and hands it to :meth:`slice`
    and :meth:`block_digest` on every call.
    """

    def __init__(self, index: int, component: Component) -> None:
        self.index = index
        self.aps = _index_array(component.aps)
        self.users = _index_array(component.users)
        self._digest_rates: np.ndarray | None = None
        self._block_digest = b""

    @property
    def n_users(self) -> int:
        return self.users.size

    @property
    def n_aps(self) -> int:
        return self.aps.size

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

    def active_users(self, mask: np.ndarray) -> np.ndarray:
        """The shard's users that the global bool ``mask`` marks: a
        read-only int64 array, ascending."""
        users = self.users[mask[self.users]]
        users.setflags(write=False)
        return users

    def slice(
        self,
        problem: MulticastAssociationProblem,
        users: np.ndarray | None = None,
    ) -> ShardProblem:
        """The sub-problem of ``problem`` over this shard's APs and
        ``users`` (an ascending int64 array, as :meth:`active_users`
        returns it; all of the shard's users by default).

        Keeps every session (ids stay stable), slices the rate matrix with
        sorted index vectors (orders stay stable), and carries the per-AP
        budgets and per-session transmission policies over verbatim. A
        shard holding every AP slices the user axis only.
        """
        if users is None:
            users = self.users
        if self.aps.size == problem.n_aps:  # sorted, distinct: all APs
            rates = np.take(problem.link_rates, users, axis=1)
            budgets = problem.budgets
        else:
            rates = problem.link_rates[np.ix_(self.aps, users)]
            budgets = problem.budgets[self.aps]
        sub = MulticastAssociationProblem(
            rates,
            problem.session_index[users],
            problem.sessions,
            budgets,
            problem.session_policies,
        )
        return ShardProblem(problem=sub, users=users, aps=self.aps)

    def __repr__(self) -> str:
        return (
            f"Shard(index={self.index}, aps={self.n_aps}, users={self.n_users})"
        )


def _index_array(indices: tuple[int, ...]) -> np.ndarray:
    array = np.asarray(indices, dtype=np.int64)
    array.setflags(write=False)
    return array


def _hash_block(rates: np.ndarray, aps: np.ndarray, users: np.ndarray) -> bytes:
    return sha256(rates[np.ix_(aps, users)].tobytes()).digest()


def build_shards(plan: ShardPlan) -> list[Shard]:
    """Materialize every shard of ``plan``."""
    return [
        Shard(index, component) for index, component in enumerate(plan.shards)
    ]


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
