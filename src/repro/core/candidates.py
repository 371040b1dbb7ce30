"""Candidate-set construction — the reduction shared by MNU, BLA and MLA.

Sections 4–6 of the paper reduce all three problems to covering problems
over the same family of sets: for every (AP ``a``, session ``s``, transmit
rate ``r``) the set of users requesting ``s`` whose link rate to ``a`` is at
least ``r``, with cost ``rate(s) / r``. Sets belonging to one AP form that
AP's *group* (for the group-budget problems).

Only transmit rates equal to some user's link rate are useful: any rate
strictly between two consecutive link-rate values covers the same users as
the next link-rate value up, at strictly higher cost. ``build_candidates``
therefore emits one set per distinct link-rate value by default, which is a
lossless pruning; ``prune=False`` emits one set per rate-table value instead
(matching the paper's raw construction, used in tests).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from repro.core.ledger import policy_airtime
from repro.core.problem import TX_LEGACY, MulticastAssociationProblem
from repro.vec import backend


@dataclass(frozen=True, slots=True)
class CandidateSet:
    """One (AP, session, rate) covering set of the reduction."""

    ap: int
    session: int
    tx_rate: float
    cost: float
    users: frozenset[int]

    def __post_init__(self) -> None:
        if self.tx_rate <= 0:
            raise ValueError("tx rate must be positive")
        if self.cost <= 0:
            raise ValueError("cost must be positive")
        if not self.users:
            raise ValueError("a candidate set must cover at least one user")

    @property
    def size(self) -> int:
        return len(self.users)

    def __repr__(self) -> str:
        return (
            f"CandidateSet(ap={self.ap}, session={self.session}, "
            f"rate={self.tx_rate:g}, cost={self.cost:.4f}, "
            f"users={sorted(self.users)})"
        )


def build_candidates(
    problem: MulticastAssociationProblem,
    *,
    prune: bool = True,
    rate_grid: Sequence[float] | None = None,
) -> list[CandidateSet]:
    """All candidate sets of the reduction, grouped implicitly by AP.

    With ``prune=True`` (default) the transmit rates considered at an AP for
    a session are exactly the distinct link rates of that session's in-range
    users — the lossless pruning described above. With ``prune=False`` and a
    ``rate_grid`` (e.g. the 802.11a table rates) a set is emitted for every
    grid rate that at least one user can decode.
    """
    candidates: list[CandidateSet] = []
    for ap in range(problem.n_aps):
        for session in range(problem.n_sessions):
            listeners = [
                (problem.link_rate(ap, u), u)
                for u in problem.users_of_session(session)
                if problem.in_range(ap, u)
            ]
            if not listeners:
                continue
            if prune:
                rates: Iterable[float] = sorted({rate for rate, _ in listeners})
            else:
                if rate_grid is None:
                    raise ValueError("prune=False requires a rate_grid")
                max_link = max(rate for rate, _ in listeners)
                rates = [r for r in rate_grid if r <= max_link]
            policy = problem.policy_of(session)
            for tx_rate in rates:
                users = frozenset(u for rate, u in listeners if rate >= tx_rate)
                if not users:
                    continue
                if policy == TX_LEGACY:
                    cost = problem.transmission_cost(session, tx_rate)
                else:
                    cost = policy_airtime(
                        policy,
                        problem.session_rate(session),
                        [rate for rate, _ in listeners if rate >= tx_rate],
                    )
                candidates.append(
                    CandidateSet(
                        ap=ap,
                        session=session,
                        tx_rate=tx_rate,
                        cost=cost,
                        users=users,
                    )
                )
    return candidates


class CandidateFamily:
    """The flat (array-backed) twin of a ``list[CandidateSet]``.

    Per-candidate attributes live in parallel stdlib arrays (``'q'`` =
    int64, ``'d'`` = float64) and session membership in one CSR table:
    candidate ``k`` covers ``members[offsets[k]:offsets[k+1]]``, always
    ascending. :meth:`arrays` views the same buffers zero-copy through
    :mod:`repro.vec.backend`, together with the incidence tables the
    greedy needs; it is built once and kept for the family's lifetime.

    A family built by :func:`build_family` enumerates candidates in
    exactly :func:`build_candidates`' order and carries bit-identical
    costs and rates; :meth:`from_candidates` flattens that scalar list
    into the reference family the differential tests compare against,
    and the scalar MNU and MLA references' picks into a family of their
    own.
    """

    __slots__ = (
        "n_users",
        "n_aps",
        "ap",
        "session",
        "tx_rate",
        "cost",
        "offsets",
        "members",
        "_arrays",
    )

    def __init__(
        self,
        *,
        n_users: int,
        n_aps: int,
        ap: array,
        session: array,
        tx_rate: array,
        cost: array,
        offsets: array,
        members: array,
    ) -> None:
        self.n_users = n_users
        self.n_aps = n_aps
        self.ap = ap
        self.session = session
        self.tx_rate = tx_rate
        self.cost = cost
        self.offsets = offsets
        self.members = members
        self._arrays: FamilyArrays | None = None

    @property
    def n_candidates(self) -> int:
        return len(self.ap)

    def __len__(self) -> int:
        return len(self.ap)

    def members_of(self, k: int) -> array:
        """Candidate ``k``'s covered users, ascending (a fresh array)."""
        return self.members[self.offsets[k] : self.offsets[k + 1]]

    def arrays(self) -> FamilyArrays:
        """The family's numpy side, built on first use and kept."""
        if self._arrays is None:
            self._arrays = FamilyArrays(self)
        return self._arrays

    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """The inverted CSR: user ``u`` is covered by candidates
        ``inc_candidates[inc_offsets[u]:inc_offsets[u+1]]``, ascending."""
        arrays = self.arrays()
        return arrays.inc_offsets, arrays.inc_candidates

    def candidate(self, k: int) -> CandidateSet:
        """Materialize candidate ``k`` as a classic :class:`CandidateSet`."""
        return CandidateSet(
            ap=self.ap[k],
            session=self.session[k],
            tx_rate=self.tx_rate[k],
            cost=self.cost[k],
            users=frozenset(self.members_of(k)),
        )

    @classmethod
    def from_candidates(
        cls,
        candidates: Sequence[CandidateSet],
        *,
        n_users: int,
        n_aps: int,
    ) -> "CandidateFamily":
        """Flatten a scalar candidate list (order preserved, members sorted)."""
        ordered = [sorted(c.users) for c in candidates]
        return cls(
            n_users=n_users,
            n_aps=n_aps,
            ap=array("q", [c.ap for c in candidates]),
            session=array("q", [c.session for c in candidates]),
            tx_rate=array("d", [c.tx_rate for c in candidates]),
            cost=array("d", [c.cost for c in candidates]),
            offsets=array("q", accumulate(map(len, ordered), initial=0)),
            members=array("q", chain.from_iterable(ordered)),
        )


class FamilyArrays:
    """What the flat greedy reads of a family, set up once per family.

    ``offsets``, ``members`` and ``ap`` are int64 and ``cost`` float64
    views of the family's columns. ``inc_offsets``/``inc_candidates`` is
    the user → candidates inverted CSR, built by
    :func:`repro.vec.backend.invert_csr`, whose stable sort keeps each
    user's candidate list ascending — the order the greedy tie-break
    contract requires. :meth:`groups` adds the AP → candidates CSR on
    first use, since only the group-budgeted greedy reads it.
    """

    __slots__ = (
        "n_aps",
        "offsets",
        "members",
        "ap",
        "cost",
        "inc_offsets",
        "inc_candidates",
        "_groups",
    )

    def __init__(self, family: CandidateFamily) -> None:
        self.n_aps = family.n_aps
        self.offsets = backend.as_int64(family.offsets)
        self.members = backend.as_int64(family.members)
        self.ap = backend.as_int64(family.ap)
        self.cost = backend.as_float64(family.cost)
        self.inc_offsets, self.inc_candidates = backend.invert_csr(
            self.offsets, self.members, family.n_users
        )
        self._groups: tuple[np.ndarray, np.ndarray] | None = None

    def groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The AP → candidates CSR: AP ``a`` owns candidates
        ``group_candidates[group_offsets[a]:group_offsets[a+1]]``."""
        if self._groups is None:
            self._groups = backend.invert_csr(
                np.arange(self.ap.size + 1, dtype=np.int64),
                self.ap,
                self.n_aps,
            )
        return self._groups


def build_family(problem: MulticastAssociationProblem) -> CandidateFamily:
    """The pruned candidate family in one array pass over the in-range links.

    Mirrors :func:`build_candidates` exactly: the distinct (AP, session,
    link rate) triples of the in-range links, ascending, are the scalar
    loop's (AP, session, transmit rate) enumeration. A link covers every
    candidate of its (AP, session) group at or below its own rate, so
    repeating each link — in (AP, user) order — once per such candidate
    and stable-sorting by candidate yields every member list in ascending
    user order. Legacy costs are the ``rate(s) / r`` float division of
    ``transmission_cost``; other policies are priced per candidate through
    :func:`~repro.core.ledger.policy_airtime` on the members' rates in
    ascending user order — so the family is bit-identical to the scalar
    reference, ``CandidateFamily.from_candidates(build_candidates(problem))``.
    """
    rates = problem.link_rates
    n_sessions = problem.n_sessions
    in_range = np.flatnonzero(rates > 0)  # (AP, user) ascending
    link_ap, link_user = np.divmod(in_range, max(problem.n_users, 1))
    link_group = link_ap * n_sessions + problem.session_index[link_user]
    link_rate = np.take(rates, in_range)

    # Candidates: the distinct (group, rate) pairs, ascending.
    by_rate = backend.lexsort_by_key(
        link_rate, link_group, problem.n_aps * n_sessions
    )
    sorted_group = link_group[by_rate]
    sorted_rate = link_rate[by_rate]
    fresh = np.ones(sorted_group.size, dtype=bool)
    fresh[1:] = (sorted_group[1:] != sorted_group[:-1]) | (
        sorted_rate[1:] != sorted_rate[:-1]
    )
    cand_group = sorted_group[fresh]
    cand_rate = sorted_rate[fresh]
    n_cand = cand_group.size
    group_start = np.ones(n_cand, dtype=bool)
    group_start[1:] = cand_group[1:] != cand_group[:-1]
    first_of_group = np.maximum.accumulate(
        np.where(group_start, np.arange(n_cand, dtype=np.int64), 0)
    )

    # Link i covers candidates lowest[i]..highest[i] of its group; the
    # pairs list them link by link, and pair p of link i (which starts at
    # pair starts[i]) is candidate lowest[i] + p - starts[i].
    highest = np.empty(link_rate.size, dtype=np.int64)
    highest[by_rate] = np.cumsum(fresh) - 1
    lowest = first_of_group[highest]
    spans = highest - lowest + 1
    starts = np.cumsum(spans) - spans
    pair_cand = np.repeat(lowest - starts, spans) + np.arange(
        int(spans.sum()), dtype=np.int64
    )
    members = np.repeat(link_user, spans)[
        backend.stable_argsort(pair_cand, n_cand)
    ]
    offsets = np.zeros(n_cand + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_cand, minlength=n_cand), out=offsets[1:])

    cand_ap = cand_group // n_sessions
    cand_session = cand_group % n_sessions
    session_rates = np.asarray(
        [s.rate_mbps for s in problem.sessions], dtype=np.float64
    )
    cost = session_rates[cand_session] / cand_rate
    if not problem.all_legacy:
        for k in range(n_cand):
            session = int(cand_session[k])
            policy = problem.policy_of(session)
            if policy != TX_LEGACY:
                covered = members[offsets[k] : offsets[k + 1]]
                cost[k] = policy_airtime(
                    policy,
                    problem.session_rate(session),
                    rates[cand_ap[k], covered].tolist(),
                )
    return CandidateFamily(
        n_users=problem.n_users,
        n_aps=problem.n_aps,
        ap=array("q", cand_ap.tobytes()),
        session=array("q", cand_session.tobytes()),
        tx_rate=array("d", cand_rate.tobytes()),
        cost=array("d", cost.tobytes()),
        offsets=array("q", offsets.tobytes()),
        members=array("q", members.tobytes()),
    )


def group_by_ap(
    candidates: Iterable[CandidateSet], n_aps: int
) -> list[list[CandidateSet]]:
    """Partition candidates into the per-AP groups of the MCG/SCG reductions."""
    groups: list[list[CandidateSet]] = [[] for _ in range(n_aps)]
    for candidate in candidates:
        groups[candidate.ap].append(candidate)
    return groups


def coverable_users(candidates: Iterable[CandidateSet]) -> set[int]:
    """Users appearing in at least one candidate set."""
    covered: set[int] = set()
    for candidate in candidates:
        covered |= candidate.users
    return covered


def restrict_to_users(
    candidates: Iterable[CandidateSet],
    users: set[int],
    *,
    problem: MulticastAssociationProblem | None = None,
) -> list[CandidateSet]:
    """Candidates intersected with ``users``; empty intersections dropped.

    Used by the iterated-MNU loop of Centralized BLA, which removes covered
    elements from the ground set between iterations. Under the legacy
    policy a set's cost depends only on its transmit rate, so the cost is
    carried over unchanged. Non-legacy costs depend on the member multiset;
    pass ``problem`` to re-price shrunk sets under the session's policy
    (legacy candidates are still carried over bit-identically).
    """
    restricted: list[CandidateSet] = []
    for candidate in candidates:
        remaining = candidate.users & users
        if not remaining:
            continue
        cost = candidate.cost
        if problem is not None and len(remaining) < len(candidate.users):
            policy = problem.policy_of(candidate.session)
            if policy != TX_LEGACY:
                cost = policy_airtime(
                    policy,
                    problem.session_rate(candidate.session),
                    [problem.link_rate(candidate.ap, u) for u in sorted(remaining)],
                )
        restricted.append(
            CandidateSet(
                ap=candidate.ap,
                session=candidate.session,
                tx_rate=candidate.tx_rate,
                cost=cost,
                users=frozenset(remaining),
            )
        )
    return restricted
