"""The load ledger — the one incremental implementation of Definition 1.

Every layer of the library needs the same primitive: the per-AP multicast
load ``session_rate / tx_rate`` (the paper's Definition 1) and its
*marginal change* when a user joins, leaves, or moves. Before this module
existed that primitive was re-implemented — and re-derived from scratch on
every query — in the assignment model, the distributed protocol, the
greedy solvers, the online controller, and the evaluation metrics.
:class:`LoadLedger` now owns it once:

* per-(AP, session) **rate multisets** (a count map plus a sorted unique
  rate list) make the group transmit rate — the minimum member link rate —
  an O(1) peek and an O(log m) update;
* a cached **per-AP load vector** (numpy) makes ``load_of`` / ``max_load``
  / ``sorted_load_vector`` reads O(1)/O(n log n) with no recompute;
* ``delta_if_joined`` / ``delta_if_left`` / ``load_if_joined`` /
  ``load_if_left`` answer the greedy and best-response *gain queries*
  without building throwaway assignments;
* :class:`CandidateGainIndex` keeps the reference MCG greedy's per-round
  cost-effectiveness table current incrementally, as plain lists.

Readers that only want the numbers skip the ledger: :func:`price_loads`
computes the per-AP loads of a whole map from int64 arrays, through the
same bulk grouping pass the ledger's construction uses, and
:class:`~repro.core.assignment.Assignment` reads its loads that way.

**Transmission policies.** The kernel is parameterized by each session's
transmission policy (:data:`repro.core.problem.TX_POLICIES`): ``legacy``
prices a group as ``session_rate / min(member rates)`` (Definition 1,
:func:`multicast_airtime`), ``dms`` as per-user unicast copies
(:func:`dms_airtime`), and ``hybrid`` as the airtime-minimizing rate
split (:func:`hybrid_split`). Legacy sessions take the exact pre-policy
code path — same expressions on the same floats — so an all-legacy
ledger is bit-identical to the unparameterized kernel it replaced.

**Exactness contract.** A per-AP load is always ``math.fsum`` of its
per-session transmission costs. ``fsum`` is exactly rounded and therefore
order-independent, so the ledger's loads are a *pure function of the
association map*: any sequence of joins/leaves/moves reaching the same map
yields bit-identical loads, equal to a from-scratch recompute. The
verifier's independent oracle
(:func:`repro.verify.certificates._recompute_group_loads`) rounds the
same way, which is what lets the property tests demand exact — not
approximate — agreement.

The runtime sanitizer mode (``REPRO_SANITIZE=1``, see
:func:`repro.core.instrument.sanitize_enabled`) arms a debug invariant:
after construction and after every mutation the ledger cross-checks its
cached loads against a naive from-scratch recompute
(:func:`recompute_loads`), raises :class:`~repro.core.errors.ModelError`
on any disagreement, and counts each sweep as ``sanitize.ledger_checks``;
an assignment's priced vector gets the same check, counted as
``sanitize.price_checks``. Tests arm the ledger's check on a single
ledger with ``LoadLedger(check=True)``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core import instrument
from repro.core.errors import ModelError
from repro.core.problem import (
    TX_DMS,
    TX_HYBRID,
    TX_LEGACY,
    MulticastAssociationProblem,
)
from repro.vec import backend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.assignment import Assignment
    from repro.core.candidates import CandidateSet

def multicast_airtime(
    session_rate: float, member_rates: Iterable[float]
) -> float:
    """Definition 1 for a single multicast group.

    The airtime of transmitting a ``session_rate`` stream to the group is
    ``session_rate / min(member_rates)`` — the AP serves the slowest
    member. A non-positive minimum (an out-of-range member) makes the
    group unservable: the airtime is ``inf``. ``member_rates`` must be
    non-empty.

    This helper exists so layers that keep only a *local* group view —
    the protocol-simulation AP in :mod:`repro.net.nodes` — share the one
    load kernel instead of re-deriving it (replint rule RPL001).
    """
    tx_rate = min(member_rates)
    if tx_rate <= 0:
        return math.inf
    return session_rate / tx_rate


def local_ap_load(
    groups: Iterable[tuple[float, Iterable[float]]]
) -> float:
    """One AP's multicast load from its local ``(session_rate,
    member_rates)`` group view: the exactly rounded (``fsum``) sum of
    :func:`multicast_airtime` over the groups — the same rounding the
    ledger's cached per-AP loads use, so a protocol-level AP and a
    ledger over the same association agree bit for bit."""
    return math.fsum(
        multicast_airtime(session_rate, member_rates)
        for session_rate, member_rates in groups
    )


def dms_airtime(
    session_rate: float, member_rates: Iterable[float]
) -> float:
    """Airtime of one group under DMS: per-user unicast copies.

    Each member receives its own copy at its own link rate, so the group
    airtime is the exactly rounded (``fsum``) sum of ``session_rate /
    rate`` over the member-rate *multiset*. ``fsum`` is order-independent,
    which keeps this — like the legacy kernel — a pure function of the
    membership. An out-of-range member (rate ≤ 0) makes the group
    unservable (``inf``). ``member_rates`` must be non-empty.
    """
    terms: list[float] = []
    for rate in member_rates:
        if rate <= 0:
            return math.inf
        terms.append(session_rate / rate)
    if not terms:
        raise ValueError("a multicast group must have at least one member")
    return math.fsum(terms)


def hybrid_split(
    session_rate: float, member_rates: Iterable[float]
) -> tuple[float, float]:
    """The airtime-minimizing rate split of one group: ``(threshold,
    airtime)``.

    The SDN@Play-style hybrid policy serves members at or above a
    threshold rate ``T`` with one multicast transmission at ``T`` and the
    slow tail (rate < ``T``) with per-user unicast copies. Only thresholds
    equal to some member's link rate are useful (raising ``T`` between two
    member rates shrinks nothing out of the tail but slows nobody down —
    the multicast cost ``session_rate / T`` only improves at the next
    member rate), so the search scans the distinct member rates ascending
    and keeps the strictly best airtime; ties break toward the *lowest*
    threshold, making the choice deterministic. ``T = min(member_rates)``
    reproduces the legacy airtime bit for bit, so the optimum is never
    worse than legacy; ``T = max`` is never worse than DMS — which is the
    ``hybrid ≤ min(legacy, DMS)`` property the tests pin down.

    Returns ``(0.0, inf)`` when any member is out of range (rate ≤ 0).
    """
    rates = sorted(member_rates)
    if not rates:
        raise ValueError("a multicast group must have at least one member")
    if rates[0] <= 0:
        return 0.0, math.inf
    best_threshold = rates[0]
    best_cost = session_rate / rates[0]  # T = min: exactly the legacy cost
    for i in range(1, len(rates)):
        threshold = rates[i]
        if threshold == rates[i - 1]:
            continue
        cost = math.fsum(
            [session_rate / r for r in rates[:i]] + [session_rate / threshold]
        )
        if cost < best_cost:
            best_cost = cost
            best_threshold = threshold
    return best_threshold, best_cost


def hybrid_airtime(
    session_rate: float, member_rates: Iterable[float]
) -> float:
    """Airtime of one group under the hybrid rate-split policy (the
    minimum of :func:`hybrid_split`'s threshold search)."""
    return hybrid_split(session_rate, member_rates)[1]


def policy_airtime(
    policy: str, session_rate: float, member_rates: Iterable[float]
) -> float:
    """One group's airtime under ``policy`` — the kernel dispatch every
    policy-aware layer prices through (replint rule RPL001)."""
    if policy == TX_LEGACY:
        return multicast_airtime(session_rate, member_rates)
    if policy == TX_DMS:
        return dms_airtime(session_rate, member_rates)
    if policy == TX_HYBRID:
        return hybrid_airtime(session_rate, member_rates)
    raise ModelError(f"unknown transmission policy {policy!r}")


class _GroupRuns(NamedTuple):
    """Served users laid out group by group: one lexsort by (AP,
    session, link rate) makes every (AP, session) group a run of members
    with its rates ascending, and the groups come in (AP, session) order,
    so every AP's groups are a run too."""

    rates: np.ndarray  # member link rates, ascending within each group
    users: np.ndarray  # the members, in the same order
    edges: np.ndarray  # group g is [edges[g], edges[g + 1]); ends at n
    ap: np.ndarray  # per group
    session: np.ndarray  # per group


def _group_runs(
    problem: MulticastAssociationProblem, users: np.ndarray, aps: np.ndarray
) -> _GroupRuns:
    """The one bulk grouping pass over served ``users`` held by ``aps``
    (parallel int64 arrays, every AP in range)."""
    n_sessions = problem.n_sessions
    key = aps * n_sessions + problem.session_index[users]
    rates = problem.link_rates[aps, users]
    order = backend.lexsort_by_key(rates, key, problem.n_aps * n_sessions)
    key = key[order]
    n = key.size
    new_group = np.ones(n + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new_group[1:n])
    edges = np.flatnonzero(new_group)
    ap, session = np.divmod(key[edges[:-1]], n_sessions)
    return _GroupRuns(rates[order], users[order], edges, ap, session)


def price_loads(
    problem: MulticastAssociationProblem, users: np.ndarray, aps: np.ndarray
) -> np.ndarray:
    """Per-AP loads of the map that serves ``users`` at ``aps`` (parallel
    int64 arrays, every AP in range), without a ledger.

    Bit-identical to :meth:`LoadLedger.loads` over the same map: a legacy
    group costs ``session_rate / min rate`` — the IEEE division of
    :meth:`~repro.core.problem.MulticastAssociationProblem.
    transmission_cost`, ``inf`` for an out-of-range member — and a DMS or
    hybrid group goes through :func:`policy_airtime` on its rates. An AP's
    load is the ``math.fsum`` of its groups' costs; an AP that serves
    nobody reads 0.0.
    """
    loads = np.zeros(problem.n_aps, dtype=np.float64)
    runs = _group_runs(problem, users, aps)
    start = runs.edges[:-1]
    stream = np.array(
        [s.rate_mbps for s in problem.sessions], dtype=np.float64
    )[runs.session]
    min_rate = runs.rates[start]
    cost = np.full(start.size, math.inf)
    np.divide(stream, min_rate, out=cost, where=min_rate > 0)
    if not problem.all_legacy:
        policies = problem.session_policies
        legacy = np.array([p == TX_LEGACY for p in policies])[runs.session]
        bounds = runs.edges.tolist()
        sessions = runs.session.tolist()
        for g in np.flatnonzero(~legacy).tolist():
            session = sessions[g]
            cost[g] = policy_airtime(
                policies[session],
                problem.session_rate(session),
                runs.rates[bounds[g] : bounds[g + 1]].tolist(),
            )
    new_ap = np.ones(start.size + 1, dtype=bool)
    np.not_equal(runs.ap[1:], runs.ap[:-1], out=new_ap[1:-1])
    ap_edges = np.flatnonzero(new_ap).tolist()
    costs = cost.tolist()
    group_ap = runs.ap.tolist()
    for lo, hi in zip(ap_edges, ap_edges[1:]):
        loads[group_ap[lo]] = math.fsum(costs[lo:hi])
    return loads


def recompute_loads(
    problem: MulticastAssociationProblem,
    ap_of_user: Sequence[int | None],
) -> list[float]:
    """Per-AP loads re-derived from the map one user at a time, sharing
    nothing with the bulk passes — the from-scratch recompute the
    sanitizer's invariants (and the property tests) compare against."""
    members: dict[tuple[int, int], list[int]] = {}
    for user, ap in enumerate(ap_of_user):
        if ap is not None:
            members.setdefault((ap, problem.session_of(user)), []).append(user)
    costs: list[list[float]] = [[] for _ in range(problem.n_aps)]
    for (ap, session), users in members.items():
        costs[ap].append(
            policy_airtime(
                problem.policy_of(session),
                problem.session_rate(session),
                [problem.link_rate(ap, u) for u in users],
            )
        )
    return [math.fsum(c) if c else 0.0 for c in costs]


def check_loads(
    problem: MulticastAssociationProblem,
    ap_of_user: Sequence[int | None],
    loads: Sequence[float],
    what: str,
) -> None:
    """Raise :class:`ModelError` unless ``loads`` match
    :func:`recompute_loads` of the map bit for bit; ``what`` names the
    holder of ``loads`` in the message."""
    expected = recompute_loads(problem, ap_of_user)
    for ap, (want, have) in enumerate(zip(expected, loads, strict=True)):
        # The invariant is bit-exactness, so this one comparison really
        # does want ``==`` on floats.
        same = want == have
        same = same or (math.isnan(want) and math.isnan(have))
        if not same:
            raise ModelError(
                f"{what} invariant violated: AP {ap} cached load "
                f"{have!r} != recomputed {want!r}"
            )


class _RateGroup:
    """One (AP, session) multicast group: members and their rate multiset.

    ``rates`` holds the distinct member link rates sorted ascending;
    ``counts`` their multiplicities. The group transmit rate — the minimum
    member link rate (Definition 1) — is ``rates[0]``.
    """

    __slots__ = ("members", "rates", "counts")

    def __init__(self) -> None:
        self.members: set[int] = set()
        self.rates: list[float] = []
        self.counts: dict[float, int] = {}

    def add(self, user: int, rate: float) -> None:
        self.members.add(user)
        count = self.counts.get(rate)
        if count is None:
            self.counts[rate] = 1
            insort(self.rates, rate)
        else:
            self.counts[rate] = count + 1

    def remove(self, user: int, rate: float) -> None:
        self.members.discard(user)
        count = self.counts[rate]
        if count == 1:
            del self.counts[rate]
            del self.rates[bisect_left(self.rates, rate)]
        else:
            self.counts[rate] = count - 1

    @property
    def min_rate(self) -> float:
        return self.rates[0]

    def min_rate_with(self, rate: float) -> float:
        """The group's transmit rate if a member with ``rate`` joined."""
        return min(self.rates[0], rate) if self.rates else rate

    def min_rate_without(self, rate: float) -> float | None:
        """The transmit rate if one member with ``rate`` left, or ``None``
        when that member was the last one."""
        if len(self.members) <= 1:
            return None
        if self.counts.get(rate, 0) > 1 or rate > self.rates[0]:
            return self.rates[0]
        # ``rate`` is the unique minimum: the next distinct rate takes over.
        return self.rates[1]

    def expanded_rates(self) -> list[float]:
        """The member-rate multiset as a flat list (ascending), the form
        the non-legacy policy kernels price over."""
        return [
            rate for rate in self.rates for _ in range(self.counts[rate])
        ]

    def copy(self) -> "_RateGroup":
        clone = _RateGroup.__new__(_RateGroup)
        clone.members = set(self.members)
        clone.rates = list(self.rates)
        clone.counts = dict(self.counts)
        return clone


class LoadLedger:
    """Mutable association state with incrementally maintained exact loads.

    The mutable half of the paper's load model (:func:`price_loads` is
    the read-only half): protocol loops, greedy augmentation, churn repair
    and group readers hold one of these. Construction from an existing
    ``user -> AP | None`` map is one bulk pass (a lexsort of the served
    users, then one Python step per group); every mutation and gain query
    is O(k + log m) where ``k`` is the number of sessions the touched AP
    transmits and ``m`` the group size — independent of the user count.
    """

    __slots__ = (
        "_problem",
        "_map",
        "_groups",
        "_session_costs",
        "_loads",
        "_check",
        "_policies",
        "_all_legacy",
        "op_moves",
        "op_gain_queries",
        "op_load_recomputes",
        "op_policy_costs",
    )

    def __init__(
        self,
        problem: MulticastAssociationProblem,
        initial: Sequence[int | None] | None = None,
        *,
        check: bool | None = None,
    ) -> None:
        if initial is not None and len(initial) != problem.n_users:
            raise ModelError(
                f"assignment covers {len(initial)} users, "
                f"problem has {problem.n_users}"
            )
        self._problem = problem
        self._map: list[int | None] = (
            [None] * problem.n_users
            if initial is None
            else [None if a is None else int(a) for a in initial]
        )
        self._groups: dict[tuple[int, int], _RateGroup] = {}
        self._session_costs: list[dict[int, float]] = [
            {} for _ in range(problem.n_aps)
        ]
        self._loads = np.zeros(problem.n_aps, dtype=np.float64)
        self._check = instrument.sanitize_enabled() if check is None else check
        self._policies = problem.session_policies
        self._all_legacy = problem.all_legacy
        self.op_moves = 0
        self.op_gain_queries = 0
        self.op_load_recomputes = 0
        self.op_policy_costs: dict[str, int] = {}

        if initial is not None:
            for ap in self._build_groups():
                self._refresh_load(ap)
        if self._check:
            self.verify_against_recompute()

    # -- internals -------------------------------------------------------

    def _build_groups(self) -> set[int]:
        """Group the initial map's served users in bulk and price each
        group; return the APs that serve anyone.

        :func:`_group_runs` lays every group out as a run of members with
        its rates ascending, so each group's distinct rates and their
        counts are runs too. Groups are inserted in the order of their
        lowest member, the order a per-user walk over the map creates
        them, and priced through :meth:`_cost_of`. An unknown AP raises
        for the lowest user holding one.
        """
        problem = self._problem
        held = np.array(self._map, dtype=np.float64)  # None -> nan
        users = np.flatnonzero(held == held)  # served: not NaN
        if not users.size:
            return set()
        held = held[users]
        if held.min() < 0 or held.max() >= problem.n_aps:
            unknown = (held < 0) | (held >= problem.n_aps)
            user = int(users[unknown.argmax()])
            raise ModelError(
                f"user {user} assigned to unknown AP {self._map[user]}"
            )
        runs = _group_runs(problem, users, held.astype(np.int64))
        rates, users, group_edges = runs.rates, runs.users, runs.edges
        # A rate run starts where the group or the rate changes, so every
        # group start is a rate start. Both edge lists end with the
        # member count.
        n = rates.size
        new_rate = np.zeros(n + 1, dtype=bool)
        new_rate[group_edges] = True
        new_rate[1:n] |= rates[1:] != rates[:-1]
        rate_edges = np.flatnonzero(new_rate)
        bounds = group_edges.tolist()
        # Group g's (rate, count) runs are rate_counts[rate_lo[g]:rate_lo[g + 1]].
        rate_lo = np.searchsorted(rate_edges, group_edges).tolist()
        rate_counts = list(
            zip(
                rates[rate_edges[:-1]].tolist(),
                np.subtract(rate_edges[1:], rate_edges[:-1]).tolist(),
            )
        )
        members = users.tolist()
        ap_list = runs.ap.tolist()
        keys = list(zip(ap_list, runs.session.tolist()))
        new, groups, costs = _RateGroup.__new__, self._groups, self._session_costs
        first_member = np.minimum.reduceat(users, group_edges[:-1])
        for g in np.argsort(first_member).tolist():
            group = new(_RateGroup)
            group.members = set(members[bounds[g] : bounds[g + 1]])
            group.counts = dict(rate_counts[rate_lo[g] : rate_lo[g + 1]])
            group.rates = list(group.counts)  # runs come in rate order
            groups[keys[g]] = group
            ap, session = keys[g]
            costs[ap][session] = self._cost_of(session, group)
        return set(ap_list)

    def _group_for(self, ap: int, session: int) -> _RateGroup:
        group = self._groups.get((ap, session))
        if group is None:
            group = _RateGroup()
            self._groups[(ap, session)] = group
        return group

    def _group_cost(self, session: int, min_rate: float) -> float:
        """Definition 1: the airtime of transmitting ``session`` at the
        group's minimum member rate; an out-of-range member (rate 0)
        makes the group — and its AP — unservable. The legacy-policy
        cost, bit-identical to the pre-policy kernel."""
        if min_rate <= 0:
            return math.inf
        return self._problem.transmission_cost(session, min_rate)

    def _policy_cost(self, session: int, member_rates: list[float]) -> float:
        """A non-legacy session's group cost over an explicit member-rate
        multiset (counted for the ``ledger.policy_*`` obs family)."""
        policy = self._policies[session]
        self.op_policy_costs[policy] = (
            self.op_policy_costs.get(policy, 0) + 1
        )
        return policy_airtime(
            policy, self._problem.session_rate(session), member_rates
        )

    def _cost_of(self, session: int, group: _RateGroup) -> float:
        """The group's airtime under its session's policy. Legacy takes
        the min-rate fast path — the pre-policy expression on the same
        floats, so all-legacy ledgers stay bit-identical *and* O(1) per
        cost; DMS/hybrid price the full rate multiset."""
        if self._policies[session] == TX_LEGACY:
            return self._group_cost(session, group.min_rate)
        return self._policy_cost(session, group.expanded_rates())

    def _refresh_load(self, ap: int) -> None:
        """Re-round AP ``ap``'s cached load from its session costs.

        ``fsum`` keeps the cache a pure function of the association map:
        no incremental float drift, no order dependence.
        """
        self.op_load_recomputes += 1
        costs = self._session_costs[ap]
        self._loads[ap] = math.fsum(costs.values()) if costs else 0.0

    # -- accessors -------------------------------------------------------

    @property
    def problem(self) -> MulticastAssociationProblem:
        return self._problem

    @property
    def ap_of_user(self) -> list[int | None]:
        """The live ``user -> AP | None`` map (do not mutate directly)."""
        return self._map

    def ap_of(self, user: int) -> int | None:
        return self._map[user]

    def served_users(self) -> list[int]:
        return [u for u, a in enumerate(self._map) if a is not None]

    def unserved_users(self) -> list[int]:
        return [u for u, a in enumerate(self._map) if a is None]

    @property
    def n_served(self) -> int:
        return sum(1 for a in self._map if a is not None)

    def users_on(self, ap: int, session: int | None = None) -> list[int]:
        """Users associated with ``ap`` (optionally only one session's)."""
        if session is not None:
            group = self._groups.get((ap, session))
            return sorted(group.members) if group else []
        return [u for u, a in enumerate(self._map) if a == ap]

    def sessions_on(self, ap: int) -> list[int]:
        """Sessions ``ap`` is transmitting, ascending."""
        return sorted(self._session_costs[ap])

    def tx_rate(self, ap: int, session: int) -> float | None:
        """Rate ``ap`` transmits ``session`` at, or ``None`` if it doesn't."""
        group = self._groups.get((ap, session))
        if group is None or not group.members:
            return None
        return group.min_rate

    def group_items(self) -> Iterator[tuple[int, int, float, frozenset]]:
        """Every non-empty group as ``(ap, session, tx_rate, members)``.

        The granularity the verifier diffs at when a load mismatch needs
        to be pinned on a specific transmission.
        """
        for (ap, session), group in self._groups.items():
            if group.members:
                yield ap, session, group.min_rate, frozenset(group.members)

    # -- load reads ------------------------------------------------------

    def load_of(self, ap: int) -> float:
        """Multicast load of ``ap``: summed airtime of its sessions."""
        return float(self._loads[ap])

    def loads(self) -> list[float]:
        """Per-AP multicast loads."""
        return self._loads.tolist()

    def load_array(self) -> np.ndarray:
        """The per-AP load vector as a read-only numpy view (no copy)."""
        view = self._loads.view()
        view.setflags(write=False)
        return view

    def total_load(self) -> float:
        """Summed multicast load across APs (the MLA objective)."""
        return math.fsum(self._loads.tolist())

    def max_load(self) -> float:
        """Maximum per-AP multicast load (the BLA objective)."""
        return float(self._loads.max()) if self._loads.size else 0.0

    def sorted_load_vector(self) -> tuple[float, ...]:
        """Loads sorted non-increasing — the BLA comparison vector."""
        return tuple(sorted(self._loads.tolist(), reverse=True))

    # -- gain queries ----------------------------------------------------

    def _load_with_cost(
        self, ap: int, session: int, cost: float | None
    ) -> float:
        """AP ``ap``'s load with ``session``'s cost replaced (``None``
        drops the session), rounded exactly like a fresh recompute."""
        costs = self._session_costs[ap]
        values = [c for s, c in costs.items() if s != session]
        if cost is not None:
            values.append(cost)
        return math.fsum(values) if values else 0.0

    def load_if_joined(self, user: int, ap: int) -> float:
        """Load of ``ap`` if ``user`` joined it (exact, non-mutating)."""
        self.op_gain_queries += 1
        if self._map[user] == ap:
            return float(self._loads[ap])
        session = self._problem.session_of(user)
        rate = self._problem.link_rate(ap, user)
        group = self._groups.get((ap, session))
        if self._policies[session] != TX_LEGACY:
            rates = group.expanded_rates() if group else []
            rates.append(rate)
            return self._load_with_cost(
                ap, session, self._policy_cost(session, rates)
            )
        min_rate = group.min_rate_with(rate) if group else rate
        return self._load_with_cost(
            ap, session, self._group_cost(session, min_rate)
        )

    def load_if_left(self, user: int) -> float:
        """Load of the user's current AP if the user left it."""
        self.op_gain_queries += 1
        ap = self._map[user]
        if ap is None:
            raise ValueError(f"user {user} is not associated")
        session = self._problem.session_of(user)
        group = self._groups[(ap, session)]
        rate = self._problem.link_rate(ap, user)
        if self._policies[session] != TX_LEGACY:
            rates = group.expanded_rates()
            rates.remove(rate)  # drop ONE copy of the leaver's rate
            cost = (
                None if not rates else self._policy_cost(session, rates)
            )
            return self._load_with_cost(ap, session, cost)
        min_rate = group.min_rate_without(rate)
        cost = (
            None if min_rate is None else self._group_cost(session, min_rate)
        )
        return self._load_with_cost(ap, session, cost)

    def delta_if_joined(self, user: int, ap: int) -> float:
        """Marginal load increase on ``ap`` if ``user`` joined it."""
        return self.load_if_joined(user, ap) - float(self._loads[ap])

    def delta_if_left(self, user: int) -> float:
        """Marginal load change (≤ 0) on the user's AP if it left."""
        ap = self._map[user]
        if ap is None:
            raise ValueError(f"user {user} is not associated")
        return self.load_if_left(user) - float(self._loads[ap])

    def best_join_deltas(
        self, user: int, aps: Iterable[int]
    ) -> list[tuple[float, int]]:
        """Batched gain query: ``(delta_if_joined, ap)`` per candidate AP,
        sorted ascending (cheapest insertion first, ties toward lower AP
        index) — the ordering the greedy augmentation consumes."""
        return sorted((self.delta_if_joined(user, ap), ap) for ap in aps)

    # -- mutation --------------------------------------------------------

    def move(self, user: int, new_ap: int | None) -> None:
        """Reassociate ``user`` (``None`` disassociates)."""
        old_ap = self._map[user]
        if old_ap == new_ap:
            return
        self.op_moves += 1
        session = self._problem.session_of(user)
        if old_ap is not None:
            group = self._groups[(old_ap, session)]
            group.remove(user, self._problem.link_rate(old_ap, user))
            if group.members:
                self._session_costs[old_ap][session] = self._cost_of(
                    session, group
                )
            else:
                del self._groups[(old_ap, session)]
                del self._session_costs[old_ap][session]
            self._refresh_load(old_ap)
        if new_ap is not None:
            if not 0 <= new_ap < self._problem.n_aps:
                raise ModelError(f"user {user} assigned to unknown AP {new_ap}")
            group = self._group_for(new_ap, session)
            group.add(user, self._problem.link_rate(new_ap, user))
            self._session_costs[new_ap][session] = self._cost_of(
                session, group
            )
            self._refresh_load(new_ap)
        self._map[user] = new_ap
        if self._check:
            self.verify_against_recompute()

    # -- interop ---------------------------------------------------------

    def copy(self) -> "LoadLedger":
        """An independent mutable clone (op counters reset)."""
        clone: LoadLedger = LoadLedger.__new__(LoadLedger)
        clone._problem = self._problem
        clone._map = list(self._map)
        clone._groups = {
            key: group.copy() for key, group in self._groups.items()
        }
        clone._session_costs = [dict(d) for d in self._session_costs]
        clone._loads = self._loads.copy()
        clone._check = self._check
        clone._policies = self._policies
        clone._all_legacy = self._all_legacy
        clone.op_moves = 0
        clone.op_gain_queries = 0
        clone.op_load_recomputes = 0
        clone.op_policy_costs = {}
        return clone

    def to_assignment(self) -> "Assignment":
        """Freeze the current map into an immutable :class:`Assignment`."""
        from repro.core.assignment import Assignment

        return Assignment(self._problem, self._map)

    def state_key(self) -> tuple[int, ...]:
        """Hashable snapshot for cycle detection (-1 encodes unserved)."""
        return tuple(-1 if a is None else a for a in self._map)

    def op_counts(self) -> dict[str, int]:
        """Cheap always-on operation counters, for the obs layer to flush.

        Non-legacy group-cost evaluations appear as ``policy_<name>_costs``
        (the ``ledger.policy_*`` counter family) only when they happened,
        so all-legacy runs keep their pre-policy counter snapshots.
        """
        counts = {
            "moves": self.op_moves,
            "gain_queries": self.op_gain_queries,
            "load_recomputes": self.op_load_recomputes,
        }
        for policy, n in sorted(self.op_policy_costs.items()):
            counts[f"policy_{policy}_costs"] = n
        return counts

    # -- the debug invariant ---------------------------------------------

    def verify_against_recompute(self) -> None:
        """Raise :class:`ModelError` unless cached loads match a naive
        recompute bit-for-bit."""
        if instrument.sanitize_enabled():
            instrument.incr("sanitize.ledger_checks")
        check_loads(self._problem, self._map, self._loads.tolist(), "ledger")


class CandidateGainIndex:
    """Incremental cost-effectiveness queries for the MCG greedy (Fig. 3).

    Holds every candidate set's cost, group (AP), and count of still-
    uncovered elements, plus a per-element incidence index. Effectiveness
    (``uncovered / cost`` in float64) is maintained incrementally with
    ineligible candidates — selected, nothing left to cover, or group
    budget met — pinned at ``-inf``, so one greedy round — "every open
    group nominates its most cost-effective set; take the best" — is a
    single argmax over cached floats instead of a recount of every
    candidate's uncovered members. It backs the list-based reference
    greedy :func:`~repro.core.mcg.greedy_mcg`.

    Selection semantics are bit-identical to the scalar loop it replaced:
    ties break toward the lowest candidate index, and a group is open
    while its accumulated cost is strictly below its budget.
    """

    def __init__(
        self,
        candidates: Sequence["CandidateSet"],
        budgets: Sequence[float],
        ground: set[int],
        initial_group_cost: Sequence[float] | None = None,
    ) -> None:
        if initial_group_cost is not None and len(initial_group_cost) != len(
            budgets
        ):
            raise ValueError("one initial cost per group required")
        n = len(candidates)
        self._costs: list[float] = [c.cost for c in candidates]
        self._group_of: list[int] = [c.ap for c in candidates]
        self._counts: list[int] = [len(c.users & ground) for c in candidates]
        self._available: list[bool] = [True] * n
        self._budgets: list[float] = [float(b) for b in budgets]
        self._group_cost: list[float] = (
            [0.0] * len(budgets)
            if initial_group_cost is None
            else [float(c) for c in initial_group_cost]
        )
        self._incidence: dict[int, list[int]] = {}
        for k, candidate in enumerate(candidates):
            for user in candidate.users:
                if user in ground:
                    self._incidence.setdefault(user, []).append(k)
        self._group_members: dict[int, list[int]] = {}
        for k, candidate in enumerate(candidates):
            self._group_members.setdefault(candidate.ap, []).append(k)
        self._open: list[bool] = [
            cost < budget
            for cost, budget in zip(
                self._group_cost, self._budgets, strict=True
            )
        ]
        self._eff: list[float] = [
            count / cost
            if available and count > 0 and self._open[group]
            else -math.inf
            for count, cost, available, group in zip(
                self._counts,
                self._costs,
                self._available,
                self._group_of,
                strict=True,
            )
        ]

    def group_cost(self, group: int) -> float:
        """Accumulated selected cost of ``group`` (plus any initial cost)."""
        return self._group_cost[group]

    def best(self) -> int:
        """Index of the most cost-effective selectable candidate, or -1.

        Selectable = not yet selected, covers at least one uncovered
        element, and its group's budget is not yet met or exceeded.
        """
        # Strict ``>`` with a 0.0 start means a set whose effectiveness
        # rounds to zero is never selected, ties keep the first maximum,
        # and an all ``-inf`` table returns -1.
        best = -1
        best_eff = 0.0
        for k, eff in enumerate(self._eff):
            if eff > best_eff:
                best_eff = eff
                best = k
        return best

    def select(self, index: int, newly_covered: set[int]) -> None:
        """Commit candidate ``index``; retire ``newly_covered`` elements."""
        group = self._group_of[index]
        self._group_cost[group] += self._costs[index]
        closes = self._open[group] and not (
            self._group_cost[group] < self._budgets[group]
        )
        if closes:
            self._open[group] = False
        self._available[index] = False
        self._eff[index] = -math.inf
        hits: list[int] = []
        for user in newly_covered:
            indices = self._incidence.get(user)
            if indices:
                hits.extend(indices)
                for k in indices:
                    self._counts[k] -= 1
        if closes:
            for k in self._group_members[group]:
                self._eff[k] = -math.inf
        for k in hits:
            if (
                self._available[k]
                and self._counts[k] > 0
                and self._open[self._group_of[k]]
            ):
                self._eff[k] = self._counts[k] / self._costs[k]
            else:
                self._eff[k] = -math.inf
