"""The multicast association problem model (paper Section 3).

A problem instance consists of

* a set of APs and a set of users,
* the max PHY rate ``r(a, u)`` of every (AP, user) link (0 when out of range),
* a catalog of multicast sessions, each with a stream data rate,
* the session each user requests (exactly one, per the paper's model),
* a per-AP *multicast load budget* — the maximum fraction of airtime the AP
  may spend transmitting multicast (0.9 in the paper's Figs 9/10).

When an AP transmits session ``s`` to a set of associated users it sends one
stream at the minimum of those users' link rates, and the airtime fraction it
spends is ``session_rate / tx_rate`` — the paper's *multicast load*
(Definition 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.errors import ModelError
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel

#: Per-group transmission policies (the EmPOWER/SDN@Play model).
#:
#: * ``"legacy"`` — one multicast transmission at the minimum member link
#:   rate (the paper's Definition 1; the default everywhere).
#: * ``"dms"`` — Directed Multicast Service: one unicast copy per member,
#:   each at that member's own link rate.
#: * ``"hybrid"`` — SDN@Play-style rate split: members at or above a
#:   threshold rate share one multicast transmission at the threshold,
#:   the slow tail gets unicast copies; the threshold is chosen per
#:   (AP, session) group to minimize total airtime.
TX_LEGACY = "legacy"
TX_DMS = "dms"
TX_HYBRID = "hybrid"
TX_POLICIES: tuple[str, ...] = (TX_LEGACY, TX_DMS, TX_HYBRID)


def validate_policy(policy: str) -> str:
    """Return ``policy`` if it names a known transmission policy."""
    if policy not in TX_POLICIES:
        raise ModelError(
            f"unknown transmission policy {policy!r}; "
            f"choose from {TX_POLICIES}"
        )
    return policy


@dataclass(frozen=True, slots=True)
class Session:
    """A multicast stream: an id and its data rate in Mbps."""

    session_id: int
    rate_mbps: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.session_id < 0:
            raise ModelError(f"session id must be >= 0, got {self.session_id}")
        if self.rate_mbps <= 0:
            raise ModelError(f"session rate must be positive, got {self.rate_mbps}")


class MulticastAssociationProblem:
    """An immutable instance of the paper's association-control problem.

    Parameters
    ----------
    link_rates:
        ``(n_aps, n_users)`` array of max link rates in Mbps; 0 means the
        user is out of the AP's range.
    user_sessions:
        for each user, the index (into ``sessions``) of the one session it
        requests.
    sessions:
        the session catalog.
    budgets:
        per-AP multicast load limit; a scalar is broadcast to all APs. Use
        ``math.inf`` for the unbudgeted BLA/MLA settings.
    policies:
        per-session transmission policy (see :data:`TX_POLICIES`); a
        single string is broadcast to every session. Defaults to
        ``"legacy"`` — the paper's Definition-1 model — for all sessions.
    """

    def __init__(
        self,
        link_rates: Sequence[Sequence[float]] | np.ndarray,
        user_sessions: Sequence[int],
        sessions: Sequence[Session],
        budgets: float | Sequence[float] = math.inf,
        policies: str | Sequence[str] | None = None,
    ) -> None:
        rates = np.asarray(link_rates, dtype=float)
        if rates.ndim != 2:
            raise ModelError(f"link_rates must be 2-D, got shape {rates.shape}")
        if np.any(rates < 0) or np.any(np.isnan(rates)):
            raise ModelError("link rates must be non-negative and finite")
        n_aps, n_users = rates.shape
        if len(user_sessions) != n_users:
            raise ModelError(
                f"{n_users} users but {len(user_sessions)} session requests"
            )
        if not sessions:
            raise ModelError("at least one session is required")
        ids = [s.session_id for s in sessions]
        if ids != list(range(len(sessions))):
            raise ModelError("sessions must be numbered 0..k-1 in order")
        requested = np.asarray(user_sessions)
        unknown = np.flatnonzero(
            ~((requested >= 0) & (requested < len(sessions)))
        )
        if unknown.size:
            u = int(unknown[0])
            raise ModelError(
                f"user {u} requests unknown session {user_sessions[u]}"
            )
        if isinstance(budgets, (int, float)):
            budget_array = np.full(n_aps, float(budgets))
        else:
            budget_array = np.asarray(budgets, dtype=float)
            if budget_array.shape != (n_aps,):
                raise ModelError(
                    f"budgets must have one entry per AP, got {budget_array.shape}"
                )
        if np.any(budget_array < 0):
            raise ModelError("budgets must be non-negative")
        if policies is None:
            policy_tuple = (TX_LEGACY,) * len(sessions)
        elif isinstance(policies, str):
            policy_tuple = (validate_policy(policies),) * len(sessions)
        else:
            if len(policies) != len(sessions):
                raise ModelError(
                    f"{len(sessions)} sessions but {len(policies)} "
                    "transmission policies"
                )
            policy_tuple = tuple(validate_policy(p) for p in policies)

        self._rates = rates
        self._rates.setflags(write=False)
        session_index = requested.astype(np.int64)
        self._user_sessions: tuple[int, ...] = tuple(session_index.tolist())
        self._sessions = tuple(sessions)
        self._budgets = budget_array
        self._budgets.setflags(write=False)
        self._policies = policy_tuple
        self._all_legacy = all(p == TX_LEGACY for p in policy_tuple)
        # users_of_session[s] = sorted tuple of users requesting session s
        by_session = np.argsort(session_index, kind="stable").tolist()
        bounds = np.cumsum(
            np.bincount(session_index, minlength=len(sessions))
        ).tolist()
        self._users_of_session = tuple(
            tuple(by_session[lo:hi])
            for lo, hi in zip([0, *bounds[:-1]], bounds, strict=True)
        )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_geometry(
        cls,
        ap_positions: Sequence[Point],
        user_positions: Sequence[Point],
        model: PropagationModel,
        sessions: Sequence[Session],
        user_sessions: Sequence[int],
        budgets: float | Sequence[float] = math.inf,
        policies: str | Sequence[str] | None = None,
    ) -> "MulticastAssociationProblem":
        """Build an instance from node positions and a propagation model."""
        rates = np.zeros((len(ap_positions), len(user_positions)))
        for a, ap in enumerate(ap_positions):
            for u, user in enumerate(user_positions):
                rate = model.link_rate(ap, user)
                if rate is not None:
                    rates[a, u] = rate
        return cls(rates, user_sessions, sessions, budgets, policies)

    # -- basic accessors -----------------------------------------------------

    @property
    def n_aps(self) -> int:
        return self._rates.shape[0]

    @property
    def n_users(self) -> int:
        return self._rates.shape[1]

    @property
    def n_sessions(self) -> int:
        return len(self._sessions)

    @property
    def sessions(self) -> tuple[Session, ...]:
        return self._sessions

    @property
    def link_rates(self) -> np.ndarray:
        """Read-only ``(n_aps, n_users)`` rate matrix."""
        return self._rates

    @property
    def budgets(self) -> np.ndarray:
        """Read-only per-AP multicast load limits."""
        return self._budgets

    def budget_of(self, ap: int) -> float:
        return float(self._budgets[ap])

    def session_of(self, user: int) -> int:
        return self._user_sessions[user]

    @property
    def user_sessions(self) -> tuple[int, ...]:
        return self._user_sessions

    def session_rate(self, session: int) -> float:
        return self._sessions[session].rate_mbps

    @property
    def session_policies(self) -> tuple[str, ...]:
        """Per-session transmission policies (see :data:`TX_POLICIES`)."""
        return self._policies

    def policy_of(self, session: int) -> str:
        """The transmission policy of ``session``."""
        return self._policies[session]

    @property
    def all_legacy(self) -> bool:
        """True when every session uses the paper's legacy policy — the
        fast-path guard that keeps pre-policy code paths bit-identical."""
        return self._all_legacy

    def users_of_session(self, session: int) -> tuple[int, ...]:
        return self._users_of_session[session]

    def link_rate(self, ap: int, user: int) -> float:
        """Max link rate in Mbps; 0 when the user is out of range."""
        return float(self._rates[ap, user])

    def in_range(self, ap: int, user: int) -> bool:
        return self._rates[ap, user] > 0

    def aps_of_user(self, user: int) -> list[int]:
        """APs whose range covers ``user`` — its *neighboring APs*."""
        return [a for a in range(self.n_aps) if self._rates[a, user] > 0]

    def users_of_ap(self, ap: int) -> list[int]:
        """Users within range of ``ap``."""
        return [u for u in range(self.n_users) if self._rates[ap, u] > 0]

    def isolated_users(self) -> list[int]:
        """Users out of range of every AP — never servable."""
        return np.flatnonzero(~(self._rates > 0).any(axis=0)).tolist()

    def coverage_feasible(self) -> bool:
        """True when every user can hear at least one AP."""
        return not self.isolated_users()

    # -- load arithmetic -----------------------------------------------------

    def transmission_cost(self, session: int, tx_rate: float) -> float:
        """Airtime fraction of transmitting ``session`` at ``tx_rate`` Mbps."""
        if tx_rate <= 0:
            raise ModelError(f"tx rate must be positive, got {tx_rate}")
        return self.session_rate(session) / tx_rate

    def min_cost_of_user(self, user: int) -> float:
        """Cheapest possible cost of serving ``user`` alone at its best AP.

        A valid lower bound on the load of whichever AP ends up serving the
        user; used to seed the BLA B* search.
        """
        session = self.session_of(user)
        best = math.inf
        for ap in self.aps_of_user(user):
            best = min(best, self.transmission_cost(session, self.link_rate(ap, user)))
        return best

    # -- variants ------------------------------------------------------------

    def with_budgets(
        self, budgets: float | Sequence[float]
    ) -> "MulticastAssociationProblem":
        """A copy of this instance with different per-AP budgets."""
        return MulticastAssociationProblem(
            self._rates,
            self._user_sessions,
            self._sessions,
            budgets,
            self._policies,
        )

    def with_policies(
        self, policies: str | Sequence[str]
    ) -> "MulticastAssociationProblem":
        """A copy of this instance under different transmission policies.

        A single string is broadcast to every session — the spelling the
        registry's ``name@policy`` suffix and the scenario presets use.
        """
        return MulticastAssociationProblem(
            self._rates,
            self._user_sessions,
            self._sessions,
            self._budgets,
            policies,
        )

    def restricted_to_users(
        self, users: Iterable[int]
    ) -> tuple["MulticastAssociationProblem", list[int]]:
        """Sub-instance on a subset of users; returns it and the user map.

        The returned list maps new user indices back to this instance's
        indices. Sessions, policies and APs are kept as-is.
        """
        keep = sorted(set(users))
        for u in keep:
            if not 0 <= u < self.n_users:
                raise ModelError(f"unknown user {u}")
        sub = MulticastAssociationProblem(
            self._rates[:, keep],
            [self._user_sessions[u] for u in keep],
            self._sessions,
            self._budgets,
            self._policies,
        )
        return sub, keep

    def basic_rate_only(self, basic_rate: float) -> "MulticastAssociationProblem":
        """The 802.11-standard variant: multicast always at the basic rate.

        Every in-range link is clamped to ``basic_rate`` (links faster than
        basic stay reachable, but the AP still transmits multicast at basic).
        """
        if basic_rate <= 0:
            raise ModelError("basic rate must be positive")
        clamped = np.where(self._rates > 0, basic_rate, 0.0)
        return MulticastAssociationProblem(
            clamped,
            self._user_sessions,
            self._sessions,
            self._budgets,
            self._policies,
        )

    # -- dunder --------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"MulticastAssociationProblem(aps={self.n_aps}, users={self.n_users}, "
            f"sessions={self.n_sessions})"
        )


def problem_summary(problem: MulticastAssociationProblem) -> Mapping[str, float]:
    """Coarse instance statistics (useful in logs and experiment records)."""
    degrees = [len(problem.aps_of_user(u)) for u in range(problem.n_users)]
    return {
        "n_aps": problem.n_aps,
        "n_users": problem.n_users,
        "n_sessions": problem.n_sessions,
        "isolated_users": len(problem.isolated_users()),
        "mean_aps_per_user": (sum(degrees) / len(degrees)) if degrees else 0.0,
        "max_aps_per_user": max(degrees, default=0),
    }
