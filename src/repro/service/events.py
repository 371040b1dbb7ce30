"""The control-plane event model: parsing, validation, coalescing.

Five event kinds cover the churn the paper's protocols are built for:

* ``join`` / ``leave`` — a user (de)subscribes from its multicast
  session. Semantics are *declarative*: events state the desired
  membership, so a duplicate join (or a leave of an inactive user) is
  idempotent rather than an error — what matters is the state after the
  tick, which is also what makes the batch differential oracle exact.
* ``move`` — a user switches to a different multicast session (group
  zapping). The last move inside a tick wins.
* ``rate-change`` — a session's stream rate changes (an encoder
  switching quality). The last rate per session inside a tick wins.
* ``set-policy`` — a session switches transmission policy (legacy /
  DMS / hybrid, :data:`repro.core.problem.TX_POLICIES`) — the
  EmPOWER-style per-group policy flip. The last policy per session
  inside a tick wins.

:func:`coalesce` folds a tick's raw events into a :class:`TickPlan` —
one desired-membership bit and one desired session per touched user,
one desired rate per touched session — so the re-solve cost of a tick is
bounded by the number of *distinct entities* touched, not the number of
events. Validation (:func:`parse_event` / :meth:`Event.validate`) is
structural only (known kind, ids in range, positive finite rate); state
checks are unnecessary by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Literal, Mapping, Sequence

from repro.core.problem import TX_POLICIES

EventKind = Literal["join", "leave", "move", "rate-change", "set-policy"]

#: The accepted ``kind`` strings, in wire order.
EVENT_KINDS: tuple[EventKind, ...] = (
    "join",
    "leave",
    "move",
    "rate-change",
    "set-policy",
)


class EventError(ValueError):
    """A malformed or out-of-range control-plane event."""


@dataclass(frozen=True, slots=True)
class Event:
    """One control-plane event, as ingested by the service."""

    kind: EventKind
    user: int | None = None
    session: int | None = None
    rate_mbps: float | None = None
    policy: str | None = None

    def validate(self, n_users: int, n_sessions: int) -> None:
        """Raise :class:`EventError` unless the event is well-formed."""
        if self.kind not in EVENT_KINDS:
            raise EventError(f"unknown event kind {self.kind!r}")
        if self.kind in ("join", "leave", "move"):
            if self.user is None:
                raise EventError(f"{self.kind} event needs a user")
            if not 0 <= self.user < n_users:
                raise EventError(
                    f"unknown user {self.user} (have {n_users})"
                )
        if self.kind in ("move", "rate-change", "set-policy"):
            if self.session is None:
                raise EventError(f"{self.kind} event needs a session")
            if not 0 <= self.session < n_sessions:
                raise EventError(
                    f"unknown session {self.session} (have {n_sessions})"
                )
        if self.kind == "rate-change":
            rate = self.rate_mbps
            if rate is None or not math.isfinite(rate) or rate <= 0:
                raise EventError(
                    f"rate-change needs a positive finite rate, got {rate!r}"
                )
        if self.kind == "set-policy" and self.policy not in TX_POLICIES:
            raise EventError(
                f"set-policy needs a policy in {TX_POLICIES}, "
                f"got {self.policy!r}"
            )

    def to_wire(self) -> dict[str, Any]:
        """The JSON-able wire form (only the fields the kind uses)."""
        wire: dict[str, Any] = {"kind": self.kind}
        if self.user is not None:
            wire["user"] = self.user
        if self.session is not None:
            wire["session"] = self.session
        if self.rate_mbps is not None:
            wire["rate_mbps"] = self.rate_mbps
        if self.policy is not None:
            wire["policy"] = self.policy
        return wire


def _int_field(obj: Mapping[str, Any], name: str) -> int | None:
    value = obj.get(name)
    if value is None:
        return None
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, int):
        raise EventError(f"{name} must be an integer, got {value!r}")
    return value


def parse_event(obj: Any) -> Event:
    """Parse one wire-form event dict (structure only, no range checks)."""
    if not isinstance(obj, Mapping):
        raise EventError(f"event must be an object, got {type(obj).__name__}")
    unknown = set(obj) - {"kind", "user", "session", "rate_mbps", "policy"}
    if unknown:
        raise EventError(f"unknown event field(s): {sorted(unknown)}")
    kind = obj.get("kind")
    if kind not in EVENT_KINDS:
        raise EventError(f"unknown event kind {kind!r}")
    rate = obj.get("rate_mbps")
    rate_mbps: float | None = None
    if rate is not None:
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            raise EventError(f"rate_mbps must be a number, got {rate!r}")
        try:
            rate_mbps = float(rate)
        except OverflowError:
            raise EventError("rate_mbps is too large for a float") from None
    policy = obj.get("policy")
    if policy is not None and not isinstance(policy, str):
        raise EventError(f"policy must be a string, got {policy!r}")
    return Event(
        kind=kind,
        user=_int_field(obj, "user"),
        session=_int_field(obj, "session"),
        rate_mbps=rate_mbps,
        policy=policy,
    )


def parse_events(payload: Any) -> list[Event]:
    """Parse a wire payload: one event object or a list of them."""
    if isinstance(payload, Mapping):
        return [parse_event(payload)]
    if isinstance(payload, Sequence) and not isinstance(payload, (str, bytes)):
        return [parse_event(item) for item in payload]
    raise EventError(
        f"payload must be an event or a list of events, "
        f"got {type(payload).__name__}"
    )


@dataclass(frozen=True)
class TickPlan:
    """The coalesced net effect of one tick's events.

    ``membership`` holds the *desired* final membership bit for every
    user a join/leave touched; ``moves`` the desired session for every
    user a move touched; ``rates`` the desired rate for every session a
    rate-change touched; ``policies`` the desired transmission policy
    for every session a set-policy touched. ``n_events`` counts the raw
    inputs and ``n_coalesced`` how many of them were superseded by a
    later event on the same entity — the service's ``service.coalesced``
    counter.
    """

    membership: dict[int, bool] = field(default_factory=dict)
    moves: dict[int, int] = field(default_factory=dict)
    rates: dict[int, float] = field(default_factory=dict)
    policies: dict[int, str] = field(default_factory=dict)
    n_events: int = 0

    @property
    def n_coalesced(self) -> int:
        """Events whose effect a later same-entity event overwrote."""
        distinct = (
            len(self.membership)
            + len(self.moves)
            + len(self.rates)
            + len(self.policies)
        )
        return self.n_events - distinct

    @property
    def empty(self) -> bool:
        """True when the tick nets out to no desired state at all."""
        return not (
            self.membership or self.moves or self.rates or self.policies
        )


def coalesce(events: Iterable[Event]) -> TickPlan:
    """Fold a tick's events into last-writer-wins desired state.

    Membership and moves coalesce per user, rates per session; a later
    event on the same (kind-group, entity) overwrites an earlier one, so
    ``join u; leave u`` nets to ``membership[u] = False`` — applying it
    to a state where ``u`` was already inactive is a no-op, which is the
    "join-then-leave collapses" guarantee the tests pin down.
    """
    membership: dict[int, bool] = {}
    moves: dict[int, int] = {}
    rates: dict[int, float] = {}
    policies: dict[int, str] = {}
    n = 0
    for event in events:
        n += 1
        if event.kind == "join":
            assert event.user is not None
            membership[event.user] = True
        elif event.kind == "leave":
            assert event.user is not None
            membership[event.user] = False
        elif event.kind == "move":
            assert event.user is not None and event.session is not None
            moves[event.user] = event.session
        elif event.kind == "rate-change":
            assert event.session is not None and event.rate_mbps is not None
            rates[event.session] = event.rate_mbps
        else:  # set-policy
            assert event.session is not None and event.policy is not None
            policies[event.session] = event.policy
    return TickPlan(
        membership=membership,
        moves=moves,
        rates=rates,
        policies=policies,
        n_events=n,
    )
