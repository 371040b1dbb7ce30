"""Online association maintenance under user churn.

The paper's model is static (quasi-static users, one-shot optimization);
an operator additionally needs to keep the association good as multicast
users *join and leave* over time — exactly the regime the distributed
protocols were designed for. This module provides a small controller that
maintains an association incrementally:

* **join** — the new user runs its local decision rule (Sections 4.2/5.2);
* **leave** — the user disassociates, then an optional *repair* pass lets
  affected users re-decide;
* repair scopes: ``"none"`` (pure greedy arrival), ``"local"`` (only users
  on APs whose load changed re-decide — cheap, few handoffs), ``"full"``
  (a complete sequential best-response round after every event — the
  quality ceiling of the dynamics, at maximal handoff cost).

The churn benchmark quantifies the stability/quality trade-off between
the three scopes. This is an extension beyond the paper (flagged in
DESIGN.md), built entirely from the paper's own local decision rules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

from repro.core import instrument
from repro.core.distributed import AssociationState, Policy, decide
from repro.core.errors import ModelError
from repro.core.problem import MulticastAssociationProblem

RepairScope = Literal["none", "local", "full"]


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """One membership change: a user joining or leaving the multicast."""

    kind: Literal["join", "leave"]
    user: int


@dataclass(frozen=True)
class OnlineSnapshot:
    """State after one processed event."""

    event: ChurnEvent
    n_active: int
    n_served: int
    total_load: float
    max_load: float
    handoffs: int


@dataclass
class OnlineResult:
    """Trajectory of an online run."""

    snapshots: list[OnlineSnapshot] = field(default_factory=list)
    total_handoffs: int = 0

    @property
    def final(self) -> OnlineSnapshot:
        if not self.snapshots:
            raise ModelError("no events were processed")
        return self.snapshots[-1]

    def handoffs_per_event(self) -> float:
        if not self.snapshots:
            return 0.0
        return self.total_handoffs / len(self.snapshots)


class OnlineController:
    """Maintains an association across join/leave events."""

    def __init__(
        self,
        problem: MulticastAssociationProblem,
        policy: Policy,
        *,
        repair: RepairScope = "local",
        enforce_budgets: bool | None = None,
        rng: random.Random | None = None,
    ) -> None:
        if repair not in ("none", "local", "full"):
            raise ModelError(f"unknown repair scope {repair!r}")
        self.problem = problem
        self.policy = policy
        self.repair = repair
        self.enforce_budgets = enforce_budgets
        self.rng = rng or random.Random(0)
        self.state = AssociationState(problem)
        self.active: set[int] = set()

    # -- event handling --------------------------------------------------

    def _decide_and_move(self, user: int) -> bool:
        """Run the user's local rule; True if its association changed."""
        decision = decide(
            self.state, user, self.policy, enforce_budgets=self.enforce_budgets
        )
        if decision.target != self.state.ap_of_user[user]:
            self.state.move(user, decision.target)
            return True
        return False

    def _repair_users(self, candidates: Iterable[int]) -> int:
        """Let ``candidates`` (active users) re-decide; count moves.

        One pass in random order; sequential semantics, so each re-decision
        sees the moves before it (the convergent regime of Lemmas 1–2).
        """
        users = [u for u in candidates if u in self.active]
        self.rng.shuffle(users)
        moves = 0
        for user in users:
            if self._decide_and_move(user):
                moves += 1
        return moves

    def _affected_users(self, aps: Iterable[int]) -> set[int]:
        """Active users whose neighborhood includes any AP in ``aps``."""
        ap_set = set(aps)
        return {
            u
            for u in self.active
            if ap_set & set(self.problem.aps_of_user(u))
        }

    def process(self, event: ChurnEvent) -> int:
        """Apply one event; returns the number of handoffs it caused.

        A join/leave of user ``u`` directly changes at most the loads of
        ``u``'s neighboring APs; the repair pass re-runs the local rule for
        the users who can see those APs (``local``) or for everyone
        (``full``).
        """
        user = event.user
        if not 0 <= user < self.problem.n_users:
            raise ModelError(f"unknown user {user}")
        ops_before = self.state.op_counts()
        handoffs = 0
        if event.kind == "join":
            if user in self.active:
                raise ModelError(f"user {user} is already active")
            self.active.add(user)
            if self._decide_and_move(user):
                handoffs += 1
        elif event.kind == "leave":
            if user not in self.active:
                raise ModelError(f"user {user} is not active")
            self.active.discard(user)
            if self.state.ap_of_user[user] is not None:
                self.state.move(user, None)
        else:  # pragma: no cover - guarded by the dataclass literal
            raise ModelError(f"unknown event kind {event.kind!r}")

        if self.repair == "local":
            touched = self.problem.aps_of_user(user)
            handoffs += self._repair_users(
                self._affected_users(touched) - {user}
            )
        elif self.repair == "full":
            handoffs += self._repair_users(set(self.active) - {user})
        if instrument.enabled():
            instrument.incr("online.events")
            instrument.incr("online.handoffs", handoffs)
            for op, count in self.state.op_counts().items():
                instrument.incr(f"ledger.{op}", count - ops_before[op])
        return handoffs

    # -- metrics ------------------------------------------------------------

    def snapshot(self, event: ChurnEvent, handoffs: int) -> OnlineSnapshot:
        served = sum(
            1 for u in self.active if self.state.ap_of_user[u] is not None
        )
        return OnlineSnapshot(
            event=event,
            n_active=len(self.active),
            n_served=served,
            total_load=self.state.total_load(),
            max_load=max(self.state.loads(), default=0.0),
            handoffs=handoffs,
        )

    def run(self, events: Sequence[ChurnEvent]) -> OnlineResult:
        """Process a whole trace, snapshotting after every event."""
        result = OnlineResult()
        for event in events:
            handoffs = self.process(event)
            result.total_handoffs += handoffs
            result.snapshots.append(self.snapshot(event, handoffs))
        return result


def generate_churn_trace(
    problem: MulticastAssociationProblem,
    n_events: int,
    *,
    join_bias: float = 0.6,
    rng: random.Random | None = None,
) -> list[ChurnEvent]:
    """A random feasible join/leave trace over the problem's users.

    Starts from an empty system; each event is a join with probability
    ``join_bias`` (when inactive users remain) else a leave. The trace is
    always consistent: joins pick inactive users, leaves pick active ones.
    """
    if n_events < 0:
        raise ModelError("n_events must be non-negative")
    if not 0 <= join_bias <= 1:
        raise ModelError("join_bias must be a probability")
    rng = rng or random.Random(0)
    active: set[int] = set()
    inactive = set(range(problem.n_users))
    events: list[ChurnEvent] = []
    for _ in range(n_events):
        can_join = bool(inactive)
        can_leave = bool(active)
        # Degenerate biases mean "this kind only": stop when exhausted.
        # (Exact sentinel values supplied by the caller, not computed —
        # the float comparisons are intentional.)
        if join_bias == 1.0:  # replint: ignore[RPL004]
            can_leave = False
        elif join_bias == 0.0:  # replint: ignore[RPL004]
            can_join = False
        if not can_join and not can_leave:
            break
        if can_join and (not can_leave or rng.random() < join_bias):
            user = rng.choice(sorted(inactive))
            inactive.discard(user)
            active.add(user)
            events.append(ChurnEvent("join", user))
        else:
            user = rng.choice(sorted(active))
            active.discard(user)
            inactive.add(user)
            events.append(ChurnEvent("leave", user))
    return events
