"""The synchronous association-control core the asyncio loop drives.

:class:`ControlService` owns the mutable deployment state of one
long-running controller — multicast membership, each user's session,
each session's rate — and keeps a published association for it by
driving *incremental* re-solves through a
:class:`~repro.engine.ShardedEngine`:

* join/leave only flip membership; the touched shard's fingerprint
  changes, every other shard keeps hitting the engine cache, so the
  re-solve cost of a tick is the blast radius of its events, never the
  deployment size.
* move (session switch), rate-change and set-policy rebuild the
  (immutable) problem instance and
  :meth:`~repro.engine.ShardedEngine.swap_problem` it into the engine —
  the cache survives, content addressing evicts exactly the shards whose
  sub-problem actually changed (one shard for a move, everything for a
  rate change, the shards whose active users stream the session for a
  policy flip).

The published assignment is the engine's stitched solution, so the
differential oracle holds: after any event stream, :meth:`assignment`
equals a cold batch solve of the cumulative state.

Everything here is synchronous and asyncio-free on purpose: the tick
semantics are unit-testable without a running loop, and the asyncio
wrapper (:mod:`repro.service.loop`) stays a thin scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, Sequence

from repro.core import instrument
from repro.core.assignment import Assignment
from repro.core.errors import ModelError
from repro.core.problem import MulticastAssociationProblem, Session
from repro.engine import ShardedEngine
from repro.engine.engine import OBJECTIVES, EngineSolution
from repro.obs import counters as metrics
from repro.obs import trace as tracing
from repro.service import sanitize
from repro.service.events import Event, TickPlan, coalesce


@dataclass(frozen=True)
class TickReport:
    """What one applied tick did, for logs, metrics and tests."""

    tick: int
    n_events: int
    n_applied: int
    n_coalesced: int
    n_joins: int
    n_leaves: int
    n_moves: int
    n_rate_changes: int
    n_policy_changes: int
    dirty_shards: int
    resolved_shards: int
    cache_hits: int
    cache_misses: int
    solve_wall_s: float
    objective_value: float
    n_active: int

    def to_wire(self) -> dict[str, float | int]:
        """JSON-able form (the ``POST /events?wait=1`` response body)."""
        return {
            "tick": self.tick,
            "n_events": self.n_events,
            "n_applied": self.n_applied,
            "n_coalesced": self.n_coalesced,
            "n_joins": self.n_joins,
            "n_leaves": self.n_leaves,
            "n_moves": self.n_moves,
            "n_rate_changes": self.n_rate_changes,
            "n_policy_changes": self.n_policy_changes,
            "dirty_shards": self.dirty_shards,
            "resolved_shards": self.resolved_shards,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "solve_wall_s": self.solve_wall_s,
            "objective_value": self.objective_value,
            "n_active": self.n_active,
        }


@dataclass(frozen=True)
class _Snapshot:
    """Pre-tick copy of the mutable control state, for rollback."""

    user_sessions: list[int]
    session_rates: list[float]
    session_policies: list[str]
    active: set[int]
    problem: MulticastAssociationProblem
    solution: EngineSolution | None
    tick_index: int
    last_solve_s: float


class ControlService:
    """Mutable deployment state plus incremental re-solves, one tick at
    a time."""

    def __init__(
        self,
        problem: MulticastAssociationProblem,
        *,
        algorithm: str = "mla",
        max_shard_users: int | None = None,
        initial_active: Iterable[int] | None = None,
        solve_on_init: bool = True,
        parallel: Literal[False] = False,
    ) -> None:
        """``parallel`` exists only because ``perfbench/churn.py`` still
        passes ``parallel=False``. The engine is serial; any truthy value
        raises :class:`~repro.core.errors.ModelError`."""
        if parallel:
            raise ModelError("the sharded engine has no parallel mode")
        if algorithm not in OBJECTIVES:
            raise ModelError(f"unknown algorithm {algorithm!r}")
        self.algorithm = algorithm
        self._base = problem
        self._user_sessions: list[int] = list(problem.user_sessions)
        self._session_rates: list[float] = [
            s.rate_mbps for s in problem.sessions
        ]
        self._session_names: list[str] = [s.name for s in problem.sessions]
        self._session_policies: list[str] = list(problem.session_policies)
        self.problem = problem
        self.engine = ShardedEngine(problem, max_shard_users=max_shard_users)
        self._active: set[int] = (
            set(range(problem.n_users))
            if initial_active is None
            else set(initial_active)
        )
        self.engine.set_active(self._active)
        self.tick_index = 0
        self.solution: EngineSolution | None = None
        self._last_solve_s = 0.0
        if solve_on_init:
            self._resolve()

    # -- state accessors -------------------------------------------------

    @property
    def active(self) -> frozenset[int]:
        """The current multicast membership."""
        return frozenset(self._active)

    @property
    def assignment(self) -> Assignment:
        """The published association (empty before the first solve)."""
        if self.solution is None:
            return Assignment.empty(self.problem)
        return self.solution.assignment

    def current_problem(self) -> MulticastAssociationProblem:
        """The problem instance for the *current* cumulative state.

        This is what a cold batch re-solve must run on — the
        differential-oracle side of the service contract.
        """
        return self.problem

    def batch_solution(self) -> EngineSolution:
        """A cold batch solve of the cumulative state (fresh engine).

        The oracle: deterministic solvers plus content-addressed
        sub-problems mean this must equal the incrementally maintained
        :attr:`solution` exactly.
        """
        cold = ShardedEngine(
            self.problem, max_shard_users=self.engine.max_shard_users
        )
        cold.set_active(self._active)
        return cold.solve(self.algorithm)

    # -- tick application ------------------------------------------------

    def apply_events(self, events: Sequence[Event]) -> TickReport:
        """Validate, coalesce and apply one tick's events, then re-solve.

        Raises :class:`~repro.service.events.EventError` (before any
        state change) if an event is malformed; the tick is atomic.
        """
        for event in events:
            event.validate(self.problem.n_users, self.problem.n_sessions)
        return self.apply_plan(coalesce(events))

    def apply_plan(self, plan: TickPlan) -> TickReport:
        """Apply one coalesced :class:`TickPlan` and re-solve if needed.

        The tick is all-or-nothing: the mutable state is snapshotted
        first and restored (with the engine re-synced) if the apply or
        the re-solve raises. Under ``REPRO_SANITIZE=1`` a post-apply
        check additionally verifies every diffed event landed.
        """
        rate_changes = {
            s: r
            for s, r in plan.rates.items()
            if r != self._session_rates[s]
        }
        policy_changes = {
            s: p
            for s, p in plan.policies.items()
            if p != self._session_policies[s]
        }
        moves = {
            u: s for u, s in plan.moves.items() if s != self._user_sessions[u]
        }
        joins = sorted(
            u
            for u, want in plan.membership.items()
            if want and u not in self._active
        )
        leaves = sorted(
            u
            for u, want in plan.membership.items()
            if not want and u in self._active
        )
        n_applied = (
            len(rate_changes)
            + len(policy_changes)
            + len(moves)
            + len(joins)
            + len(leaves)
        )

        dirty: set[int] = set()
        for user in list(moves) + joins + leaves:
            shard = self.engine.shard_of_user(user)
            if shard is not None:
                dirty.add(shard)
        # A policy flip re-prices exactly the shards whose active users
        # stream the flipped session — unlike a rate change, whose rate
        # sits in every fingerprint via the session catalog.
        if policy_changes:
            for user in self._active:
                if self._user_sessions[user] in policy_changes:
                    shard = self.engine.shard_of_user(user)
                    if shard is not None:
                        dirty.add(shard)
        if rate_changes:
            dirty = set(range(self.engine.plan.n_shards))

        snapshot = self._take_snapshot()
        changed = n_applied > 0 or self.solution is None
        try:
            if rate_changes or moves or policy_changes:
                self._mutate_problem(rate_changes, moves, policy_changes)
            for user in joins:
                self._active.add(user)
                self.engine.join(user)
            for user in leaves:
                self._active.discard(user)
                self.engine.leave(user)
            if changed:
                self.tick_index += 1
                self._resolve()
        except BaseException:
            # The tick is atomic: a failed apply/re-solve must not leave
            # half-mutated membership or a stale published association.
            self._restore_snapshot(snapshot)
            raise
        if instrument.sanitize_enabled():
            self._sanitize_verify_applied(
                rate_changes, policy_changes, moves, joins, leaves
            )
        solution = self.solution
        assert solution is not None
        report = TickReport(
            tick=self.tick_index,
            n_events=plan.n_events,
            n_applied=n_applied,
            n_coalesced=plan.n_events - n_applied,
            n_joins=len(joins),
            n_leaves=len(leaves),
            n_moves=len(moves),
            n_rate_changes=len(rate_changes),
            n_policy_changes=len(policy_changes),
            dirty_shards=len(dirty),
            resolved_shards=solution.n_resolved if changed else 0,
            cache_hits=solution.cache_hits if changed else 0,
            cache_misses=solution.cache_misses if changed else 0,
            solve_wall_s=self._last_solve_s if changed else 0.0,
            objective_value=solution.value(),
            n_active=len(self._active),
        )
        if metrics.enabled():
            metrics.incr("service.ticks")
            metrics.incr("service.events_applied", report.n_applied)
            metrics.incr("service.coalesced", report.n_coalesced)
            metrics.incr("service.dirty_shards", report.dirty_shards)
            if report.n_policy_changes:
                metrics.incr(
                    "service.policy_changes", report.n_policy_changes
                )
        return report

    # -- internals -------------------------------------------------------

    def _take_snapshot(self) -> _Snapshot:
        """Copy the mutable state a failed tick must restore."""
        return _Snapshot(
            user_sessions=list(self._user_sessions),
            session_rates=list(self._session_rates),
            session_policies=list(self._session_policies),
            active=set(self._active),
            problem=self.problem,
            solution=self.solution,
            tick_index=self.tick_index,
            last_solve_s=self._last_solve_s,
        )

    def _restore_snapshot(self, snapshot: _Snapshot) -> None:
        """Roll the control state back to a pre-tick snapshot.

        The engine is re-pointed at the snapshot problem and membership
        (its content-addressed cache makes the re-sync cheap).
        """
        self._user_sessions = list(snapshot.user_sessions)
        self._session_rates = list(snapshot.session_rates)
        self._session_policies = list(snapshot.session_policies)
        self._active = set(snapshot.active)
        if self.problem is not snapshot.problem:
            self.problem = snapshot.problem
            self.engine.swap_problem(snapshot.problem)
        self.engine.set_active(self._active)
        self.solution = snapshot.solution
        self.tick_index = snapshot.tick_index
        self._last_solve_s = snapshot.last_solve_s
        metrics.incr("service.tick_rollbacks")
        if instrument.sanitize_enabled():
            metrics.incr("sanitize.tick_rollbacks")
            sanitize.check(
                self._user_sessions == snapshot.user_sessions
                and self._session_rates == snapshot.session_rates
                and self._session_policies == snapshot.session_policies
                and self._active == snapshot.active
                and self.tick_index == snapshot.tick_index,
                "tick rollback failed to restore the pre-tick state",
            )

    def _sanitize_verify_applied(
        self,
        rate_changes: Mapping[int, float],
        policy_changes: Mapping[int, str],
        moves: Mapping[int, int],
        joins: Sequence[int],
        leaves: Sequence[int],
    ) -> None:
        """Tick-atomicity check (``REPRO_SANITIZE=1``): every diffed
        event must be visible in the post-tick state, all at once."""
        metrics.incr("sanitize.tick_checks")
        tick = self.tick_index
        for session, rate in rate_changes.items():
            sanitize.check(
                self._session_rates[session] == rate,
                f"tick {tick}: rate change for session {session} not applied",
            )
        for session, policy in policy_changes.items():
            sanitize.check(
                self._session_policies[session] == policy,
                f"tick {tick}: policy change for session {session}"
                " not applied",
            )
        for user, session in moves.items():
            sanitize.check(
                self._user_sessions[user] == session,
                f"tick {tick}: move of user {user} not applied",
            )
        for user in joins:
            sanitize.check(
                user in self._active,
                f"tick {tick}: join of user {user} not applied",
            )
        for user in leaves:
            sanitize.check(
                user not in self._active,
                f"tick {tick}: leave of user {user} not applied",
            )
        sanitize.check(
            self.solution is not None,
            f"tick {tick}: no published solution after apply",
        )

    def _resolve(self) -> None:
        """One engine solve of the current state; publishes the result."""
        if not self._active:
            # An empty system has an empty association; the engine's
            # solvers are not exercised on zero live shards.
            self.solution = EngineSolution(
                objective=self.algorithm,
                assignment=Assignment.empty(self.problem),
                n_shards=self.engine.plan.n_shards,
                n_resolved=0,
                cache_hits=0,
                cache_misses=0,
                objective_value=0.0,
            )
            self._last_solve_s = 0.0
            return
        with tracing.timed(
            "service.resolve",
            algorithm=self.algorithm,
            n_active=len(self._active),
        ) as t:
            self.solution = self.engine.solve(self.algorithm)
        self._last_solve_s = t.wall_s
        metrics.observe("service.resolve_ms", t.wall_s * 1e3)

    def _mutate_problem(
        self,
        rate_changes: Mapping[int, float],
        moves: Mapping[int, int],
        policy_changes: Mapping[int, str] | None = None,
    ) -> None:
        """Rebuild the immutable problem with new sessions/rates/policies
        and swap it into the engine (cache survives; fingerprints evict
        stale shards)."""
        for session, rate in rate_changes.items():
            self._session_rates[session] = rate
        for session, policy in (policy_changes or {}).items():
            self._session_policies[session] = policy
        for user, session in moves.items():
            self._user_sessions[user] = session
        sessions = tuple(
            Session(i, rate, self._session_names[i])
            for i, rate in enumerate(self._session_rates)
        )
        self.problem = MulticastAssociationProblem(
            self._base.link_rates,
            self._user_sessions,
            sessions,
            self._base.budgets,
            self._session_policies,
        )
        self.engine.swap_problem(self.problem)
        if metrics.enabled():
            metrics.incr("service.problem_rebuilds")
            metrics.incr("service.moves", len(moves))
            metrics.incr("service.rate_changes", len(rate_changes))

    # -- HTTP payloads ---------------------------------------------------

    def assignments_payload(self) -> dict[str, object]:
        """The ``GET /assignments`` body."""
        ap_of_user = self.assignment.ap_of_user
        active = sorted(self._active)
        assignments: dict[str, int | None] = {}
        n_served = 0
        for u in active:
            ap = ap_of_user[u]
            assignments[str(u)] = ap
            if ap is not None:
                n_served += 1
        return {
            "tick": self.tick_index,
            "algorithm": self.algorithm,
            "n_active": len(active),
            "n_served": n_served,
            "objective_value": (
                self.solution.value() if self.solution else 0.0
            ),
            "active": active,
            "assignments": assignments,
        }

    def loads_payload(self) -> dict[str, object]:
        """The ``GET /loads`` body."""
        assignment = self.assignment
        loads = assignment.loads()
        return {
            "tick": self.tick_index,
            "loads": loads,
            "total_load": assignment.total_load(),
            "max_load": assignment.max_load(),
            "busiest_ap": (
                max(range(len(loads)), key=loads.__getitem__)
                if loads
                else None
            ),
        }

    def state_payload(self) -> dict[str, object]:
        """The deployment-state section of ``GET /healthz``."""
        return {
            "tick": self.tick_index,
            "algorithm": self.algorithm,
            "n_aps": self.problem.n_aps,
            "n_users": self.problem.n_users,
            "n_sessions": self.problem.n_sessions,
            "n_active": len(self._active),
            "n_shards": self.engine.plan.n_shards,
            "session_rates_mbps": list(self._session_rates),
            "session_policies": list(self._session_policies),
        }
