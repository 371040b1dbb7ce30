"""The synchronous association-control core the asyncio loop drives.

:class:`ControlService` owns the deployment state of one long-running
controller, each fact once — the multicast membership (one set, updated
in place) and the current immutable problem, which carries each user's
session and each session's rate and policy — and keeps a published
association for it by driving *incremental* re-solves through a
:class:`~repro.engine.ShardedEngine`, which is handed the membership on
every solve:

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
from typing import Literal, Mapping, Sequence

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


class ControlService:
    """Mutable deployment state plus incremental re-solves, one tick at
    a time."""

    def __init__(
        self,
        problem: MulticastAssociationProblem,
        *,
        algorithm: str = "mla",
        max_shard_users: int | None = None,
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
        self.problem = problem
        self.engine = ShardedEngine(problem, max_shard_users=max_shard_users)
        self._active: set[int] = set(range(problem.n_users))
        self.tick_index = 0
        self.solution, _ = self._solve(problem)

    # -- state accessors -------------------------------------------------

    @property
    def active(self) -> frozenset[int]:
        """The current multicast membership."""
        return frozenset(self._active)

    @property
    def assignment(self) -> Assignment:
        """The published association."""
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
        return cold.solve(self.algorithm, active=self._active)

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

        The tick is all-or-nothing: the next problem is built aside,
        membership is updated in place, and ``problem``, ``solution`` and
        ``tick_index`` are published only once the re-solve returns. If
        anything raises, the membership edits are undone and the engine
        is swapped back to the pre-tick problem. Under
        ``REPRO_SANITIZE=1`` a post-apply check additionally verifies
        every diffed event landed.
        """
        problem = self.problem
        rate_changes = {
            s: r
            for s, r in plan.rates.items()
            # An unchanged rate is a no-op by contract: exact equality.
            if r != problem.session_rate(s)  # replint: ignore[RPL004]
        }
        policy_changes = {
            s: p
            for s, p in plan.policies.items()
            if p != problem.policy_of(s)
        }
        moves = {
            u: s for u, s in plan.moves.items() if s != problem.session_of(u)
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
                if problem.session_of(user) in policy_changes:
                    shard = self.engine.shard_of_user(user)
                    if shard is not None:
                        dirty.add(shard)
        if rate_changes:
            dirty = set(range(self.engine.plan.n_shards))

        changed = n_applied > 0
        solution, solve_s = self.solution, 0.0
        n_active_before = len(self._active)
        try:
            next_problem = (
                self._next_problem(rate_changes, moves, policy_changes)
                if rate_changes or moves or policy_changes
                else problem
            )
            self._active.update(joins)
            self._active.difference_update(leaves)
            if next_problem is not problem:
                self.engine.swap_problem(next_problem)
                if metrics.enabled():
                    metrics.incr("service.problem_rebuilds")
                    metrics.incr("service.moves", len(moves))
                    metrics.incr("service.rate_changes", len(rate_changes))
            if changed:
                solution, solve_s = self._solve(next_problem)
        except BaseException:
            # The tick is atomic: a failed apply/re-solve must not leave
            # half-applied membership or an engine on an unpublished
            # problem.
            self._active.difference_update(joins)
            self._active.update(leaves)
            if self.engine.problem is not problem:
                self.engine.swap_problem(problem)
            metrics.incr("service.tick_rollbacks")
            if instrument.sanitize_enabled():
                metrics.incr("sanitize.tick_rollbacks")
                sanitize.check(
                    self.engine.problem is problem
                    and len(self._active) == n_active_before
                    and self._active.isdisjoint(joins)
                    and self._active.issuperset(leaves),
                    "tick rollback failed to restore the pre-tick state",
                )
            raise
        self.problem = next_problem
        if changed:
            self.tick_index += 1
            self.solution = solution
        if instrument.sanitize_enabled():
            self._sanitize_verify_applied(
                rate_changes, policy_changes, moves, joins, leaves
            )
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
            solve_wall_s=solve_s,
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
                # The published rate is the event's value, bit for bit.
                self.problem.session_rate(session) == rate,  # replint: ignore[RPL004]
                f"tick {tick}: rate change for session {session} not applied",
            )
        for session, policy in policy_changes.items():
            sanitize.check(
                self.problem.policy_of(session) == policy,
                f"tick {tick}: policy change for session {session}"
                " not applied",
            )
        for user, session in moves.items():
            sanitize.check(
                self.problem.session_of(user) == session,
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

    def _solve(
        self, problem: MulticastAssociationProblem
    ) -> tuple[EngineSolution, float]:
        """One engine solve of ``problem`` for the current membership:
        the solution and its wall time. Publishes nothing."""
        if not self._active:
            # An empty system has an empty association; the engine's
            # solvers are not exercised on zero live shards.
            empty = EngineSolution(
                objective=self.algorithm,
                assignment=Assignment.empty(problem),
                n_shards=self.engine.plan.n_shards,
                n_resolved=0,
                cache_hits=0,
                cache_misses=0,
                objective_value=0.0,
            )
            return empty, 0.0
        with tracing.timed(
            "service.resolve",
            algorithm=self.algorithm,
            n_active=len(self._active),
        ) as t:
            solution = self.engine.solve(self.algorithm, active=self._active)
        metrics.observe("service.resolve_ms", t.wall_s * 1e3)
        return solution, t.wall_s

    def _next_problem(
        self,
        rate_changes: Mapping[int, float],
        moves: Mapping[int, int],
        policy_changes: Mapping[int, str],
    ) -> MulticastAssociationProblem:
        """The current problem with new sessions/rates/policies applied.

        Built aside, never published here: the rate matrix and budgets
        are shared with the current problem, so the engine's cache and
        block digests survive the swap.
        """
        problem = self.problem
        user_sessions = list(problem.user_sessions)
        for user, session in moves.items():
            user_sessions[user] = session
        sessions = tuple(
            Session(i, rate_changes.get(i, s.rate_mbps), s.name)
            for i, s in enumerate(problem.sessions)
        )
        policies = [
            policy_changes.get(i, policy)
            for i, policy in enumerate(problem.session_policies)
        ]
        return MulticastAssociationProblem(
            problem.link_rates,
            user_sessions,
            sessions,
            problem.budgets,
            policies,
        )

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
            "objective_value": self.solution.value(),
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
            "session_rates_mbps": [
                s.rate_mbps for s in self.problem.sessions
            ],
            "session_policies": list(self.problem.session_policies),
        }
