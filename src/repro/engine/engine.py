"""The sharded association engine — partition, solve, stitch, re-solve.

:class:`ShardedEngine` is the operator-facing facade over the engine
package: it partitions a problem once
(:mod:`repro.engine.partition`), slices per-shard sub-problems
(:mod:`repro.engine.shard`), runs the paper's centralized solvers per
shard, in process and in order (:mod:`repro.engine.executor`), and keeps
per-shard results in a fingerprint-guarded cache
(:mod:`repro.engine.incremental`) so churn events re-solve only the shards
they touch.

Exactness contract:

* ``mnu`` and ``mla`` return assignments whose objective values (and, for
  the full user set, whose user→AP maps) are *identical* to the monolithic
  :func:`~repro.core.mnu.solve_mnu` / :func:`~repro.core.mla.solve_mla`,
  with or without the cache. The MLA value is read from the cached
  per-shard fragments' AP loads (see
  :func:`~repro.engine.executor.stitch_mla`), bit-identical to the
  stitched assignment's ``total_load()`` without pricing it again.
* ``bla`` *is* the monolithic :func:`~repro.core.bla.solve_bla`, run on
  the active sub-problem and mapped back to global indices: its B* search
  compares global quantities at every step, so it runs once per solve
  and does not use the per-shard cache.

Membership: the engine keeps none. :meth:`ShardedEngine.solve` serves
exactly the ``active`` users it is handed (every user by default),
matching the monolithic solvers on ``problem.restricted_to_users(active)``.
Membership changes need no explicit invalidation — the touched shard's
fingerprint changes, so its cache entry simply misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.core.assignment import Assignment
from repro.core.bla import solve_bla
from repro.core.errors import CoverageError, ModelError
from repro.core.problem import MulticastAssociationProblem
from repro.engine.executor import (
    mla_shard_raw,
    mnu_shard_raw,
    stitch_mla,
    stitch_mnu,
)
from repro.engine.incremental import CacheStats, ShardCache, shard_fingerprint
from repro.engine.partition import ShardPlan, plan_shards
from repro.engine.shard import (
    Shard,
    ShardProblem,
    build_shards,
    stitch_arrays,
)
from repro.obs import counters as metrics
from repro.obs import trace as tracing

OBJECTIVES = ("mnu", "bla", "mla")


@dataclass(frozen=True)
class EngineSolution:
    """One engine solve: the stitched assignment plus solve telemetry."""

    objective: str
    assignment: Assignment
    n_shards: int
    n_resolved: int  # shards actually (re-)solved this call
    cache_hits: int
    cache_misses: int
    objective_value: float  # users served / max load / total load
    b_star: float | None = None
    iterations: int | None = None

    def value(self) -> float:
        """The objective value (users served / max load / total load)."""
        return self.objective_value


class ShardedEngine:
    """Partition once, solve per shard, stitch exactly, re-solve lazily."""

    def __init__(
        self,
        problem: MulticastAssociationProblem,
        *,
        max_shard_users: int | None = None,
        cache: bool = True,
    ) -> None:
        self.problem = problem
        self._max_shard_users = max_shard_users
        self.plan: ShardPlan = plan_shards(
            problem, max_shard_users=max_shard_users
        )
        self.shards: list[Shard] = build_shards(self.plan)
        self._shard_of_user = self.plan.shard_of_user()
        self._use_cache = cache
        self._cache = ShardCache()

    # -- lifecycle -------------------------------------------------------

    @property
    def max_shard_users(self) -> int | None:
        """The component-packing cap this engine was planned with."""
        return self._max_shard_users

    def swap_problem(self, problem: MulticastAssociationProblem) -> None:
        """Adopt a modified problem of the same shape, keeping the cache.

        The long-running service mutates the *parameters* of a
        deployment — users switching sessions, sessions changing rate —
        while the radio geometry (AP/user counts, link rates) stays
        put. The partition plan depends only on the link rates and the
        shard cap, so it and the shards are kept; so is the fingerprint
        cache: entries are content-addressed
        (:func:`shard_fingerprint` hashes the rates, budgets, user
        sessions and the session catalog), so shards the change did not
        touch keep hitting while stale entries miss and are evicted on
        contact. A changed rate matrix would change the coverage
        partition itself, so that is rejected.
        """
        if problem.n_aps != self.problem.n_aps or (
            problem.n_users != self.problem.n_users
        ):
            raise ModelError(
                "swap_problem needs an identically-shaped problem "
                f"(had {self.problem.n_aps}x{self.problem.n_users}, "
                f"got {problem.n_aps}x{problem.n_users})"
            )
        if problem.link_rates is not self.problem.link_rates and not (
            (problem.link_rates == self.problem.link_rates).all()
        ):
            raise ModelError(
                "swap_problem cannot change link rates (the coverage "
                "partition depends on them); build a new engine instead"
            )
        self.problem = problem
        metrics.incr("engine.problem_swaps")

    def shard_of_user(self, user: int) -> int | None:
        """The shard index owning ``user`` (``None`` when isolated)."""
        self._check_user(user)
        return self._shard_of_user.get(user)

    # -- validation ------------------------------------------------------

    def _check_user(self, user: int) -> None:
        if not 0 <= user < self.problem.n_users:
            raise ModelError(f"unknown user {user}")

    def _check_users(self, users: set[int]) -> None:
        """Bounds-check a whole membership set in O(1) python calls.

        ``min``/``max`` replace a per-user loop (which at 100k users costs
        more than the solve's bookkeeping) and make the reported offender
        deterministic — a plain set scan would surface an arbitrary one.
        """
        if not users:
            return
        lowest = min(users)
        if lowest < 0:
            raise ModelError(f"unknown user {lowest}")
        highest = max(users)
        if highest >= self.problem.n_users:
            raise ModelError(f"unknown user {highest}")

    # -- cache control ---------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters (all zero when caching is off)."""
        return self._cache.stats

    # -- solving ---------------------------------------------------------

    def solve(
        self,
        objective: str,
        *,
        active: Iterable[int] | None = None,
        augment: bool = False,
    ) -> EngineSolution:
        """Solve one objective for the active users; stitched + validated.

        ``active`` is the multicast membership to serve (every user when
        ``None``). ``augment`` (MNU only) greedily serves leftover users
        after the approximation, exactly like
        ``solve_mnu(..., augment=True)``.
        """
        if objective not in OBJECTIVES:
            raise ModelError(f"unknown objective {objective!r}")
        active_set = (
            set(range(self.problem.n_users)) if active is None else set(active)
        )
        self._check_users(active_set)
        hits0 = self._cache.stats.hits
        misses0 = self._cache.stats.misses

        with tracing.span(
            "engine.solve",
            objective=objective,
            n_active=len(active_set),
        ):
            if objective == "mnu":
                solution = self._solve_cached(
                    "mnu",
                    active_set,
                    mnu_shard_raw,
                    self._stitch_mnu(augment, active_set),
                )
            elif objective == "mla":
                self._require_coverage(active_set)
                solution = self._solve_cached(
                    "mla", active_set, mla_shard_raw, stitch_mla
                )
            else:
                solution = self._solve_bla_exact(active_set)
        metrics.incr("engine.solves")

        assignment, value, n_resolved, extras = solution
        return EngineSolution(
            objective=objective,
            assignment=assignment,
            n_shards=self.plan.n_shards,
            n_resolved=n_resolved,
            cache_hits=self._cache.stats.hits - hits0,
            cache_misses=self._cache.stats.misses - misses0,
            objective_value=value,
            **extras,
        )

    # -- internals -------------------------------------------------------

    def _require_coverage(self, active_set: set[int]) -> None:
        isolated = sorted(set(self.plan.isolated_users) & active_set)
        if isolated:
            raise CoverageError(isolated)

    def _live_shards(self, active_set: set[int]) -> list[tuple[Shard, tuple[int, ...]]]:
        live = []
        for shard in self.shards:
            users = shard.active_users(active_set)
            if users:
                live.append((shard, users))
        return live

    def _stitch_mnu(
        self, augment: bool, active_set: set[int]
    ) -> Callable[..., tuple[Assignment, float]]:
        def stitch(
            problem: MulticastAssociationProblem, raws: list
        ) -> tuple[Assignment, float]:
            assignment = stitch_mnu(
                problem, raws, augment=augment, eligible=active_set
            )
            return assignment, float(assignment.n_served)

        return stitch

    def _solve_cached(
        self,
        objective: str,
        active_set: set[int],
        worker: Callable[[ShardProblem], Any],
        stitch: Callable[..., tuple[Assignment, float]],
    ) -> tuple[Assignment, float, int, dict[str, object]]:
        """The shared MNU/MLA path: per-shard cache → worker → stitch.

        Cache entries hold the worker's result as is — global ``(user,
        AP)`` pairs (MNU's two halves, MLA's fragment with its AP loads) —
        so stitching treats hits and misses uniformly. The global map is
        rebuilt from the entries on every solve; the engine keeps no
        mutable stitched state a rolled-back tick would have to undo.
        """
        live = self._live_shards(active_set)
        entries: list[Any] = [None] * len(live)
        pending: list[int] = []
        prints: list[str] = []
        for i, (shard, users) in enumerate(live):
            entry = None
            if self._use_cache:
                prints.append(shard_fingerprint(self.problem, shard, users))
                entry = self._cache.get(objective, shard.index, prints[i])
            if entry is None:
                pending.append(i)
            else:
                entries[i] = entry
        for task, i in enumerate(pending):
            shard, users = live[i]
            shard_problem = shard.slice(self.problem, users)
            with tracing.span(
                "engine.shard-solve", objective=objective, task=task
            ):
                entries[i] = worker(shard_problem)
            if self._use_cache:
                self._cache.put(objective, shard.index, prints[i], entries[i])
        assignment, value = stitch(self.problem, entries)
        return assignment, value, len(pending), {}

    def _solve_bla_exact(
        self, active_set: set[int]
    ) -> tuple[Assignment, float, int, dict[str, object]]:
        """The monolithic :func:`solve_bla` on the active sub-problem.

        The B* search compares global quantities at every step, so it
        runs once over all active users, uncached, and the result is
        mapped back to global user indices.
        """
        self._require_coverage(active_set)
        if not active_set:
            empty = Assignment(self.problem, [None] * self.problem.n_users)
            return empty, 0.0, 0, {"b_star": math.inf, "iterations": 0}
        sub, keep = self.problem.restricted_to_users(active_set)
        result = solve_bla(sub)
        held = result.assignment.held_array()
        served = np.flatnonzero(held >= 0)
        assignment = stitch_arrays(
            self.problem, np.asarray(keep, dtype=np.int64)[served], held[served]
        )
        return (
            assignment,
            assignment.max_load(),
            len(self._live_shards(active_set)),
            {"b_star": result.b_star, "iterations": result.iterations},
        )
