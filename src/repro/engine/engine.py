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
It turns them into one bool mask per solve, which every membership
question of that solve reads. Membership changes need no explicit
invalidation — the touched shard's fingerprint changes, so its cache
entry simply misses.
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
        self._user_shards = np.full(problem.n_users, -1, dtype=np.int64)
        for shard in self.shards:
            self._user_shards[shard.users] = shard.index
        self._user_shards.setflags(write=False)
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

    @property
    def user_shards(self) -> np.ndarray:
        """Read-only int64 array: each user's shard index, ``-1`` for an
        isolated user."""
        return self._user_shards

    def shard_of_user(self, user: int) -> int | None:
        """The shard index owning ``user`` (``None`` when isolated)."""
        if not 0 <= user < self.problem.n_users:
            raise ModelError(f"unknown user {user}")
        shard = int(self._user_shards[user])
        return None if shard < 0 else shard

    # -- membership ------------------------------------------------------

    def _membership(self, active: Iterable[int] | None) -> np.ndarray:
        """``active`` as a bool mask over the users (all when ``None``).

        One ``min``/``max`` bounds-checks the whole membership and makes
        the reported offender deterministic: the lowest user if one is
        negative, else the highest.
        """
        n_users = self.problem.n_users
        if active is None:
            return np.ones(n_users, dtype=bool)
        users = np.fromiter(active, dtype=np.int64)
        mask = np.zeros(n_users, dtype=bool)
        if users.size:
            lowest = users.min()
            if lowest < 0:
                raise ModelError(f"unknown user {lowest}")
            highest = users.max()
            if highest >= n_users:
                raise ModelError(f"unknown user {highest}")
            mask[users] = True
        return mask

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
        mask = self._membership(active)
        hits0 = self._cache.stats.hits
        misses0 = self._cache.stats.misses

        with tracing.span(
            "engine.solve",
            objective=objective,
            n_active=int(np.count_nonzero(mask)),
        ):
            if objective == "mnu":
                solution = self._solve_cached(
                    "mnu",
                    mask,
                    mnu_shard_raw,
                    self._stitch_mnu(augment, mask),
                )
            elif objective == "mla":
                self._require_coverage(mask)
                solution = self._solve_cached(
                    "mla", mask, mla_shard_raw, stitch_mla
                )
            else:
                solution = self._solve_bla_exact(mask)
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

    def _require_coverage(self, mask: np.ndarray) -> None:
        isolated = np.flatnonzero(mask & (self._user_shards < 0))
        if isolated.size:
            raise CoverageError(isolated.tolist())

    def _live_shards(self, mask: np.ndarray) -> list[tuple[Shard, np.ndarray]]:
        """The shards holding an active user, each with those users."""
        live = []
        for shard in self.shards:
            users = shard.active_users(mask)
            if users.size:
                live.append((shard, users))
        return live

    def _stitch_mnu(
        self, augment: bool, mask: np.ndarray
    ) -> Callable[..., tuple[Assignment, float]]:
        def stitch(
            problem: MulticastAssociationProblem, raws: list
        ) -> tuple[Assignment, float]:
            eligible = np.flatnonzero(mask).tolist() if augment else None
            assignment = stitch_mnu(
                problem, raws, augment=augment, eligible=eligible
            )
            return assignment, float(assignment.n_served)

        return stitch

    def _solve_cached(
        self,
        objective: str,
        mask: np.ndarray,
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
        live = self._live_shards(mask)
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
        self, mask: np.ndarray
    ) -> tuple[Assignment, float, int, dict[str, object]]:
        """The monolithic :func:`solve_bla` on the active sub-problem.

        The B* search compares global quantities at every step, so it
        runs once over all active users, uncached, and the result is
        mapped back to global user indices.
        """
        self._require_coverage(mask)
        keep = np.flatnonzero(mask)
        if not keep.size:
            empty = Assignment(self.problem, [None] * self.problem.n_users)
            return empty, 0.0, 0, {"b_star": math.inf, "iterations": 0}
        sub, _ = self.problem.restricted_to_users(keep.tolist())
        result = solve_bla(sub)
        held = result.assignment.held_array()
        served = np.flatnonzero(held >= 0)
        assignment = stitch_arrays(self.problem, keep[served], held[served])
        return (
            assignment,
            assignment.max_load(),
            len(self._live_shards(mask)),
            {"b_star": result.b_star, "iterations": result.iterations},
        )
