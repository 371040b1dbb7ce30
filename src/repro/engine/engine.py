"""The sharded association engine — partition, solve, stitch, re-solve.

:class:`ShardedEngine` is the operator-facing facade over the engine
package: it partitions a problem once
(:mod:`repro.engine.partition`), slices per-shard sub-problems
(:mod:`repro.engine.shard`), dispatches the paper's centralized solvers
per shard — serially or on a process pool (:mod:`repro.engine.executor`)
— and keeps per-shard results in a fingerprint-guarded cache
(:mod:`repro.engine.incremental`) so churn events re-solve only the shards
they touch.

Exactness contract:

* ``mnu`` and ``mla`` return assignments whose objective values (and, for
  the full user set, whose user→AP maps) are *identical* to the monolithic
  :func:`~repro.core.mnu.solve_mnu` / :func:`~repro.core.mla.solve_mla`,
  with or without the cache, serial or parallel.
* ``bla`` with ``bla_mode="exact"`` (the default) matches the monolithic
  :func:`~repro.core.bla.solve_bla` the same way; the global B* search is
  rerun each solve (only its inner greedy rounds are sharded), so it does
  not use the per-shard cache.
* ``bla`` with ``bla_mode="federated"`` runs an independent B* search per
  shard and takes the max over shard max-loads. That *is* per-shard
  cacheable — the incremental mode — but each shard's guess grid adapts to
  its own load scale, so the stitched value may differ from (and is often
  no worse than) the monolithic search's.

Active-user tracking: the engine maintains the set of multicast members
(:meth:`join` / :meth:`leave` / :meth:`process_event` /
:meth:`set_active`) and solves for exactly that subset, matching the
monolithic solvers on ``problem.restricted_to_users(active)``. Membership
changes need no explicit invalidation — the touched shard's fingerprint
changes, so its cache entry simply misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.assignment import Assignment
from repro.core.errors import CoverageError, ModelError
from repro.core.online import ChurnEvent
from repro.core.problem import MulticastAssociationProblem
from repro.engine.executor import (
    ProcessBackend,
    SerialBackend,
    bla_shard_federated,
    mla_shard_raw,
    mnu_shard_raw,
    solve_sharded_bla,
    stitch_mla,
    stitch_mnu,
    to_global_picks,
)
from repro.engine.incremental import CacheStats, ShardCache, shard_fingerprint
from repro.engine.partition import ShardPlan, plan_shards
from repro.engine.shard import Shard, build_shards, stitch_assignment
from repro.obs import counters as metrics
from repro.obs import trace as tracing
from repro.obs.remote import instrumented_map

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
    b_star: float | None = None
    iterations: int | None = None

    def value(self) -> float:
        """The objective value (users served / max load / total load)."""
        if self.objective == "mnu":
            return float(self.assignment.n_served)
        if self.objective == "bla":
            return self.assignment.max_load()
        return self.assignment.total_load()


class ShardedEngine:
    """Partition once, solve per shard, stitch exactly, re-solve lazily."""

    def __init__(
        self,
        problem: MulticastAssociationProblem,
        *,
        max_shard_users: int | None = None,
        parallel: bool = False,
        max_workers: int | None = None,
        bla_mode: str = "exact",
        cache: bool = True,
    ) -> None:
        if bla_mode not in ("exact", "federated"):
            raise ModelError(f"unknown bla_mode {bla_mode!r}")
        self.problem = problem
        self._max_shard_users = max_shard_users
        self.plan: ShardPlan = plan_shards(
            problem, max_shard_users=max_shard_users
        )
        self.shards: list[Shard] = build_shards(problem, self.plan)
        self.bla_mode = bla_mode
        self._shard_of_user = self.plan.shard_of_user()
        self._shard_of_ap = self.plan.shard_of_ap()
        self._backend = (
            ProcessBackend(max_workers=max_workers)
            if parallel
            else SerialBackend()
        )
        self._use_cache = cache
        self._cache = ShardCache()
        self._active: set[int] = set(range(problem.n_users))

    # -- lifecycle -------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """True when shard tasks run on the process pool."""
        return self._backend.parallel

    @property
    def max_shard_users(self) -> int | None:
        """The component-packing cap this engine was planned with."""
        return self._max_shard_users

    def close(self) -> None:
        """Shut down the process pool (no-op for the serial backend)."""
        self._backend.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def swap_problem(self, problem: MulticastAssociationProblem) -> None:
        """Adopt a modified problem of the same shape, keeping the cache.

        The long-running service mutates the *parameters* of a
        deployment — users switching sessions, sessions changing rate —
        while the radio geometry (AP/user counts, link rates) stays
        put. The partition plan depends only on the link rates and the
        shard cap, so it is kept and the shards are rebound to the new
        problem; the fingerprint cache and the tracked membership are
        kept too: entries are content-addressed
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
        for shard in self.shards:
            shard.rebind(problem)
        metrics.incr("engine.problem_swaps")

    def shard_of_user(self, user: int) -> int | None:
        """The shard index owning ``user`` (``None`` when isolated)."""
        self._check_user(user)
        return self._shard_of_user.get(user)

    # -- membership ------------------------------------------------------

    @property
    def active_users(self) -> frozenset[int]:
        """The tracked multicast membership the engine solves for."""
        return frozenset(self._active)

    def set_active(self, users: Iterable[int]) -> None:
        """Replace the tracked membership wholesale."""
        users = set(users)
        self._check_users(users)
        self._active = users

    def join(self, user: int) -> None:
        """A user joins its multicast session."""
        self._check_user(user)
        if user in self._active:
            raise ModelError(f"user {user} is already active")
        self._active.add(user)
        metrics.incr("engine.join_messages")

    def leave(self, user: int) -> None:
        """A user leaves its multicast session."""
        self._check_user(user)
        if user not in self._active:
            raise ModelError(f"user {user} is not active")
        self._active.discard(user)
        metrics.incr("engine.leave_messages")

    def process_event(self, event: ChurnEvent) -> None:
        """Apply one :class:`~repro.core.online.ChurnEvent` to membership."""
        if event.kind == "join":
            self.join(event.user)
        else:
            self.leave(event.user)

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
        """Hit/miss/invalidation counters (all zero when caching is off)."""
        return self._cache.stats

    def mark_aps_dirty(self, aps: Iterable[int]) -> int:
        """Evict cached results for every shard owning one of ``aps``.

        The hook for load-change signals such as
        :attr:`repro.core.online.OnlineController.last_changed_aps`;
        returns the number of evicted entries. (Membership changes don't
        need this — fingerprints already catch them.)
        """
        ap_list = list(aps)
        shards = {
            self._shard_of_ap[ap]
            for ap in ap_list
            if ap in self._shard_of_ap
        }
        evicted = self._cache.invalidate_shards(shards)
        if metrics.enabled():
            metrics.incr("engine.aps_marked_dirty", len(ap_list))
            metrics.incr("engine.dirty_evictions", evicted)
        return evicted

    # -- solving ---------------------------------------------------------

    def solve(
        self,
        objective: str,
        *,
        active: Iterable[int] | None = None,
        augment: bool = False,
    ) -> EngineSolution:
        """Solve one objective for the active users; stitched + validated.

        ``active`` overrides the tracked membership for this call only.
        ``augment`` (MNU only) greedily serves leftover users after the
        approximation, exactly like ``solve_mnu(..., augment=True)``.
        """
        if objective not in OBJECTIVES:
            raise ModelError(f"unknown objective {objective!r}")
        active_set = (
            set(self._active) if active is None else set(active)
        )
        self._check_users(active_set)
        hits0 = self._cache.stats.hits
        misses0 = self._cache.stats.misses

        with tracing.span(
            "engine.solve",
            objective=objective,
            n_active=len(active_set),
            parallel=self.parallel,
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
            elif self.bla_mode == "federated":
                self._require_coverage(active_set)
                solution = self._solve_bla_federated(active_set)
            else:
                solution = self._solve_bla_exact(active_set)
        metrics.incr("engine.solves")

        assignment, n_resolved, extras = solution
        return EngineSolution(
            objective=objective,
            assignment=assignment,
            n_shards=self.plan.n_shards,
            n_resolved=n_resolved,
            cache_hits=self._cache.stats.hits - hits0,
            cache_misses=self._cache.stats.misses - misses0,
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
    ) -> Callable[..., Assignment]:
        def stitch(
            problem: MulticastAssociationProblem, raws: list
        ) -> Assignment:
            return stitch_mnu(
                problem, raws, augment=augment, eligible=active_set
            )

        return stitch

    def _solve_cached(
        self,
        objective: str,
        active_set: set[int],
        worker: Callable[[MulticastAssociationProblem], object],
        stitch: Callable[..., Assignment],
    ) -> tuple[Assignment, int, dict[str, object]]:
        """The shared MNU/MLA path: per-shard cache → backend → stitch.

        Cache entries hold the shard's raw set picks *already remapped to
        global indices*, so stitching treats hits and misses uniformly.
        """
        live = self._live_shards(active_set)
        raws: list[object | None] = [None] * len(live)
        pending: list[int] = []
        prints: list[str] = []
        for i, (shard, users) in enumerate(live):
            fingerprint = shard_fingerprint(self.problem, shard, users)
            prints.append(fingerprint)
            entry = (
                self._cache.get(objective, shard.index, fingerprint)
                if self._use_cache
                else None
            )
            if entry is None:
                pending.append(i)
            else:
                raws[i] = entry
        subs = [live[i][0].slice(active_set) for i in pending]
        solved = instrumented_map(
            self._backend,
            worker,
            [sp.problem for sp in subs],
            "engine.shard-solve",
            objective=objective,
        )
        for i, shard_problem, raw in zip(pending, subs, solved, strict=True):
            if objective == "mnu":
                entry = (
                    to_global_picks(shard_problem, raw[0]),
                    to_global_picks(shard_problem, raw[1]),
                )
            else:
                entry = to_global_picks(shard_problem, raw)
            raws[i] = entry
            if self._use_cache:
                self._cache.put(
                    objective, live[i][0].index, prints[i], entry
                )
        assignment = stitch(self.problem, raws)
        return assignment, len(pending), {}

    def _solve_bla_exact(
        self, active_set: set[int]
    ) -> tuple[Assignment, int, dict[str, object]]:
        result = solve_sharded_bla(
            self.problem,
            self.shards,
            self._backend,
            active=active_set,
        )
        live = self._live_shards(active_set)
        return (
            result.assignment,
            len(live),
            {"b_star": result.b_star, "iterations": result.iterations},
        )

    def _solve_bla_federated(
        self, active_set: set[int]
    ) -> tuple[Assignment, int, dict[str, object]]:
        live = self._live_shards(active_set)
        entries: list[object | None] = [None] * len(live)
        pending: list[int] = []
        prints: list[str] = []
        for i, (shard, users) in enumerate(live):
            fingerprint = shard_fingerprint(self.problem, shard, users)
            prints.append(fingerprint)
            entry = (
                self._cache.get("bla", shard.index, fingerprint)
                if self._use_cache
                else None
            )
            if entry is None:
                pending.append(i)
            else:
                entries[i] = entry
        subs = [live[i][0].slice(active_set) for i in pending]
        solved = instrumented_map(
            self._backend,
            bla_shard_federated,
            [sp.problem for sp in subs],
            "engine.shard-solve",
            objective="bla-federated",
        )
        for i, shard_problem, (local_map, b_star, iters) in zip(
            pending, subs, solved, strict=True
        ):
            entry = (
                tuple(shard_problem.map_assignment(local_map)),
                b_star,
                iters,
            )
            entries[i] = entry
            if self._use_cache:
                self._cache.put("bla", live[i][0].index, prints[i], entry)
        pairs: list[tuple[int, int]] = []
        b_star = 0.0
        iterations = 0
        for entry in entries:
            shard_pairs, shard_b, shard_iters = entry
            pairs.extend(shard_pairs)
            b_star = max(b_star, shard_b)
            iterations = max(iterations, shard_iters)
        assignment = stitch_assignment(self.problem, pairs)
        assignment.validate(check_budgets=False)
        return (
            assignment,
            len(pending),
            {
                "b_star": b_star if entries else float("inf"),
                "iterations": iterations,
            },
        )
