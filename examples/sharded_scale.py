#!/usr/bin/env python3
"""Sharded engine: federated deployments, exact solves, live churn.

Generates a federated WLAN (10 clusters that cannot hear each other —
think buildings on a campus), partitions it along the coverage graph, and
shows the two things the sharded engine buys you:

1. **Exactness** — the stitched shard solves return the same objective
   values as the monolithic solvers;
2. **Incrementality** — under join/leave churn, re-solves touch only the
   shard the event landed in (watch the cache hit rate).

Run:  python examples/sharded_scale.py
"""

from __future__ import annotations

import time

from repro import ShardedEngine, solve_bla, solve_mla, solve_mnu
from repro.core.online import generate_churn_trace
from repro.scenarios import generate_federation


def main() -> None:
    scenario = generate_federation(
        n_clusters=10, aps_per_cluster=4, users_per_cluster=30, n_sessions=3, seed=1
    )
    problem = scenario.problem()
    print(
        f"federation: {problem.n_aps} APs, {problem.n_users} users "
        f"in 10 mutually-unreachable clusters"
    )

    # --- 1. exactness: sharded == monolithic, objective by objective
    monolithic = {
        "mnu": lambda: float(solve_mnu(problem).assignment.n_served),
        "bla": lambda: solve_bla(problem).assignment.max_load(),
        "mla": lambda: solve_mla(problem).assignment.total_load(),
    }
    engine = ShardedEngine(problem)
    plan = engine.plan
    print(
        f"partition: {plan.n_components} coverage components "
        f"-> {plan.n_shards} shards"
    )
    for objective in ("mnu", "bla", "mla"):
        start = time.perf_counter()
        sharded_value = engine.solve(objective).value()
        sharded_s = time.perf_counter() - start
        start = time.perf_counter()
        mono_value = monolithic[objective]()
        mono_s = time.perf_counter() - start
        marker = "==" if sharded_value == mono_value else "!="
        print(
            f"  {objective}: sharded {sharded_value:.6g} ({sharded_s:.3f}s) "
            f"{marker} monolithic {mono_value:.6g} ({mono_s:.3f}s)"
        )

    # --- 2. incrementality: churn re-solves only the touched shard
    engine = ShardedEngine(problem)
    active: set[int] = set()  # the trace starts from an empty system
    for event in generate_churn_trace(problem, 60):
        if event.kind == "join":
            active.add(event.user)
        else:
            active.discard(event.user)
        engine.solve("mnu", active=active)
    stats = engine.cache_stats
    print(
        f"after 60 churn events: {stats.hits} shard solves answered "
        f"from cache, {stats.misses} recomputed "
        f"(hit rate {stats.hit_rate():.0%})"
    )


if __name__ == "__main__":
    main()
