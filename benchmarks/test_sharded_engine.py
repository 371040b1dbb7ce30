"""Sharded engine vs monolithic solvers: wall-clock, parity, cache hits.

Not a paper figure — the release gate for the engine subsystem. On large
federated deployments the engine must (a) return exactly the monolithic
objective values, (b) not be meaningfully slower serially (the partition
is near-free), and (c) under churn answer most re-solves from the shard
cache. The table records shard counts, timings and hit rates per preset.
"""

from __future__ import annotations

import time

from benchmarks.conftest import n_scenarios, run_once
from repro.core.bla import solve_bla
from repro.core.mla import solve_mla
from repro.core.mnu import solve_mnu
from repro.core.online import generate_churn_trace
from repro.engine import ShardedEngine
from repro.scenarios.federation import generate_federation

#: (clusters, APs per cluster, users per cluster)
PRESETS = ((6, 4, 30), (12, 4, 40), (20, 5, 50))
MONOLITHIC = {"mnu": solve_mnu, "bla": solve_bla, "mla": solve_mla}


def _values(assignment):
    return {
        "mnu": float(assignment.n_served),
        "bla": assignment.max_load(),
        "mla": assignment.total_load(),
    }


def run_engine_comparison():
    rows = []
    for clusters, aps_per, users_per in PRESETS:
        for seed in range(n_scenarios(1)):
            problem = generate_federation(
                n_clusters=clusters,
                aps_per_cluster=aps_per,
                users_per_cluster=users_per,
                n_sessions=3,
                seed=seed,
            ).problem()
            row = {
                "preset": (clusters, aps_per, users_per),
                "seed": seed,
                "objectives": {},
            }
            engine = ShardedEngine(problem)
            row["n_shards"] = engine.plan.n_shards
            for objective in ("mnu", "bla", "mla"):
                start = time.perf_counter()
                solution = engine.solve(objective)
                sharded_s = time.perf_counter() - start
                start = time.perf_counter()
                reference = MONOLITHIC[objective](problem).assignment
                mono_s = time.perf_counter() - start
                sharded_value = solution.value()
                mono_value = _values(reference)[objective]
                row["objectives"][objective] = {
                    "sharded_s": sharded_s,
                    "mono_s": mono_s,
                    "sharded_value": sharded_value,
                    "mono_value": mono_value,
                }
            # Churn phase: per-event incremental MNU re-solves. The
            # trace starts from an empty system, so track it as such.
            trace = generate_churn_trace(problem, 40)
            active: set[int] = set()
            engine.cache_stats.reset()
            for event in trace:
                if event.kind == "join":
                    active.add(event.user)
                else:
                    active.discard(event.user)
                engine.solve("mnu", active=active)
            row["hit_rate"] = engine.cache_stats.hit_rate()
            rows.append(row)
    return rows


def test_sharded_engine(benchmark, show):
    rows = run_once(benchmark, run_engine_comparison)
    show("== sharded engine vs monolithic ==")
    show(
        "  preset          shards  obj   sharded(s)  mono(s)   value"
        "        churn-hit-rate"
    )
    for row in rows:
        for objective, cell in row["objectives"].items():
            show(
                f"  {str(row['preset']):<15} {row['n_shards']:>5}  "
                f"{objective:<4} {cell['sharded_s']:>9.3f} {cell['mono_s']:>8.3f}  "
                f"{cell['sharded_value']:>12.6g}  {row['hit_rate']:>8.2f}"
            )
    for row in rows:
        # Objective parity is exact — the engine's core contract.
        for objective, cell in row["objectives"].items():
            assert cell["sharded_value"] == cell["mono_value"], (
                row["preset"],
                objective,
            )
        # Churn touches one shard per event: the cache answers the rest.
        assert row["n_shards"] >= row["preset"][0]
        assert row["hit_rate"] > 0.5
