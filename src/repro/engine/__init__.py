"""Sharded association engine for large-scale WLAN deployments.

Scales the paper's centralized MNU/BLA/MLA solvers to campus-sized
instances by partitioning the AP–user coverage graph into independent
shards (:mod:`repro.engine.partition`), solving each shard with the
unmodified core solvers in process, one after another
(:mod:`repro.engine.executor`), and stitching the results into a global
assignment that matches the monolithic solve exactly. A fingerprint-guarded
cache (:mod:`repro.engine.incremental`) makes re-solves under churn
proportional to the shards an event actually touched.

Entry point: :class:`repro.engine.ShardedEngine`.
"""

from repro.engine.engine import OBJECTIVES, EngineSolution, ShardedEngine
from repro.engine.executor import stitch_mla, stitch_mnu
from repro.engine.incremental import CacheStats, ShardCache, shard_fingerprint
from repro.engine.partition import (
    Component,
    ShardPlan,
    coverage_components,
    plan_shards,
)
from repro.engine.shard import Shard, ShardProblem, build_shards

__all__ = [
    "CacheStats",
    "Component",
    "EngineSolution",
    "OBJECTIVES",
    "Shard",
    "ShardCache",
    "ShardPlan",
    "ShardProblem",
    "ShardedEngine",
    "build_shards",
    "coverage_components",
    "plan_shards",
    "shard_fingerprint",
    "stitch_mla",
    "stitch_mnu",
]
