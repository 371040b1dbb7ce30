"""The pinned benchmark suite behind ``python -m repro bench``.

Runs a fixed set of registry algorithms over pinned scenario presets
(one single-domain deployment, one federation — small in ``--quick``
mode, larger otherwise), each under a fresh observability session.
Per (algorithm, scenario) cell the report carries:

* ``p50_s`` / ``p95_s`` / ``mean_s`` wall time over ``repeats`` runs,
  sourced from the ``"algorithm.run"`` spans the metrics layer records —
  the same timing that backs ``AlgorithmResult.runtime_s``;
* the full counter and gauge snapshot of the session (greedy rounds,
  B* probes, cache traffic, per-solver load gauges, ...);
* the objective values (users served, total load, max AP load).

The report is written as ``BENCH_obs.json`` (:data:`BENCH_KIND` schema,
validated by :func:`validate_report`). With ``--baseline FILE`` the run
is additionally gated: any cell whose p50 exceeds the baseline's by more
than ``--max-regress`` percent is a regression and the command exits
non-zero — giving CI and future PRs a real performance trajectory.

``python -m repro bench --scale`` swaps the paper-sized presets for the
:data:`SCALE_CELLS` ladder (10k/50k/100k users on grid deployments from
:mod:`repro.scenarios.largescale`), written to ``BENCH_scale.json``
under the same schema and baseline gate.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping, Sequence

from repro.obs import collecting
from repro.obs.counters import percentile

BENCH_KIND = "repro-bench"
BENCH_VERSION = 1

#: The pinned algorithm suite (all registry names; see
#: :data:`repro.eval.metrics.ALGORITHMS`). Quick keeps the greedy /
#: distributed / engine families plus one per-policy load-kernel cell
#: per non-legacy transmission policy (the ``@policy`` registry
#: suffix); full adds the baselines.
QUICK_ALGORITHMS: tuple[str, ...] = (
    "ssa",
    "c-mnu",
    "c-bla",
    "c-mla",
    "d-mla",
    "e-mnu",
    "e-bla",
    "e-mla",
    "c-mla@dms",
    "c-mla@hybrid",
    "c-mnu@dms",
)
FULL_ALGORITHMS: tuple[str, ...] = QUICK_ALGORITHMS + (
    "d-mnu",
    "d-bla",
    "ssa-budget",
    "least-load",
    "least-users",
    "random",
)


def bench_scenarios(*, quick: bool, seed: int = 0) -> list[tuple[str, Any]]:
    """The pinned ``(name, Scenario)`` presets for one bench run."""
    from repro.radio.geometry import Area
    from repro.scenarios.federation import generate_federation
    from repro.scenarios.generator import generate

    if quick:
        single = generate(
            n_aps=8,
            n_users=24,
            n_sessions=3,
            seed=seed + 7,
            area=Area.square(600),
            budget=0.25,
        )
        federation = generate_federation(
            n_clusters=3,
            aps_per_cluster=2,
            users_per_cluster=6,
            n_sessions=2,
            seed=seed + 3,
        )
    else:
        single = generate(
            n_aps=20,
            n_users=80,
            n_sessions=5,
            seed=seed + 7,
            area=Area.square(900),
            budget=0.25,
        )
        federation = generate_federation(
            n_clusters=4,
            aps_per_cluster=3,
            users_per_cluster=12,
            n_sessions=3,
            seed=seed + 3,
        )
    return [("single-domain", single), ("federation", federation)]


#: The pinned scale ladder: (scenario name, users, APs, algorithms).
#: 10k is the CI smoke cell; 50k and 100k bound the array-backed hot
#: paths at the paper's "large-scale WLAN" end. The sharded engine is
#: exercised at 10k only; the greedy paths and c-bla's B*-search with its
#: rebalance run all the way up.
SCALE_CELLS: tuple[tuple[str, int, int, tuple[str, ...]], ...] = (
    ("scale-10k", 10_000, 256, ("c-mnu", "c-bla", "c-mla", "e-mla")),
    ("scale-50k", 50_000, 512, ("c-mnu", "c-bla", "c-mla")),
    ("scale-100k", 100_000, 1_000, ("c-mnu", "c-bla", "c-mla")),
)


def run_scale_bench(
    *,
    quick: bool = False,
    repeats: int | None = None,
    seed: int = 0,
) -> dict:
    """Run the large-scale ladder; returns the (JSON-able) report document.

    Same :data:`BENCH_KIND` schema as :func:`run_bench` (one result row
    per algorithm × cell), so the ``--baseline`` gate and all report
    tooling apply unchanged. ``quick`` keeps only the 10k cell; the
    default single repeat reflects that these cells run for seconds, not
    microseconds — timer noise is not the concern here.
    """
    from repro.eval.metrics import run_algorithm
    from repro.scenarios.largescale import generate_largescale

    if repeats is None:
        repeats = 1
    if repeats < 1:
        raise ValueError("need at least one repeat per cell")
    cells = SCALE_CELLS[:1] if quick else SCALE_CELLS
    results: list[dict] = []
    for scenario_name, n_users, n_aps, algorithms in cells:
        problem = generate_largescale(
            n_users=n_users, n_aps=n_aps, seed=seed
        )
        for algorithm in algorithms:
            with collecting() as session:
                last = None
                for _ in range(repeats):
                    last = run_algorithm(algorithm, problem, seed=seed)
                times = [
                    record.wall_s
                    for record in session.trace.spans("algorithm.run")
                ]
                snapshot = session.metrics.snapshot()
            assert last is not None and len(times) == repeats
            results.append(
                {
                    "algorithm": algorithm,
                    "scenario": scenario_name,
                    "n_aps": n_aps,
                    "n_users": n_users,
                    "repeats": repeats,
                    "p50_s": percentile(times, 50),
                    "p95_s": percentile(times, 95),
                    "mean_s": sum(times) / len(times),
                    "objective": {
                        "n_served": last.n_served,
                        "total_load": last.total_load,
                        "max_load": last.max_load,
                    },
                    "counters": snapshot["counters"],
                    "gauges": snapshot["gauges"],
                }
            )
    return {
        "kind": BENCH_KIND,
        "version": BENCH_VERSION,
        "config": {
            "suite": "scale",
            "quick": quick,
            "repeats": repeats,
            "seed": seed,
            "cells": [name for name, _, _, _ in cells],
        },
        "results": results,
    }


def run_bench(
    *,
    quick: bool = False,
    repeats: int | None = None,
    seed: int = 0,
    algorithms: Sequence[str] | None = None,
) -> dict:
    """Run the pinned suite; returns the (JSON-able) report document."""
    from repro.eval.metrics import (
        ALGORITHMS,
        run_algorithm,
        split_policy_suffix,
    )

    if repeats is None:
        repeats = 3 if quick else 5
    if repeats < 1:
        raise ValueError("need at least one repeat per cell")
    names = tuple(algorithms) if algorithms else (
        QUICK_ALGORITHMS if quick else FULL_ALGORITHMS
    )
    # Names may carry an @policy suffix (e.g. "c-mla@dms"); the suffix
    # itself is validated by split_policy_suffix.
    unknown = [
        n for n in names if split_policy_suffix(n)[0] not in ALGORITHMS
    ]
    if unknown:
        raise KeyError(f"unknown algorithm(s): {unknown}")

    results: list[dict] = []
    for scenario_name, scenario in bench_scenarios(quick=quick, seed=seed):
        problem = scenario.problem()
        for algorithm in names:
            with collecting() as session:
                last = None
                for _ in range(repeats):
                    last = run_algorithm(algorithm, problem, seed=seed)
                # Timing straight from the span collector: one
                # "algorithm.run" span per repeat.
                times = [
                    record.wall_s
                    for record in session.trace.spans("algorithm.run")
                ]
                snapshot = session.metrics.snapshot()
            assert last is not None and len(times) == repeats
            results.append(
                {
                    "algorithm": algorithm,
                    "scenario": scenario_name,
                    "n_aps": problem.n_aps,
                    "n_users": problem.n_users,
                    "repeats": repeats,
                    "p50_s": percentile(times, 50),
                    "p95_s": percentile(times, 95),
                    "mean_s": sum(times) / len(times),
                    "objective": {
                        "n_served": last.n_served,
                        "total_load": last.total_load,
                        "max_load": last.max_load,
                    },
                    "counters": snapshot["counters"],
                    "gauges": snapshot["gauges"],
                }
            )
    return {
        "kind": BENCH_KIND,
        "version": BENCH_VERSION,
        "config": {
            "quick": quick,
            "repeats": repeats,
            "seed": seed,
            "algorithms": list(names),
        },
        "results": results,
    }


#: Per-result required fields and their types, for schema validation.
_RESULT_FIELDS: dict[str, type | tuple[type, ...]] = {
    "algorithm": str,
    "scenario": str,
    "n_aps": int,
    "n_users": int,
    "repeats": int,
    "p50_s": (int, float),
    "p95_s": (int, float),
    "mean_s": (int, float),
    "objective": dict,
    "counters": dict,
    "gauges": dict,
}


def validate_report(report: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``report`` is a valid bench document."""
    if report.get("kind") != BENCH_KIND:
        raise ValueError(f"not a {BENCH_KIND} document: {report.get('kind')!r}")
    if report.get("version") != BENCH_VERSION:
        raise ValueError(f"unsupported bench version {report.get('version')!r}")
    results = report.get("results")
    if not isinstance(results, list) or not results:
        raise ValueError("bench report carries no results")
    for i, result in enumerate(results):
        for name, types in _RESULT_FIELDS.items():
            if name not in result:
                raise ValueError(f"results[{i}] is missing {name!r}")
            if not isinstance(result[name], types):
                raise ValueError(
                    f"results[{i}].{name} has type "
                    f"{type(result[name]).__name__}, expected {types}"
                )
        if result["p50_s"] < 0 or result["p95_s"] < result["p50_s"]:
            raise ValueError(
                f"results[{i}] timing quantiles are inconsistent: "
                f"p50={result['p50_s']} p95={result['p95_s']}"
            )
        for key in ("n_served", "total_load", "max_load"):
            if key not in result["objective"]:
                raise ValueError(f"results[{i}].objective is missing {key!r}")


def compare_to_baseline(
    report: Mapping[str, Any],
    baseline: Mapping[str, Any],
    *,
    max_regress_pct: float,
    min_time_s: float = 0.0,
) -> list[dict]:
    """Cells of ``report`` slower than ``baseline`` beyond the tolerance.

    Matching is by ``(algorithm, scenario)``; cells present in only one
    document are skipped (new algorithms are not regressions). A cell
    regresses when its p50 exceeds the baseline p50 by more than
    ``max_regress_pct`` percent; baselines faster than ``min_time_s`` are
    ignored (timer-noise guard for sub-resolution cells).
    """
    validate_report(report)
    validate_report(baseline)
    if max_regress_pct < 0:
        raise ValueError("max_regress_pct must be non-negative")
    base = {
        (r["algorithm"], r["scenario"]): r for r in baseline["results"]
    }
    regressions: list[dict] = []
    for result in report["results"]:
        reference = base.get((result["algorithm"], result["scenario"]))
        if reference is None or reference["p50_s"] < min_time_s:
            continue
        allowed = reference["p50_s"] * (1.0 + max_regress_pct / 100.0)
        if result["p50_s"] > allowed:
            regressions.append(
                {
                    "algorithm": result["algorithm"],
                    "scenario": result["scenario"],
                    "p50_s": result["p50_s"],
                    "baseline_p50_s": reference["p50_s"],
                    "ratio": (
                        result["p50_s"] / reference["p50_s"]
                        if reference["p50_s"] > 0
                        else math.inf
                    ),
                }
            )
    return regressions


def format_report(report: Mapping[str, Any]) -> str:
    """Human-readable table of one bench report."""
    lines = [
        f"{'scenario':<14} {'algorithm':<12} {'p50':>10} {'p95':>10} "
        f"{'served':>7} {'total':>9} {'max':>9}"
    ]
    for result in report["results"]:
        objective = result["objective"]
        lines.append(
            f"{result['scenario']:<14} {result['algorithm']:<12} "
            f"{result['p50_s'] * 1e3:>8.2f}ms {result['p95_s'] * 1e3:>8.2f}ms "
            f"{objective['n_served']:>7} {objective['total_load']:>9.4f} "
            f"{objective['max_load']:>9.4f}"
        )
    return "\n".join(lines)


def write_report(report: Mapping[str, Any], path: str) -> None:
    """Serialize ``report`` to ``path`` as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")


def load_report(path: str) -> dict:
    """Load and schema-validate a bench document."""
    with open(path, "r", encoding="utf-8") as stream:
        report = json.load(stream)
    validate_report(report)
    return report
