#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload churn-dense --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` beside this directory, never from an installed copy, and the
run exits with code 2 when that source is missing. ``--trace 0``
reports the end-to-end metrics of an untimed-set-up, single-client,
closed-loop run; ``--trace 1`` repeats the same run, then measures the
same number of operations again with the per-layer wrappers installed
and reports the per-layer metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# Pin native thread pools before numpy is first imported, so no solve
# runs more busy threads than the one client drives.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("churn-dense", "churn-federated", "plan-balance")

#: ``(name, unit, better)`` of every end-to-end metric (``--trace 0``).
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: ``(name, unit, better)`` of every per-layer metric (``--trace 1``).
#: A layer a workload never calls reads 0 there.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("service.tick_ms", "ms", "lower"),
    ("service.overhead_ms", "ms", "lower"),
    ("service.read_ms", "ms", "lower"),
    ("engine.solve_ms", "ms", "lower"),
    ("engine.swap_ms", "ms", "lower"),
    ("engine.plan_shards_ms", "ms", "lower"),
    ("engine.fingerprint_ms", "ms", "lower"),
    ("engine.fingerprints_per_tick", "count/tick", "lower"),
    ("engine.stitch_ms", "ms", "lower"),
    ("engine.resolved_shards_per_tick", "count/tick", "lower"),
    ("engine.cache_hit_ratio", "ratio", "higher"),
    ("eval.solve_ms", "ms", "lower"),
    ("core.candidates_ms", "ms", "lower"),
    ("core.setcover_ms", "ms", "lower"),
    ("core.isolated_users_ms", "ms", "lower"),
    ("core.materialize_ms", "ms", "lower"),
    ("core.ledger_build_ms", "ms", "lower"),
    ("core.mcg_ms", "ms", "lower"),
    ("mcg.candidate_scans", "count/solve", "lower"),
    ("mcg.rounds", "count/solve", "lower"),
    ("core.rebalance_ms", "ms", "lower"),
    ("distributed.decisions", "count/solve", "lower"),
    ("distributed.move_ratio", "ratio", "higher"),
    ("bla.bstar_probes", "count/solve", "lower"),
    ("scenarios.generate_s", "s", "lower"),
    ("trace_overhead_ms", "ms", "lower"),
    ("unattributed_share", "ratio", "lower"),
)

#: Times each workload is set up in one run; ``setup_s`` is the median.
#: ``plan-balance`` sets up twice: each set-up is 16 certified solves.
SETUP_REPEATS = {"churn-dense": 3, "churn-federated": 3, "plan-balance": 2}

#: Layers timed per operation, by the workload family that calls them.
SERVICE_TIMED = (
    "service.tick",
    "service.read",
    "engine.solve",
    "engine.swap",
    "engine.plan_shards",
    "engine.fingerprint",
    "engine.stitch",
    "core.candidates",
    "core.setcover",
    "core.isolated_users",
    "core.materialize",
    "core.ledger_build",
)
PLAN_TIMED = (
    "eval.solve",
    "core.candidates",
    "core.mcg",
    "core.rebalance",
    "core.isolated_users",
    "core.ledger_build",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[0] = str(ROOT)  # the script's own directory is not a package root
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


class Run:
    """Outcome of one workload run, before it is printed."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.generate_s: list[float] = []
        self.phases: list[Any] = []
        self.problems: list[str] = []
        self.layers: dict[str, float] = {}

    def timed_setup(self, build: Callable[[], Any]) -> Any:
        gc.collect()
        start = time.perf_counter()
        fixture = build()
        self.setup_s.append(time.perf_counter() - start)
        self.generate_s.append(fixture.generate_s)
        return fixture


def run_churn(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    from repro import obs

    from perfbench import churn
    from perfbench.layers import LayerTracer, service_targets

    spec = churn.DENSE if workload == "churn-dense" else churn.FEDERATED
    n_ops = max(1, round(seconds * spec.ops_per_s))
    total = n_ops * (2 if trace else 1)
    run = Run()
    fixture = None
    try:
        for _ in range(SETUP_REPEATS[workload]):
            if fixture is not None:
                fixture.close()
                fixture = None
            fixture = run.timed_setup(lambda: churn.setup(spec, seed, total))
        assert fixture is not None
        run.phases.append(churn.run_phase(fixture, n_ops))
        if trace:
            tracer = LayerTracer()
            fixture.ticks.clear()
            fixture.post_ms.clear()
            tracer.install(service_targets())
            try:
                with obs.collecting():
                    run.phases.append(churn.run_phase(fixture, n_ops))
            finally:
                tracer.uninstall()
            run.layers = churn_layers(tracer, fixture, n_ops)
        run.problems = churn.final_gate(fixture)
    finally:
        if fixture is not None:
            fixture.close()
    return run


def churn_layers(tracer: Any, fixture: Any, n_ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced churn phase."""
    from perfbench import churn

    layers = {f"{name}_ms": tracer.per_op_ms(name, n_ops) for name in SERVICE_TIMED}
    layers["service.overhead_ms"] = (
        statistics.fmean(fixture.post_ms) - layers["service.tick_ms"]
    )
    ticks = max(tracer.calls["service.tick"], 1)
    layers["engine.fingerprints_per_tick"] = (
        tracer.calls["engine.fingerprint"] / ticks
    )
    layers.update(churn.tick_counts(fixture.ticks))
    layers["unattributed_share"] = tracer.unattributed_share("service.tick")
    return layers


def run_plan(seed: int, seconds: float, trace: bool) -> Run:
    from repro import obs

    from perfbench import plan
    from perfbench.layers import LayerTracer, plan_targets

    n_ops = plan.n_ops(seconds)
    run = Run()
    fixture = None
    for _ in range(SETUP_REPEATS["plan-balance"]):
        fixture = None
        fixture = run.timed_setup(lambda: plan.setup(seed))
    assert fixture is not None
    run.phases.append(plan.run_phase(fixture, n_ops))
    if trace:
        tracer = LayerTracer()
        tracer.install(plan_targets())
        try:
            with obs.collecting() as session:
                run.phases.append(plan.run_phase(fixture, n_ops))
        finally:
            tracer.uninstall()
        run.layers = plan_layers(tracer, session.metrics.counters(), n_ops)
    return run


def plan_layers(
    tracer: Any, counters: dict[str, int], n_ops: int
) -> dict[str, float]:
    """Per-layer metrics of a traced plan phase; counts are per solve."""
    layers = {f"{name}_ms": tracer.per_op_ms(name, n_ops) for name in PLAN_TIMED}
    for name in (
        "mcg.candidate_scans",
        "mcg.rounds",
        "distributed.decisions",
        "bla.bstar_probes",
    ):
        layers[name] = counters.get(name, 0) / n_ops
    decisions = counters.get("distributed.decisions", 0)
    moves = counters.get("distributed.moves", 0)
    layers["distributed.move_ratio"] = moves / decisions if decisions else 0.0
    layers["unattributed_share"] = tracer.unattributed_share("eval.solve")
    return layers


def report(run: Run, trace: bool) -> dict[str, Any]:
    from perfbench import stats

    untraced = run.phases[0]
    p50 = statistics.median(untraced.latencies_ms)
    tail = stats.tail(untraced.latencies_ms)
    print(
        f"operations {untraced.attempted}, failed {untraced.failed}; "
        f"latency p50 {p50:.2f} ms, tail p{tail.percentile:g} "
        f"{tail.value:.2f} ms ({tail.n_beyond} of {tail.n_samples} "
        f"samples beyond); setup runs "
        + ", ".join(f"{s:.3f}" for s in run.setup_s)
        + " s"
    )
    if trace:
        values = dict(run.layers)
        values["scenarios.generate_s"] = statistics.median(run.generate_s)
        traced_p50 = statistics.median(run.phases[1].latencies_ms)
        values["trace_overhead_ms"] = traced_p50 - p50
        metrics = {
            name: metric(values.get(name, 0.0), unit)
            for name, unit, _ in PER_LAYER
        }
        idle = [name for name, _, _ in PER_LAYER if name not in values]
        print("not exercised by this workload (reported as 0): " + ", ".join(idle))
    else:
        metrics = {
            "latency_p50_ms": metric(p50, "ms"),
            "latency_tail_ms": metric(tail.value, "ms"),
            "throughput_per_s": metric(untraced.throughput_per_s, "1/s"),
            "setup_s": metric(statistics.median(run.setup_s), "s"),
            "peak_rss_mb": metric(stats.peak_rss_mb(), "MB"),
        }
    for problem in run.problems:
        print(f"correctness gate: {problem}", file=sys.stderr)
    attempted = sum(phase.attempted for phase in run.phases)
    failed = sum(phase.failed for phase in run.phases)
    return {
        "correct": not run.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    # Everything the timed code needs is imported before any clock runs.
    from perfbench import churn, layers, plan, stats  # noqa: F401

    trace = bool(args.trace)
    if args.workload == "plan-balance":
        run = run_plan(args.seed, args.seconds, trace)
    else:
        run = run_churn(args.workload, args.seed, args.seconds, trace)
    result = report(run, trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
