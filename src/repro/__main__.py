"""``python -m repro`` — self-check and the sharded-engine CLI.

With no arguments (or ``selfcheck``) this verifies, in a few seconds, that
the installed package reproduces the paper's worked examples end to end:
the Figure-1 traces for all three objectives (centralized, distributed,
exact), the Figure-4 oscillation and its lock-based fix, and a tiny
protocol-simulation run. Exits 0 on success; prints the first failed
check otherwise.

``python -m repro engine`` demonstrates the sharded association engine on
a generated federated deployment: partitions the coverage graph, solves
the chosen objectives per shard, and — with ``--compare`` — checks the
stitched objective values against the monolithic solvers.

``python -m repro verify`` runs the correctness gate: every solver's
output through the certificate checker plus the three differential
oracles, on generated scenarios and federations. ``python -m repro fuzz
--budget N`` drives the seeded property-based fuzzer; failures are
shrunk and archived as replayable JSON repros (``--corpus``).

``python -m repro lint`` runs replint, the AST-based architectural
invariant checker (:mod:`repro.lint`): one load-model kernel, the
import-layering DAG, determinism hygiene, float-equality bans and obs
discipline, with per-line ``# replint: ignore[RPL00x]`` suppressions.
CI runs it over ``src``, ``tests`` and ``benchmarks``.

``python -m repro bench`` runs the pinned observability benchmark suite
(:mod:`repro.obs.bench`): every suite algorithm over pinned scenario
presets with tracing and counters on, p50/p95 wall times from the span
collector, written to ``BENCH_obs.json``. ``--baseline FILE
--max-regress PCT`` turns the run into a regression gate that exits
non-zero on slowdowns. ``python -m repro bench --service`` instead
boots the live association-control service at pinned deployment sizes,
replays seeded churn through it, and writes sustained events/sec plus
tick re-solve latency quantiles to ``BENCH_service.json`` under the
same schema and gate.

``python -m repro serve`` boots the persistent asyncio
association-control service (:mod:`repro.service`): a generated
scenario, a tick loop coalescing join/leave/move/rate-change events
into incremental engine re-solves, and a JSON-over-HTTP control
surface (``GET /assignments``, ``/loads``, ``/metrics``, ``/healthz``;
``POST /events``, ``/shutdown``) with graceful drain on SIGTERM. See
``docs/service.md``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence


def _check(name: str, condition: bool) -> None:
    status = "ok" if condition else "FAILED"
    print(f"  [{status:^6}] {name}")
    if not condition:
        raise SystemExit(f"self-check failed at: {name}")


def run_selfcheck() -> int:
    """Reproduce the paper's worked examples; 0 when everything passes."""
    import repro
    from repro import (
        MulticastAssociationProblem,
        Session,
        WlanConfig,
        WlanSimulation,
        run_distributed,
        run_locked_simultaneous,
        solve_bla,
        solve_bla_optimal,
        solve_mla,
        solve_mla_optimal,
        solve_mnu,
        solve_mnu_optimal,
    )
    from repro.scenarios import Scenario, generate

    print(f"repro {repro.__version__} self-check")

    # the Figure-1 WLAN
    def fig1(rate: float, budget: float = math.inf):
        return MulticastAssociationProblem(
            [[3, 6, 4, 4, 4], [0, 0, 5, 5, 3]],
            [0, 1, 0, 1, 1],
            [Session(0, rate), Session(1, rate)],
            budgets=budget,
        )

    mnu_instance = fig1(3.0, budget=1.0)
    load_instance = fig1(1.0)

    _check(
        "Centralized MNU trace (3 users on a1)",
        solve_mnu(mnu_instance).assignment.ap_of_user == (None, 0, None, 0, 0),
    )
    _check(
        "MNU optimum = 4 (ILP)",
        solve_mnu_optimal(mnu_instance).objective == 4,
    )
    _check(
        "Centralized MLA trace (total 7/12)",
        abs(solve_mla(load_instance).total_load - 7 / 12) < 1e-9,
    )
    _check(
        "MLA optimum = 7/12 (ILP)",
        abs(solve_mla_optimal(load_instance).objective - 7 / 12) < 1e-9,
    )
    _check(
        "Centralized BLA trace (max 7/12)",
        abs(solve_bla(load_instance, local_search=False).max_load - 7 / 12)
        < 1e-9,
    )
    _check(
        "BLA optimum = 1/2 (ILP)",
        abs(solve_bla_optimal(load_instance).objective - 0.5) < 1e-9,
    )

    # Figure 4: oscillation and the Section-8 fix
    fig4 = MulticastAssociationProblem(
        [[5, 4, 4, 0], [0, 4, 4, 5]], [0, 0, 0, 0], [Session(0, 1.0)]
    )
    oscillating = run_distributed(
        fig4,
        "mla",
        mode="simultaneous",
        initial=[0, 0, 1, 1],
        shuffle_each_round=False,
        max_rounds=50,
    )
    _check("Figure-4 simultaneous oscillation", oscillating.oscillated)
    locked = run_locked_simultaneous(fig4, "mla", initial=[0, 0, 1, 1])
    _check("lock-based coordination converges", locked.converged)

    # tiny protocol run
    scenario: Scenario = generate(
        n_aps=6, n_users=12, n_sessions=2, seed=1,
        area=repro.Area.square(450),
    )
    result = WlanSimulation(
        scenario, WlanConfig(policy="mla", max_time_s=400.0)
    ).run()
    _check(
        "protocol simulation converges and serves everyone",
        result.converged and result.n_served == scenario.n_users,
    )

    print("all checks passed")
    return 0


def run_engine(args: argparse.Namespace) -> int:
    """Demonstrate the sharded engine on a federated deployment."""
    from repro.core.bla import solve_bla
    from repro.core.mla import solve_mla
    from repro.core.mnu import solve_mnu
    from repro.engine import ShardedEngine
    from repro.obs import trace as tracing
    from repro.scenarios.federation import generate_federation

    scenario = generate_federation(
        n_clusters=args.clusters,
        aps_per_cluster=args.aps_per_cluster,
        users_per_cluster=args.users_per_cluster,
        n_sessions=args.sessions,
        seed=args.seed,
    )
    problem = scenario.problem()
    print(
        f"federation: {args.clusters} clusters, "
        f"{problem.n_aps} APs, {problem.n_users} users"
    )
    objectives = (
        ["mnu", "bla", "mla"] if args.objective == "all" else [args.objective]
    )
    monolithic = {"mnu": solve_mnu, "bla": solve_bla, "mla": solve_mla}
    failures = 0
    engine = ShardedEngine(problem, max_shard_users=args.max_shard_users)
    plan = engine.plan
    print(
        f"plan: {plan.n_components} coverage components -> "
        f"{plan.n_shards} shards "
        f"({len(plan.isolated_users)} isolated users, "
        f"{len(plan.idle_aps)} idle APs)"
    )
    for objective in objectives:
        with tracing.timed("engine.cli-solve", objective=objective) as t:
            solution = engine.solve(objective)
        sharded_s = t.wall_s
        line = (
            f"  {objective}: value={solution.value():.6g} "
            f"shards_solved={solution.n_resolved} "
            f"time={sharded_s:.3f}s"
        )
        if args.compare:
            with tracing.timed("engine.cli-monolithic", objective=objective) as t:
                reference = monolithic[objective](problem).assignment
            mono_s = t.wall_s
            values = {
                "mnu": float(reference.n_served),
                "bla": reference.max_load(),
                "mla": reference.total_load(),
            }
            match = abs(values[objective] - solution.value()) < 1e-12
            line += (
                f" | monolithic value={values[objective]:.6g} "
                f"time={mono_s:.3f}s "
                f"[{'match' if match else 'MISMATCH'}]"
            )
            failures += 0 if match else 1
        print(line)
    if failures:
        print(f"{failures} objective(s) diverged from the monolithic solver")
        return 1
    return 0


def run_verify(args: argparse.Namespace) -> int:
    """The correctness gate: certificates + oracles on generated instances."""
    from repro.radio.geometry import Area
    from repro.scenarios.federation import generate_federation
    from repro.scenarios.generator import generate
    from repro.verify import run_all_oracles
    from repro.verify.fuzz import check_scenario

    failures = 0
    print(f"verify: {args.cases} scenarios + {args.federations} federations")
    for case in range(args.cases):
        scenario = generate(
            n_aps=5,
            n_users=14,
            n_sessions=2,
            seed=args.seed + case,
            area=Area.square(420),
            budget=0.9,
        )
        found = check_scenario(scenario, seed=args.seed + case)
        status = "ok" if not found else "FAILED"
        print(f"  [{status:^6}] scenario seed={args.seed + case}")
        for failure in found:
            print(f"           {failure.format()}")
        failures += len(found)
    for case in range(args.federations):
        scenario = generate_federation(
            n_clusters=3,
            aps_per_cluster=2,
            users_per_cluster=6,
            n_sessions=2,
            seed=args.seed + case,
        )
        reports = run_all_oracles(scenario.problem(), seed=args.seed + case)
        bad = [r for r in reports if not r.ok]
        status = "ok" if not bad else "FAILED"
        print(f"  [{status:^6}] federation seed={args.seed + case}")
        for report in bad:
            for discrepancy in report.discrepancies:
                print(f"           {discrepancy}")
        failures += len(bad)
    if failures:
        print(f"verification failed: {failures} finding(s)")
        return 1
    print("all verifications passed")
    return 0


def run_fuzz_cli(args: argparse.Namespace) -> int:
    """Drive the property-based fuzzer from the command line."""
    from repro.verify.fuzz import run_fuzz

    report = run_fuzz(
        args.budget,
        seed=args.seed,
        corpus_dir=args.corpus,
        exact_max_users=args.exact_max_users,
        oracles=not args.no_oracles,
        progress=print if args.verbose else None,
    )
    print(report.format())
    return 0 if report.ok else 1


def run_lint_cli(args: argparse.Namespace) -> int:
    """Run the replint architectural invariant checker."""
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_args)


def run_bench_cli(args: argparse.Namespace) -> int:
    """Run the pinned bench suite; optionally gate against a baseline."""
    from repro.obs import bench

    algorithms = (
        [name.strip() for name in args.algorithms.split(",") if name.strip()]
        if args.algorithms
        else None
    )
    if args.service:
        from repro.service import bench as service_bench

        if args.out == "BENCH_obs.json":
            args.out = "BENCH_service.json"
        report = service_bench.run_service_bench(
            quick=args.quick,
            seed=args.seed,
            algorithms=(
                [n.removeprefix("service-") for n in algorithms]
                if algorithms
                else None
            ),
        )
        bench.validate_report(report)
        bench.write_report(report, args.out)
        print(service_bench.format_service_report(report))
    elif args.scale:
        if args.out == "BENCH_obs.json":
            args.out = "BENCH_scale.json"
        report = bench.run_scale_bench(
            quick=args.quick,
            repeats=args.repeats,
            seed=args.seed,
        )
        bench.validate_report(report)
        bench.write_report(report, args.out)
        print(bench.format_report(report))
    else:
        report = bench.run_bench(
            quick=args.quick,
            repeats=args.repeats,
            seed=args.seed,
            algorithms=algorithms,
        )
        bench.validate_report(report)
        bench.write_report(report, args.out)
        print(bench.format_report(report))
    print(f"bench report written to {args.out}")
    if args.baseline is None:
        return 0
    baseline = bench.load_report(args.baseline)
    regressions = bench.compare_to_baseline(
        report,
        baseline,
        max_regress_pct=args.max_regress,
        min_time_s=args.min_time,
    )
    if regressions:
        print(
            f"{len(regressions)} cell(s) regressed beyond "
            f"{args.max_regress:.0f}% of {args.baseline}:"
        )
        for regression in regressions:
            print(
                f"  {regression['scenario']}/{regression['algorithm']}: "
                f"p50 {regression['p50_s'] * 1e3:.2f}ms vs baseline "
                f"{regression['baseline_p50_s'] * 1e3:.2f}ms "
                f"({regression['ratio']:.2f}x)"
            )
        return 1
    print(f"no regressions beyond {args.max_regress:.0f}% of {args.baseline}")
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """Boot the persistent association-control service."""
    import asyncio

    from repro import obs
    from repro.radio.geometry import Area
    from repro.scenarios.generator import generate
    from repro.service import AssociationService, ControlService, ServiceConfig

    obs.install()  # live /metrics from boot
    side = (
        args.area
        if args.area is not None
        else max(300.0, 150.0 * (args.aps ** 0.5))
    )
    scenario = generate(
        n_aps=args.aps,
        n_users=args.users,
        n_sessions=args.sessions,
        seed=args.seed,
        area=Area.square(side),
        budget=args.budget,
    )
    control = ControlService(
        scenario.problem(),
        algorithm=args.algorithm,
        max_shard_users=args.max_shard_users,
    )
    service = AssociationService(
        control,
        ServiceConfig(
            host=args.host,
            port=args.port,
            tick_interval_s=args.tick,
            max_batch=args.max_batch,
        ),
    )

    async def main() -> None:
        await service.start()
        plan = control.engine.plan
        print(
            f"repro service: {args.aps} APs, {args.users} users, "
            f"{args.sessions} sessions, {plan.n_shards} shards, "
            f"algorithm={args.algorithm}"
        )
        print(
            f"listening on http://{args.host}:{service.port} "
            f"(tick {args.tick * 1e3:.0f}ms, max batch {args.max_batch}); "
            "SIGTERM or POST /shutdown drains"
        )
        await service.run_until_shutdown()

    asyncio.run(main())
    print(
        f"drained and stopped after tick {control.tick_index} "
        f"({len(control.active)} users active)"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="repro command-line interface",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command="selfcheck")
    sub.add_parser("selfcheck", help="verify the install against the paper")
    engine = sub.add_parser(
        "engine", help="run the sharded engine on a federated deployment"
    )
    engine.add_argument("--clusters", type=int, default=6)
    engine.add_argument("--aps-per-cluster", type=int, default=4)
    engine.add_argument("--users-per-cluster", type=int, default=25)
    engine.add_argument("--sessions", type=int, default=3)
    engine.add_argument("--seed", type=int, default=0)
    engine.add_argument(
        "--objective",
        choices=["mnu", "bla", "mla", "all"],
        default="all",
    )
    engine.add_argument(
        "--max-shard-users",
        type=int,
        default=None,
        help="pack small components into shards of at most this many users",
    )
    engine.add_argument(
        "--compare",
        action="store_true",
        help="also run the monolithic solvers and check value parity",
    )
    verify = sub.add_parser(
        "verify",
        help="run the certificate checker and differential oracles",
    )
    verify.add_argument("--cases", type=int, default=3)
    verify.add_argument("--federations", type=int, default=3)
    verify.add_argument("--seed", type=int, default=0)
    fuzz = sub.add_parser(
        "fuzz", help="property-based fuzzing of every solver"
    )
    fuzz.add_argument(
        "--budget", type=int, default=25, help="number of fuzz cases"
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--corpus",
        default=None,
        help="directory to write shrunk JSON repros into on failure",
    )
    fuzz.add_argument(
        "--exact-max-users",
        type=int,
        default=8,
        help="run exact-ILP factor checks on instances up to this size",
    )
    fuzz.add_argument(
        "--no-oracles",
        action="store_true",
        help="certificates only (skip the differential oracles)",
    )
    fuzz.add_argument("--verbose", action="store_true")
    lint = sub.add_parser(
        "lint",
        help="run replint, the architectural invariant checker",
        add_help=False,
    )
    # the full flag surface (cache, baseline, SARIF, jobs) lives in
    # repro.lint.cli; pass everything through untouched
    lint.add_argument("lint_args", nargs=argparse.REMAINDER)
    bench = sub.add_parser(
        "bench",
        help="run the pinned observability benchmark suite",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small presets and fewer repeats (the CI smoke setting)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed runs per (algorithm, scenario) cell (default 3 quick / 5 full)",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated subset of the registry (default: the pinned suite)",
    )
    bench.add_argument(
        "--out",
        default="BENCH_obs.json",
        help="report path (default BENCH_obs.json)",
    )
    bench.add_argument(
        "--baseline",
        default=None,
        help="bench report to gate against (e.g. benchmarks/baseline.json)",
    )
    bench.add_argument(
        "--max-regress",
        type=float,
        default=25.0,
        help="per-cell p50 slowdown tolerance in percent (default 25)",
    )
    bench.add_argument(
        "--min-time",
        type=float,
        default=0.0,
        help="ignore baseline cells with p50 below this many seconds",
    )
    bench.add_argument(
        "--scale",
        action="store_true",
        help=(
            "run the large-scale ladder (10k/50k/100k users on grid "
            "deployments) instead of the paper-sized presets; --quick "
            "keeps only the 10k cell, written to BENCH_scale.json"
        ),
    )
    bench.add_argument(
        "--service",
        action="store_true",
        help=(
            "bench the live association-control service instead: "
            "seeded churn replay, events/sec and tick latency, "
            "written to BENCH_service.json"
        ),
    )
    serve = sub.add_parser(
        "serve",
        help="run the persistent association-control service",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8383,
        help="listen port (0 picks an ephemeral one)",
    )
    serve.add_argument(
        "--tick",
        type=float,
        default=0.05,
        help="tick interval in seconds (default 0.05)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=4096,
        help="max events applied per tick (default 4096)",
    )
    serve.add_argument(
        "--algorithm",
        choices=["mnu", "bla", "mla"],
        default="mla",
        help="objective the engine re-solves (default mla)",
    )
    serve.add_argument("--aps", type=int, default=24)
    serve.add_argument("--users", type=int, default=300)
    serve.add_argument("--sessions", type=int, default=5)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--budget",
        type=float,
        default=0.9,
        help="per-AP load budget of the bootstrap scenario",
    )
    serve.add_argument(
        "--area",
        type=float,
        default=None,
        help="bootstrap area side in meters (default scales with --aps)",
    )
    serve.add_argument(
        "--max-shard-users",
        type=int,
        default=64,
        help="pack coverage components into shards of at most this many users",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; no arguments means ``selfcheck``."""
    args = _build_parser().parse_args([] if argv is None else list(argv))
    if args.command == "engine":
        return run_engine(args)
    if args.command == "verify":
        return run_verify(args)
    if args.command == "fuzz":
        return run_fuzz_cli(args)
    if args.command == "lint":
        return run_lint_cli(args)
    if args.command == "bench":
        return run_bench_cli(args)
    if args.command == "serve":
        return run_serve(args)
    return run_selfcheck()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
