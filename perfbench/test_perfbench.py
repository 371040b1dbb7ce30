"""Self-tests of the benchmark: statistics, failure counting, the gates.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root
of the checkout. They use small instances, so they take seconds.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.radio.geometry import Area
from repro.scenarios.generator import generate
from repro.service.events import Event

from perfbench import churn, plan, stats
from perfbench.layers import LayerTracer

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def _run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- the tail-percentile rule ------------------------------------------------


@pytest.mark.parametrize(
    ("n", "percentile"),
    [(20, 50.0), (48, 75.0), (99, 75.0), (100, 90.0), (260, 95.0), (1000, 99.0)],
)
def test_tail_is_highest_rung_with_ten_samples_beyond(n, percentile):
    values = [float(v) for v in range(n)]
    tail = stats.tail(values)
    assert tail.percentile == percentile
    assert tail.n_samples == n
    assert tail.n_beyond >= stats.MIN_BEYOND
    assert sum(v > tail.value for v in values) == tail.n_beyond
    higher = [p for p in stats.TAIL_LADDER if p > percentile]
    for p in higher:
        assert stats.nearest_rank(sorted(values), p)[1] < stats.MIN_BEYOND


def test_tail_falls_back_to_median_when_samples_are_short():
    tail = stats.tail([3.0, 1.0, 2.0])
    assert (tail.percentile, tail.value, tail.n_beyond) == (50.0, 2.0, 1)


# -- failure counting --------------------------------------------------------


def _small_problem(seed: int):
    return generate(
        n_aps=12,
        n_users=60,
        n_sessions=4,
        seed=seed,
        area=Area.square(1000),
        budget=0.9,
    ).problem()


SMALL = churn.ChurnSpec(
    build=_small_problem,
    n_sessions=4,
    ops_per_s=1.0,
    warmup_ops=2,
    read_back=True,
)


@pytest.fixture()
def small_service():
    fixture = churn.setup(SMALL, seed=3, n_ops=8)
    try:
        yield fixture
    finally:
        fixture.close()
    assert not fixture.thread.is_alive()


def test_churn_phase_and_gate_pass_on_a_clean_run(small_service):
    phase = churn.run_phase(small_service, 8)
    assert (phase.attempted, phase.failed) == (8, 0)
    assert len(small_service.ticks) == 8
    assert churn.final_gate(small_service) == []


def test_injected_bad_event_counts_as_failed(small_service):
    n_users = small_service.control.problem.n_users
    small_service.events.insert(
        small_service.cursor + 1, Event(kind="join", user=n_users + 5)
    )
    phase = churn.run_phase(small_service, 3)
    assert (phase.attempted, phase.failed) == (3, 1)


def test_corrupted_assignment_trips_the_gate(small_service):
    churn.run_phase(small_service, 4)
    published = small_service.control.assignments_payload()
    assert churn.gate(published, small_service.control) == []
    corrupted = json.loads(json.dumps(published))
    user = next(iter(corrupted["assignments"]))
    current = corrupted["assignments"][user]
    n_aps = small_service.control.problem.n_aps
    corrupted["assignments"][user] = 0 if current != 0 else n_aps - 1
    problems = churn.gate(corrupted, small_service.control)
    assert "published assignment differs from the cold solve" in problems


def _small_pool() -> plan.Fixture:
    pool = [
        generate(n_aps=20, n_users=40, seed=seed).problem() for seed in (1, 2)
    ]
    return plan.Fixture(
        pool, [plan.reference_objective(p) for p in pool], generate_s=0.0
    )


def test_plan_phase_reproduces_reference_objectives():
    phase = plan.run_phase(_small_pool(), 4)
    assert (phase.attempted, phase.failed) == (4, 0)


def test_plan_objective_mismatch_counts_as_failed():
    fixture = _small_pool()
    served, total, peak = fixture.reference[1]
    fixture.reference[1] = (served + 1, total, peak)
    phase = plan.run_phase(fixture, 4)
    assert (phase.attempted, phase.failed) == (4, 2)


def test_plan_raised_solve_counts_as_failed():
    fixture = _small_pool()
    # Every AP out of reach: c-bla raises CoverageError.
    isolated = generate(
        n_aps=2, n_users=5, seed=0, area=Area.square(50_000),
        ensure_coverage=False,
    ).problem()
    assert isolated.isolated_users()
    fixture.pool.append(isolated)
    fixture.reference.append((0, "", ""))
    phase = plan.run_phase(fixture, 3)
    assert (phase.attempted, phase.failed) == (3, 1)


# -- per-layer attribution ---------------------------------------------------


class _Calls:
    @staticmethod
    def leaf(n: int) -> int:
        return sum(range(n))

    @staticmethod
    def root(n: int) -> int:
        return _Calls.leaf(n) + _Calls.leaf(n) + sum(range(n))


def test_tracer_credits_children_and_restores_originals():
    originals = dict(_Calls.__dict__)
    tracer = LayerTracer()
    tracer.install([("root", _Calls, "root"), ("leaf", _Calls, "leaf")])
    try:
        _Calls.root(200_000)
    finally:
        tracer.uninstall()
    assert _Calls.__dict__["root"] is originals["root"]
    assert tracer.calls == {"root": 1, "leaf": 2}
    assert tracer.child_s["root"] == pytest.approx(tracer.total_s["leaf"])
    share = tracer.unattributed_share("root")
    assert 0.0 < share < 1.0


# -- the benchmark's declaration and entry point -----------------------------


def test_benchmark_json_matches_the_runner():
    run = _run_module()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]
    ] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == list(run.PER_LAYER)


def test_runner_refuses_a_tree_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-balance",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_benchmark_code_passes_replint():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "perfbench", "--no-cache"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_benchmark_code_passes_ruff():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed")
    result = subprocess.run(
        [ruff, "check", "perfbench"], cwd=ROOT, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout
