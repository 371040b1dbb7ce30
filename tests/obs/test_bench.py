"""The bench harness: schema, CLI wiring, and the regression gate.

The acceptance-critical case lives in :class:`TestRegressionGate`: an
injected 2x slowdown (the baseline's p50 halved) must trip both
:func:`compare_to_baseline` and the ``python -m repro bench`` exit code,
while a self-baseline passes clean.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.__main__ import main
from repro.obs import bench


@pytest.fixture(scope="module")
def quick_report():
    """One shared quick bench run (repeats=1 keeps the module fast)."""
    return bench.run_bench(quick=True, repeats=1, seed=0)


class TestRunBench:
    def test_quick_report_is_schema_valid(self, quick_report):
        bench.validate_report(quick_report)

    def test_quick_report_covers_enough_algorithms(self, quick_report):
        algorithms = {r["algorithm"] for r in quick_report["results"]}
        assert len(algorithms) >= 6
        scenarios = {r["scenario"] for r in quick_report["results"]}
        assert scenarios == {"single-domain", "federation"}

    def test_cells_carry_timings_counters_and_objective(self, quick_report):
        for result in quick_report["results"]:
            assert 0 <= result["p50_s"] <= result["p95_s"]
            assert result["objective"]["n_served"] >= 0
            # Instrumented solver families must surface their counters
            # (baselines like ssa legitimately have none to report).
            if result["algorithm"] in {"c-mnu", "c-bla", "c-mla"}:
                assert result["counters"], result["algorithm"]

    def test_report_is_json_round_trippable(self, quick_report):
        assert json.loads(json.dumps(quick_report)) == quick_report

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            bench.run_bench(quick=True, repeats=1, algorithms=["nope"])

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError):
            bench.run_bench(quick=True, repeats=0)


class TestValidateReport:
    def test_rejects_foreign_kind(self):
        with pytest.raises(ValueError):
            bench.validate_report({"kind": "repro-trace", "version": 1})

    def test_rejects_missing_fields(self, quick_report):
        broken = copy.deepcopy(quick_report)
        del broken["results"][0]["p50_s"]
        with pytest.raises(ValueError, match="p50_s"):
            bench.validate_report(broken)

    def test_rejects_inverted_quantiles(self, quick_report):
        broken = copy.deepcopy(quick_report)
        broken["results"][0]["p50_s"] = broken["results"][0]["p95_s"] + 1.0
        with pytest.raises(ValueError, match="quantiles"):
            bench.validate_report(broken)


class TestRegressionGate:
    def test_self_baseline_has_no_regressions(self, quick_report):
        assert (
            bench.compare_to_baseline(
                quick_report, quick_report, max_regress_pct=0.0
            )
            == []
        )

    def test_injected_2x_slowdown_is_flagged(self, quick_report):
        baseline = copy.deepcopy(quick_report)
        for result in baseline["results"]:
            result["p50_s"] /= 2.0  # report now looks 2x slower
            result["p95_s"] = max(result["p95_s"], result["p50_s"])
        regressions = bench.compare_to_baseline(
            quick_report, baseline, max_regress_pct=50.0
        )
        assert len(regressions) == len(quick_report["results"])
        for regression in regressions:
            assert regression["ratio"] == pytest.approx(2.0)

    def test_min_time_floor_suppresses_noise_cells(self, quick_report):
        baseline = copy.deepcopy(quick_report)
        for result in baseline["results"]:
            result["p50_s"] /= 2.0
        assert (
            bench.compare_to_baseline(
                quick_report,
                baseline,
                max_regress_pct=50.0,
                min_time_s=1e9,
            )
            == []
        )

    def test_unmatched_cells_are_not_regressions(self, quick_report):
        baseline = copy.deepcopy(quick_report)
        baseline["results"] = [
            r for r in baseline["results"] if r["algorithm"] != "ssa"
        ]
        report = copy.deepcopy(quick_report)
        report["results"] = [
            r for r in report["results"] if r["algorithm"] == "ssa"
        ]
        for result in report["results"]:
            result["p50_s"] *= 100.0
            result["p95_s"] *= 100.0
        assert (
            bench.compare_to_baseline(
                report, baseline, max_regress_pct=0.0
            )
            == []
        )

    def test_negative_tolerance_rejected(self, quick_report):
        with pytest.raises(ValueError):
            bench.compare_to_baseline(
                quick_report, quick_report, max_regress_pct=-1.0
            )


class TestCli:
    ARGS = ["bench", "--quick", "--repeats", "1", "--algorithms", "c-mla,ssa"]

    def test_bench_writes_schema_valid_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_obs.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        report = bench.load_report(str(out))
        assert {r["algorithm"] for r in report["results"]} == {"c-mla", "ssa"}
        assert str(out) in capsys.readouterr().out

    def test_gate_passes_against_own_report(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        again = tmp_path / "again.json"
        code = main(
            self.ARGS
            + [
                "--out",
                str(again),
                "--baseline",
                str(out),
                "--max-regress",
                "10000",
            ]
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_gate_fails_on_injected_slowdown(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        baseline = bench.load_report(str(out))
        for result in baseline["results"]:
            # A floor no real solve can beat: every rerun reads as slower
            # than the bound allows, however noisy the first run was.
            result["p50_s"] = result["p95_s"] = 1e-9
        slow = tmp_path / "floored-baseline.json"
        bench.write_report(baseline, str(slow))
        code = main(
            self.ARGS
            + [
                "--out",
                str(tmp_path / "gated.json"),
                "--baseline",
                str(slow),
                "--max-regress",
                "50",
                "--min-time",
                "0",
            ]
        )
        assert code == 1
        assert "regressed" in capsys.readouterr().out
