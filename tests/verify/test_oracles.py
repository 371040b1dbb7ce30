"""Differential oracles: agreement on healthy code, detection on broken."""

from __future__ import annotations

import pytest

from repro.core.mla import solve_mla
from repro.scenarios.federation import generate_federation
from repro.verify import (
    incremental_vs_cold,
    run_all_oracles,
    sequential_vs_centralized,
    sharded_vs_monolithic,
)
from repro.verify import oracles as oracles_module
from tests.conftest import paper_example_problem
from tests.engine.conftest import block_problem

#: Three distinct federated deployments — the acceptance scenarios.
FEDERATION_SEEDS = [0, 1, 2]


def federation_problem(seed: int):
    return generate_federation(
        n_clusters=3,
        aps_per_cluster=2,
        users_per_cluster=6,
        n_sessions=2,
        seed=seed,
    ).problem()


class TestShardedVsMonolithic:
    @pytest.mark.parametrize("seed", FEDERATION_SEEDS)
    def test_federations_agree(self, seed):
        report = sharded_vs_monolithic(federation_problem(seed))
        assert report.ok, report.format()
        assert report.stats["n_shards"] >= 3

    def test_block_instance_agrees(self):
        report = sharded_vs_monolithic(block_problem(7, n_blocks=3))
        assert report.ok, report.format()

    def test_detects_value_mismatch(self, monkeypatch):
        """A deliberately degraded 'monolithic' reference must be flagged."""
        problem = federation_problem(0)

        def degraded_mla(p):
            assignment = solve_mla(p).assignment
            # re-associate the first movable user to an AP other than the
            # one the real solver picked: the map must now differ
            for user in range(p.n_users):
                current = assignment.ap_of_user[user]
                others = [a for a in p.aps_of_user(user) if a != current]
                if others:
                    return assignment.replace(user, others[0])
            raise AssertionError("no user has an alternative AP")

        monkeypatch.setitem(
            oracles_module._MONOLITHIC, "mla", degraded_mla
        )
        report = sharded_vs_monolithic(problem, objectives=("mla",))
        assert not report.ok
        assert "mla-map-mismatch" in report.codes


class TestIncrementalVsCold:
    @pytest.mark.parametrize("seed", FEDERATION_SEEDS)
    def test_federations_warm_equals_cold(self, seed):
        report = incremental_vs_cold(federation_problem(seed), seed=seed)
        assert report.ok, report.format()
        # the warm engine must actually have served hits, or the oracle
        # proved nothing about the cache
        assert report.stats["mnu_cache_hits"] > 0
        assert report.stats["mla_cache_hits"] > 0

    def test_explicit_membership_steps(self):
        problem = federation_problem(0)
        everyone = frozenset(range(problem.n_users))
        subset = frozenset(range(0, problem.n_users, 2))
        report = incremental_vs_cold(
            problem, steps=[everyone, subset, everyone, subset]
        )
        assert report.ok, report.format()


class TestSequentialVsCentralized:
    def test_fig1_policies_converge(self):
        report = sequential_vs_centralized(
            paper_example_problem(1.0), policies=("mla", "bla")
        )
        assert report.ok, report.format()
        assert report.stats["mla_rounds"] >= 1

    def test_budgeted_mnu_policy(self):
        report = sequential_vs_centralized(
            paper_example_problem(3.0, budget=1.0), policies=("mnu",)
        )
        assert report.ok, report.format()

    @pytest.mark.parametrize("seed", FEDERATION_SEEDS)
    def test_federations_converge(self, seed):
        report = sequential_vs_centralized(
            federation_problem(seed), seed=seed
        )
        assert report.ok, report.format()


class TestRunAll:
    def test_all_oracles_on_one_federation(self):
        reports = run_all_oracles(federation_problem(1), seed=1)
        assert [r.oracle for r in reports] == [
            "scalar-vs-vector",
            "sharded-vs-monolithic",
            "incremental-vs-cold",
            "sequential-vs-centralized",
        ]
        for report in reports:
            assert report.ok, report.format()
