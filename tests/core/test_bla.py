"""Tests for Centralized BLA."""

from __future__ import annotations

import random

import pytest

from repro.core.bla import (
    _lower_bound,
    _reference_lower_bound,
    max_iterations,
    solve_bla,
)
from repro.core.errors import CoverageError
from repro.core.optimal import solve_bla_optimal
from repro.core.problem import MulticastAssociationProblem, Session
from repro.obs import collecting
from repro.obs.bench import bench_scenarios
from repro.vec import backend
from tests.conftest import random_problem

class TestMaxIterations:
    def test_formula(self):
        # log_{8/7} 100 ~= 34.5 -> 35 + 1
        assert max_iterations(100) == 36

    def test_small_n(self):
        assert max_iterations(1) == 1
        assert max_iterations(2) >= 2


class TestPaperExample:
    def test_matches_paper_trace_on_fig1(self, fig1_load):
        """The paper's own B*=1/2 trace yields 7/12 on this instance
        (Section 5.1: "all users are associated with a1"). The optimum is
        1/2, but no *single* user move improves the all-on-a1 cover — a1's
        load only drops once both of s2's rate-4 users leave — so the
        local-search finish correctly keeps 7/12 here."""
        solution = solve_bla(fig1_load)
        assert solution.max_load == pytest.approx(7 / 12)

    def test_without_local_search_matches_paper_trace(self, fig1_load):
        solution = solve_bla(fig1_load, local_search=False)
        assert solution.max_load == pytest.approx(7 / 12)


class TestCoverage:
    def test_serves_everyone(self):
        rng = random.Random(83)
        for _ in range(30):
            p = random_problem(rng)
            solution = solve_bla(p)
            assert solution.assignment.n_served == p.n_users
            assert solution.assignment.violations(check_budgets=False) == []

    def test_isolated_user_raises(self):
        p = MulticastAssociationProblem(
            [[1.0, 0.0]], [0, 0], [Session(0, 1.0)]
        )
        with pytest.raises(CoverageError):
            solve_bla(p)

    def test_rejects_zero_guesses(self, fig1_load):
        with pytest.raises(ValueError):
            solve_bla(fig1_load, n_guesses=0)


class TestQuality:
    def test_never_beats_optimal(self):
        rng = random.Random(89)
        for _ in range(20):
            p = random_problem(rng, n_users=8)
            heuristic = solve_bla(p)
            optimal = solve_bla_optimal(p)
            assert heuristic.max_load >= optimal.objective - 1e-9

    def test_lower_bound_respected(self):
        """No solution can go below the forced-user lower bound."""
        rng = random.Random(97)
        for _ in range(20):
            p = random_problem(rng)
            lower = max(p.min_cost_of_user(u) for u in range(p.n_users))
            assert solve_bla(p).max_load >= lower - 1e-9

    def test_vector_lower_bound_matches_reference(self):
        """``stream / best rate`` is each user's exact cheapest cost."""
        rng = random.Random(107)
        for _ in range(40):
            n_aps, n_users = rng.randint(1, 8), rng.randint(1, 30)
            link = [
                [
                    rng.choice((0.0, 0.0, 1.0, 5.5, 11.0, 54.0))
                    * rng.uniform(0.5, 1.5)
                    for _ in range(n_users)
                ]
                for _ in range(n_aps)
            ]
            for u in range(n_users):
                if not any(link[a][u] for a in range(n_aps)):
                    link[rng.randrange(n_aps)][u] = rng.uniform(0.1, 60.0)
            sessions = [
                Session(i, rng.uniform(0.05, 3.0))
                for i in range(rng.randint(1, 4))
            ]
            p = MulticastAssociationProblem(
                link,
                [rng.randrange(len(sessions)) for _ in range(n_users)],
                sessions,
            )
            assert (
                _lower_bound(p).hex() == _reference_lower_bound(p).hex()
            )

    def test_local_search_never_hurts(self):
        rng = random.Random(101)
        for _ in range(15):
            p = random_problem(rng)
            with_ls = solve_bla(p, local_search=True)
            without = solve_bla(p, local_search=False)
            assert with_ls.max_load <= without.max_load + 1e-9

    def test_more_guesses_never_hurt_much(self):
        rng = random.Random(103)
        p = random_problem(rng, n_aps=5, n_users=10)
        few = solve_bla(p, n_guesses=2, refine_steps=0)
        many = solve_bla(p, n_guesses=16, refine_steps=8)
        assert many.max_load <= few.max_load + 1e-9

    def test_single_session_balances(self):
        """With one session (a P case per the paper), max load should match
        the best single-rate assignment up to the approximation slack."""
        rng = random.Random(107)
        for _ in range(10):
            p = random_problem(rng, n_sessions=1, n_users=6)
            heuristic = solve_bla(p)
            optimal = solve_bla_optimal(p)
            assert heuristic.max_load <= optimal.objective * 3 + 1e-9


class TestSetupOnce:
    def test_family_tables_are_built_once_per_solve(self, monkeypatch):
        """Every B* probe and iteration of one solve shares one family, so
        its user and AP incidence tables are each inverted once."""
        inverted = []
        invert_csr = backend.invert_csr

        def counting(offsets, members, n_values):
            inverted.append(n_values)
            return invert_csr(offsets, members, n_values)

        monkeypatch.setattr(backend, "invert_csr", counting)
        problem = dict(bench_scenarios(quick=True))["single-domain"].problem()
        with collecting() as session:
            solve_bla(problem)
        assert session.metrics.counters()["mcg.runs"] > 2
        assert sorted(inverted) == sorted([problem.n_users, problem.n_aps])
