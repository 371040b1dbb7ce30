"""Tests for Centralized MLA."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.errors import CoverageError
from repro.core.mla import mla_cover, solve_mla, solve_mla_reference
from repro.core.optimal import solve_mla_optimal
from repro.core.problem import MulticastAssociationProblem, Session
from repro.engine.engine import ShardedEngine
from tests.conftest import random_problem

class TestPaperExample:
    def test_all_on_a1_total_7_12(self, fig1_load):
        """Section 6.1's trace ends with every user on a1, total 7/12 —
        also the optimum for this instance."""
        solution = solve_mla(fig1_load)
        assert solution.assignment.ap_of_user == (0, 0, 0, 0, 0)
        assert solution.total_load == pytest.approx(7 / 12)

    def test_cover_trace_matches(self, fig1_load):
        solution = solve_mla(fig1_load)
        assert [(c.ap, c.session) for c in solution.cover.selected] == [
            (0, 1),
            (0, 0),
        ]


class TestCoverage:
    def test_serves_everyone(self):
        rng = random.Random(67)
        for _ in range(40):
            p = random_problem(rng)
            solution = solve_mla(p)
            assert solution.assignment.n_served == p.n_users
            assert solution.assignment.violations(check_budgets=False) == []

    def test_isolated_user_raises(self):
        p = MulticastAssociationProblem(
            [[1.0, 0.0]], [0, 0], [Session(0, 1.0)]
        )
        with pytest.raises(CoverageError):
            solve_mla(p)

    def test_every_path_names_the_same_isolated_users(self):
        """``CostSC`` leaves exactly the isolated users uncovered, so the
        production cover, the reference and the engine all raise them."""
        rng = random.Random(43)
        for _ in range(20):
            p = random_problem(rng, n_users=12)
            rates = p.link_rates.copy()
            isolated = sorted(rng.sample(range(p.n_users), rng.randint(1, 4)))
            rates[:, isolated] = 0.0
            p = MulticastAssociationProblem(
                rates,
                [p.session_of(u) for u in range(p.n_users)],
                p.sessions,
                p.budgets,
            )
            for solve in (
                solve_mla,
                solve_mla_reference,
                mla_cover,
                lambda q: ShardedEngine(q).solve("mla"),
            ):
                with pytest.raises(CoverageError) as error:
                    solve(p)
                assert error.value.uncovered == isolated


class TestQuality:
    def test_never_beats_optimal(self):
        rng = random.Random(71)
        for _ in range(25):
            p = random_problem(rng, n_users=8)
            greedy = solve_mla(p)
            optimal = solve_mla_optimal(p)
            assert greedy.total_load >= optimal.objective - 1e-9

    def test_ln_n_approximation_bound(self):
        rng = random.Random(73)
        for _ in range(25):
            p = random_problem(rng, n_users=10)
            greedy = solve_mla(p)
            optimal = solve_mla_optimal(p)
            bound = (math.log(p.n_users) + 1) * optimal.objective
            assert greedy.total_load <= bound + 1e-9

    def test_derived_load_never_exceeds_planned_cost(self):
        """The min-rate merge repair only ever lowers the load below the
        greedy's summed set costs."""
        rng = random.Random(79)
        for _ in range(25):
            p = random_problem(rng)
            solution = solve_mla(p)
            assert solution.total_load <= solution.cover.total_cost + 1e-9
