"""Tests for Centralized MNU."""

from __future__ import annotations

import math
import random

from repro.core.mnu import solve_mnu
from repro.core.optimal import solve_mnu_optimal
from tests.conftest import paper_example_problem, random_problem

class TestPaperExample:
    def test_serves_three_users(self, fig1_mnu):
        """Section 4.1's trace: u2, u4, u5 end up on a1 — 3 users served."""
        solution = solve_mnu(fig1_mnu)
        assert solution.n_served == 3
        assert solution.assignment.served_users() == [1, 3, 4]
        assert all(
            solution.assignment.ap_of(u) == 0
            for u in solution.assignment.served_users()
        )

    def test_augmentation_reaches_optimum_here(self, fig1_mnu):
        solution = solve_mnu(fig1_mnu, augment=True)
        assert solution.n_served == 4  # u3 fits on a2 (cost 3/5 <= 1)

    def test_mcg_trace_exposed(self, fig1_mnu):
        solution = solve_mnu(fig1_mnu)
        assert len(solution.cover.mcg.selected) == 2
        assert len(solution.cover.mcg.overshooting) == 1


class TestFeasibility:
    def test_never_violates_budgets(self):
        rng = random.Random(41)
        for _ in range(40):
            p = random_problem(rng, budget=rng.choice([0.1, 0.3, 0.5, 0.9]))
            solution = solve_mnu(p)
            assert solution.assignment.violations(check_budgets=True) == []

    def test_oversized_sets_filtered(self):
        """Budgets smaller than every set's cost mean nobody is served."""
        p = paper_example_problem(3.0, budget=0.1)  # cheapest cost is 0.5
        solution = solve_mnu(p)
        assert solution.n_served == 0

    def test_augment_never_decreases_service(self):
        rng = random.Random(43)
        for _ in range(30):
            p = random_problem(rng, budget=rng.choice([0.2, 0.4, 0.9]))
            plain = solve_mnu(p)
            augmented = solve_mnu(p, augment=True)
            assert augmented.n_served >= plain.n_served
            assert augmented.assignment.violations() == []

    def test_split_false_may_violate(self, fig1_mnu):
        solution = solve_mnu(fig1_mnu, split=False)
        # raw greedy keeps both S4 and S2 on a1: load 7/4 > 1
        assert solution.assignment.load_of(0) > 1.0


class TestQuality:
    def test_never_beats_optimal(self):
        rng = random.Random(47)
        for _ in range(25):
            p = random_problem(rng, n_users=8, budget=0.35)
            greedy = solve_mnu(p, augment=True)
            optimal = solve_mnu_optimal(p)
            assert greedy.n_served <= optimal.assignment.n_served

    def test_eight_approximation_bound(self):
        rng = random.Random(53)
        for _ in range(25):
            p = random_problem(rng, n_users=10, budget=0.35)
            greedy = solve_mnu(p)
            optimal = solve_mnu_optimal(p)
            assert 8 * greedy.n_served >= optimal.assignment.n_served

    def test_single_session_high_budget_serves_all(self):
        """One session with ample budget: every covered user is served
        (the paper notes single-session MNU is in P and trivial)."""
        rng = random.Random(59)
        for _ in range(20):
            p = random_problem(rng, n_sessions=1, budget=1.0)
            solution = solve_mnu(p, augment=True)
            assert solution.n_served == p.n_users

    def test_infinite_budget_serves_all(self):
        rng = random.Random(61)
        for _ in range(10):
            p = random_problem(rng, budget=math.inf)
            assert solve_mnu(p, augment=True).n_served == p.n_users
