"""Tests for the greedy MCG algorithm (paper Fig. 3 + Theorem 2 split)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.candidates import CandidateFamily, CandidateSet, build_candidates
from repro.core.mcg import greedy_mcg, greedy_mcg_flat
from tests.conftest import paper_example_problem, random_problem


def cs(ap, session, rate, cost, users):
    return CandidateSet(ap, session, rate, cost, frozenset(users))


class TestPaperTrace:
    def test_fig2_example(self):
        """Paper Section 4.1 trace: S4 first, then S2 overshoots; H1={S4}."""
        p = paper_example_problem(3.0)
        result = greedy_mcg(
            build_candidates(p), [1.0, 1.0], set(range(5)), split=True
        )
        picked = [(c.ap, c.session, c.tx_rate) for c in result.selected]
        assert picked[0] == (0, 1, 4.0)  # S4: eff 3/(3/4) = 4
        assert picked[1] == (0, 0, 3.0)  # S2: eff 2/1 = 2
        assert [(c.ap, c.session) for c in result.overshooting] == [(0, 0)]
        assert result.covered == frozenset({1, 3, 4})
        assert result.n_covered == 3


class TestGreedyMechanics:
    def test_stops_when_ground_covered(self):
        sets = [cs(0, 0, 6, 0.5, {0, 1}), cs(0, 0, 12, 0.25, {0})]
        result = greedy_mcg(sets, [10.0], {0, 1})
        assert result.covered == frozenset({0, 1})
        assert len(result.selected) == 1

    def test_blocked_group_is_skipped(self):
        sets = [
            cs(0, 0, 6, 1.0, {0}),
            cs(0, 1, 6, 1.0, {1}),
            cs(1, 1, 6, 5.0, {1}),
        ]
        # group 0's budget allows one pick (second overshoots the 1.5 budget
        # check only after addition), group 1 covers the rest
        result = greedy_mcg(sets, [0.5, 10.0], {0, 1})
        aps = [c.ap for c in result.selected]
        assert aps[0] == 0  # best effectiveness
        assert 1 in aps  # group 0 blocked after overshooting

    def test_zero_value_sets_terminate(self):
        sets = [cs(0, 0, 6, 1.0, {0})]
        result = greedy_mcg(sets, [10.0], {0, 1})  # user 1 uncoverable
        assert result.covered == frozenset({0})

    def test_no_candidates(self):
        result = greedy_mcg([], [1.0], {0})
        assert result.selected == ()
        assert result.covered == frozenset()

    def test_initial_group_cost_blocks(self):
        sets = [cs(0, 0, 6, 0.4, {0}), cs(1, 0, 6, 0.4, {0})]
        result = greedy_mcg(
            sets, [0.5, 0.5], {0}, initial_group_cost=[0.5, 0.0]
        )
        assert [c.ap for c in result.selected] == [1]

    def test_initial_group_cost_length_checked(self):
        with pytest.raises(ValueError):
            greedy_mcg([], [1.0], set(), initial_group_cost=[0.0, 0.0])

    def test_meeting_the_budget_closes_without_overshooting(self):
        """A pick that brings its group exactly to budget closes the group
        but stays in H1, in the scalar greedy and the flat one alike."""
        sets = [
            cs(0, 0, 6, 0.5, {0, 1}),
            cs(0, 1, 6, 0.25, {2}),
            cs(1, 1, 6, 1.0, {2}),
        ]
        result = greedy_mcg(sets, [0.5, 10.0], {0, 1, 2})
        assert result.selected == (sets[0], sets[2])
        assert result.within_budget == (sets[0], sets[2])
        assert result.overshooting == ()
        family = CandidateFamily.from_candidates(sets, n_users=3, n_aps=2)
        flat = greedy_mcg_flat(family, [0.5, 10.0])

        def indices(picked):
            return tuple(sets.index(c) for c in picked)

        assert flat.selected == indices(result.selected)
        assert flat.within_budget == indices(result.within_budget)
        assert flat.overshooting == indices(result.overshooting)
        assert flat.chosen == indices(result.chosen)
        assert set(np.flatnonzero(flat.covered).tolist()) == result.covered

    def test_split_false_returns_raw(self):
        sets = [cs(0, 0, 6, 0.6, {0}), cs(0, 1, 6, 0.6, {1})]
        result = greedy_mcg(sets, [1.0], {0, 1}, split=False)
        assert len(result.chosen) == 2  # both kept despite overshoot


class TestSplitGuarantees:
    def test_chosen_respects_budgets(self):
        """After the H1/H2 split, the chosen family never exceeds budgets
        (given that every single set fits its group budget)."""
        rng = random.Random(7)
        for _ in range(30):
            p = random_problem(rng, budget=0.5)
            candidates = [
                c
                for c in build_candidates(p)
                if c.cost <= p.budget_of(c.ap)
            ]
            result = greedy_mcg(
                candidates, list(p.budgets), set(range(p.n_users))
            )
            per_group = {}
            for c in result.chosen:
                per_group[c.ap] = per_group.get(c.ap, 0.0) + c.cost
            for ap, cost in per_group.items():
                assert cost <= p.budget_of(ap) + 1e-9

    def test_chosen_covers_at_least_half_of_selected(self):
        rng = random.Random(13)
        for _ in range(30):
            p = random_problem(rng, budget=0.4)
            candidates = [
                c for c in build_candidates(p) if c.cost <= p.budget_of(c.ap)
            ]
            result = greedy_mcg(
                candidates, list(p.budgets), set(range(p.n_users))
            )
            covered_by_all = set()
            for c in result.selected:
                covered_by_all |= c.users
            assert result.n_covered * 2 >= len(covered_by_all)

    def test_at_most_one_overshoot_per_group(self):
        rng = random.Random(29)
        for _ in range(30):
            p = random_problem(rng, budget=0.3)
            result = greedy_mcg(
                build_candidates(p), list(p.budgets), set(range(p.n_users))
            )
            groups = [c.ap for c in result.overshooting]
            assert len(groups) == len(set(groups))
