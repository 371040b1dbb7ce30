"""Tests for the problem model."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.problem import (
    MulticastAssociationProblem,
    Session,
    problem_summary,
)
from repro.radio.geometry import Point
from repro.radio.propagation import ThresholdPropagation
from tests.conftest import paper_example_problem, random_problem

class TestSession:
    def test_valid(self):
        s = Session(0, 1.5, name="news")
        assert s.rate_mbps == 1.5

    def test_rejects_bad_rate(self):
        with pytest.raises(ModelError):
            Session(0, 0)

    def test_rejects_negative_id(self):
        with pytest.raises(ModelError):
            Session(-1, 1.0)


class TestConstruction:
    def test_shapes_validated(self):
        with pytest.raises(ModelError):
            MulticastAssociationProblem(
                [[1.0]], [0, 0], [Session(0, 1.0)]
            )

    def test_rejects_1d_rates(self):
        with pytest.raises(ModelError):
            MulticastAssociationProblem([1.0, 2.0], [0], [Session(0, 1.0)])

    def test_rejects_negative_rates(self):
        with pytest.raises(ModelError):
            MulticastAssociationProblem([[-1.0]], [0], [Session(0, 1.0)])

    def test_rejects_unknown_session_request(self):
        with pytest.raises(ModelError):
            MulticastAssociationProblem([[1.0]], [3], [Session(0, 1.0)])

    def test_unknown_session_names_the_first_offender(self):
        with pytest.raises(
            ModelError, match=r"^user 1 requests unknown session -1$"
        ):
            MulticastAssociationProblem(
                [[1.0, 1.0, 1.0]], [0, -1, 5], [Session(0, 1.0)]
            )
        with pytest.raises(
            ModelError, match=r"^user 2 requests unknown session 2$"
        ):
            MulticastAssociationProblem(
                [[1.0, 1.0, 1.0]],
                np.array([1, 0, 2]),
                [Session(0, 1.0), Session(1, 1.0)],
            )

    def test_rejects_misnumbered_sessions(self):
        with pytest.raises(ModelError):
            MulticastAssociationProblem([[1.0]], [0], [Session(1, 1.0)])

    def test_rejects_empty_sessions(self):
        with pytest.raises(ModelError):
            MulticastAssociationProblem([[1.0]], [0], [])

    def test_rejects_bad_budget_shape(self):
        with pytest.raises(ModelError):
            MulticastAssociationProblem(
                [[1.0]], [0], [Session(0, 1.0)], budgets=[0.5, 0.5]
            )

    def test_rejects_negative_budget(self):
        with pytest.raises(ModelError):
            MulticastAssociationProblem(
                [[1.0]], [0], [Session(0, 1.0)], budgets=-0.1
            )

    def test_rates_read_only(self):
        p = paper_example_problem(1.0)
        with pytest.raises(ValueError):
            p.link_rates[0, 0] = 99.0


class TestAccessors:
    def test_dimensions(self):
        p = paper_example_problem(1.0)
        assert (p.n_aps, p.n_users, p.n_sessions) == (2, 5, 2)

    def test_users_of_session(self):
        p = paper_example_problem(1.0)
        assert p.users_of_session(0) == (0, 2)
        assert p.users_of_session(1) == (1, 3, 4)
        # numpy requests, an unheard session; plain ints out either way
        p = MulticastAssociationProblem(
            [[1.0] * 6],
            np.array([2, 0, 2, 0, 1, 2]),
            [Session(i, 1.0) for i in range(4)],
        )
        assert p.user_sessions == (2, 0, 2, 0, 1, 2)
        assert [p.users_of_session(s) for s in range(4)] == [
            (1, 3), (4,), (0, 2, 5), ()
        ]
        assert all(type(s) is int for s in p.user_sessions)
        assert all(
            type(u) is int for s in range(4) for u in p.users_of_session(s)
        )

    def test_aps_of_user(self):
        p = paper_example_problem(1.0)
        assert p.aps_of_user(0) == [0]
        assert p.aps_of_user(3) == [0, 1]

    def test_users_of_ap(self):
        p = paper_example_problem(1.0)
        assert p.users_of_ap(1) == [2, 3, 4]

    def test_link_rate_and_in_range(self):
        p = paper_example_problem(1.0)
        assert p.link_rate(1, 2) == 5
        assert p.link_rate(1, 0) == 0
        assert p.in_range(0, 0)
        assert not p.in_range(1, 1)

    def test_session_of(self):
        p = paper_example_problem(1.0)
        assert [p.session_of(u) for u in range(5)] == [0, 1, 0, 1, 1]

    def test_budget_scalar_broadcast(self):
        p = paper_example_problem(1.0, budget=0.9)
        assert p.budget_of(0) == 0.9
        assert p.budget_of(1) == 0.9

    def test_isolated_users(self):
        p = MulticastAssociationProblem(
            [[1.0, 0.0]], [0, 0], [Session(0, 1.0)]
        )
        assert p.isolated_users() == [1]
        assert not p.coverage_feasible()

    def test_coverage_feasible(self):
        assert paper_example_problem(1.0).coverage_feasible()


class TestLoadArithmetic:
    def test_transmission_cost(self):
        p = paper_example_problem(3.0)
        assert p.transmission_cost(0, 6.0) == pytest.approx(0.5)

    def test_transmission_cost_rejects_zero_rate(self):
        with pytest.raises(ModelError):
            paper_example_problem(1.0).transmission_cost(0, 0)

    def test_min_cost_of_user(self):
        p = paper_example_problem(1.0)
        # u3 reaches a1 at 4 and a2 at 5: cheapest is 1/5
        assert p.min_cost_of_user(3) == pytest.approx(0.2)
        # u1 only reaches a1 at 6
        assert p.min_cost_of_user(1) == pytest.approx(1 / 6)


class TestVariants:
    def test_with_budgets(self):
        p = paper_example_problem(1.0).with_budgets(0.25)
        assert p.budget_of(0) == 0.25

    def test_restricted_to_users(self):
        p = paper_example_problem(1.0)
        sub, mapping = p.restricted_to_users([1, 3])
        assert sub.n_users == 2
        assert mapping == [1, 3]
        assert sub.link_rate(0, 0) == 6  # u1's link
        assert sub.session_of(1) == 1

    def test_restricted_rejects_unknown(self):
        with pytest.raises(ModelError):
            paper_example_problem(1.0).restricted_to_users([99])

    def test_basic_rate_only(self):
        p = paper_example_problem(1.0).basic_rate_only(6.0)
        assert p.link_rate(0, 0) == 6
        assert p.link_rate(1, 0) == 0  # out of range stays out

    def test_basic_rate_only_rejects_nonpositive(self):
        with pytest.raises(ModelError):
            paper_example_problem(1.0).basic_rate_only(0)


class TestFromGeometry:
    def test_matches_model(self):
        model = ThresholdPropagation()
        aps = [Point(0, 0)]
        users = [Point(30, 0), Point(300, 0)]
        p = MulticastAssociationProblem.from_geometry(
            aps, users, model, [Session(0, 1.0)], [0, 0]
        )
        assert p.link_rate(0, 0) == 54
        assert p.link_rate(0, 1) == 0


class TestSummary:
    def test_summary_fields(self):
        summary = problem_summary(paper_example_problem(1.0))
        assert summary["n_aps"] == 2
        assert summary["n_users"] == 5
        assert summary["isolated_users"] == 0
        assert summary["max_aps_per_user"] == 2
        assert summary["mean_aps_per_user"] == pytest.approx(8 / 5)

    def test_random_instances_valid(self):
        rng = random.Random(3)
        for _ in range(20):
            p = random_problem(rng)
            assert p.n_aps >= 2
            assert np.all(p.link_rates >= 0)
            assert not p.isolated_users()
