"""Tests for online association maintenance under churn."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import ModelError
from repro.core.online import (
    ChurnEvent,
    OnlineController,
    generate_churn_trace,
)
from tests.conftest import random_problem

class TestEvents:
    def test_join_associates_user(self, fig1_load):
        controller = OnlineController(fig1_load, "mla")
        handoffs = controller.process(ChurnEvent("join", 0))
        assert controller.state.ap_of_user[0] == 0
        assert handoffs == 1

    def test_leave_disassociates(self, fig1_load):
        controller = OnlineController(fig1_load, "mla")
        controller.process(ChurnEvent("join", 0))
        controller.process(ChurnEvent("leave", 0))
        assert controller.state.ap_of_user[0] is None
        assert controller.active == set()

    def test_double_join_rejected(self, fig1_load):
        controller = OnlineController(fig1_load, "mla")
        controller.process(ChurnEvent("join", 0))
        with pytest.raises(ModelError):
            controller.process(ChurnEvent("join", 0))

    def test_leave_of_inactive_rejected(self, fig1_load):
        controller = OnlineController(fig1_load, "mla")
        with pytest.raises(ModelError):
            controller.process(ChurnEvent("leave", 0))

    def test_unknown_user_rejected(self, fig1_load):
        controller = OnlineController(fig1_load, "mla")
        with pytest.raises(ModelError):
            controller.process(ChurnEvent("join", 99))

    def test_unknown_repair_scope(self, fig1_load):
        with pytest.raises(ModelError):
            OnlineController(fig1_load, "mla", repair="sometimes")


class TestRepairScopes:
    def test_local_repair_reacts_to_departure(self, fig1_load):
        """After a departure changes an AP's rate floor, local repair lets
        neighbors re-decide (possibly improving the association)."""
        controller = OnlineController(
            fig1_load, "mla", repair="local", rng=random.Random(1)
        )
        for user in range(5):
            controller.process(ChurnEvent("join", user))
        # everyone lands on a1 (the MLA optimum for the full set)
        assert all(a == 0 for a in controller.state.ap_of_user)
        controller.process(ChurnEvent("leave", 0))
        # the remaining association stays a full cover of active users
        for user in controller.active:
            assert controller.state.ap_of_user[user] is not None

    def test_full_repair_matches_sequential_quality(self):
        """After a join-only trace, full repair ends at a sequential-dynamics
        local optimum: one more global pass makes no move."""
        rng = random.Random(233)
        for _ in range(5):
            p = random_problem(rng, n_aps=4, n_users=8)
            controller = OnlineController(
                p, "mla", repair="full", rng=random.Random(2)
            )
            for user in range(p.n_users):
                controller.process(ChurnEvent("join", user))
            moves = controller._repair_users(set(controller.active))
            assert moves == 0

    def test_none_repair_never_moves_others(self, fig1_load):
        controller = OnlineController(fig1_load, "mla", repair="none")
        controller.process(ChurnEvent("join", 0))
        before = list(controller.state.ap_of_user)
        handoffs = controller.process(ChurnEvent("join", 1))
        after = controller.state.ap_of_user
        assert handoffs <= 1  # only the joining user may have moved
        assert all(
            before[u] == after[u] for u in range(5) if u != 1
        )

    def test_budget_respected_under_churn(self):
        rng = random.Random(239)
        for _ in range(5):
            p = random_problem(rng, budget=0.4)
            controller = OnlineController(
                p, "mnu", repair="local", rng=random.Random(3)
            )
            trace = generate_churn_trace(
                p, 3 * p.n_users, rng=random.Random(4)
            )
            controller.run(trace)
            assert controller.state.to_assignment().violations() == []


class TestRunAndMetrics:
    def test_snapshots_track_active_counts(self, fig1_load):
        controller = OnlineController(fig1_load, "mla")
        trace = [
            ChurnEvent("join", 0),
            ChurnEvent("join", 1),
            ChurnEvent("leave", 0),
        ]
        result = controller.run(trace)
        assert [s.n_active for s in result.snapshots] == [1, 2, 1]
        assert result.final.n_active == 1
        assert result.total_handoffs >= 2
        assert result.handoffs_per_event() == pytest.approx(
            result.total_handoffs / 3
        )

    def test_empty_result_final_raises(self):
        from repro.core.online import OnlineResult

        with pytest.raises(ModelError):
            _ = OnlineResult().final

    def test_all_active_users_served_when_coverable(self):
        rng = random.Random(241)
        p = random_problem(rng, n_aps=4, n_users=10)
        controller = OnlineController(p, "mla", repair="local")
        trace = generate_churn_trace(p, 30, rng=random.Random(5))
        result = controller.run(trace)
        assert result.final.n_served == result.final.n_active


class TestTraceGenerator:
    def test_trace_is_consistent(self, fig1_load):
        trace = generate_churn_trace(
            fig1_load, 50, join_bias=0.5, rng=random.Random(6)
        )
        active: set[int] = set()
        for event in trace:
            if event.kind == "join":
                assert event.user not in active
                active.add(event.user)
            else:
                assert event.user in active
                active.discard(event.user)

    def test_join_bias_one_only_joins(self, fig1_load):
        trace = generate_churn_trace(
            fig1_load, 5, join_bias=1.0, rng=random.Random(7)
        )
        assert all(e.kind == "join" for e in trace)
        assert len(trace) == 5

    def test_trace_stops_when_exhausted(self, fig1_load):
        # 5 users, join-only: at most 5 events possible
        trace = generate_churn_trace(
            fig1_load, 50, join_bias=1.0, rng=random.Random(8)
        )
        assert len(trace) == 5

    def test_validation(self, fig1_load):
        with pytest.raises(ModelError):
            generate_churn_trace(fig1_load, -1)
        with pytest.raises(ModelError):
            generate_churn_trace(fig1_load, 5, join_bias=1.5)
