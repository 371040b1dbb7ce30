"""ControlService unit tests: tick semantics, incrementality, oracles."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.errors import ModelError
from repro.core.problem import MulticastAssociationProblem, Session
from repro.engine import ShardedEngine
from repro.radio.geometry import Area
from repro.scenarios.generator import generate
from repro.service import ControlService, Event
from repro.service.events import EventError
from repro.verify import verify_assignment


@pytest.fixture()
def scenario():
    # seed 7 on a 1.2 km side disconnects the coverage graph into five
    # components, so the incrementality tests below actually bite.
    return generate(
        n_aps=8, n_users=30, n_sessions=3, seed=7, area=Area.square(1200),
        budget=0.9,
    )


@pytest.fixture()
def control(scenario):
    return ControlService(
        scenario.problem(), algorithm="mla", max_shard_users=8
    )


class TestTickSemantics:
    def test_boot_solves_for_all_users(self, control):
        assert control.tick_index == 0
        assert control.solution is not None
        assert len(control.active) == control.problem.n_users

    def test_leave_then_join_roundtrip(self, control):
        before = control.assignment.ap_of_user
        report = control.apply_events([Event("leave", user=4)])
        assert report.n_applied == 1 and report.n_leaves == 1
        assert 4 not in control.active
        assert control.assignment.ap_of_user[4] is None
        report = control.apply_events([Event("join", user=4)])
        assert report.n_joins == 1
        assert control.assignment.ap_of_user == before

    def test_idempotent_events_are_coalesced_away(self, control):
        # joining an already-active user nets out to nothing: no state
        # change, no re-solve.
        tick = control.tick_index
        report = control.apply_events([Event("join", user=0)])
        assert report.n_applied == 0
        assert report.n_coalesced == 1
        assert report.resolved_shards == 0
        assert control.tick_index == tick

    def test_join_then_leave_single_tick_collapses(self, control):
        control.apply_events([Event("leave", user=7)])
        tick = control.tick_index
        report = control.apply_events(
            [Event("join", user=7), Event("leave", user=7)]
        )
        assert report.n_applied == 0
        assert 7 not in control.active
        assert control.tick_index == tick

    def test_malformed_event_rejected_atomically(self, control):
        active_before = control.active
        with pytest.raises(EventError):
            control.apply_events(
                [Event("leave", user=1), Event("join", user=10_000)]
            )
        assert control.active == active_before  # nothing applied

    def test_unknown_algorithm_rejected(self, scenario):
        with pytest.raises(ModelError):
            ControlService(scenario.problem(), algorithm="pf")


class TestIncrementality:
    def test_join_resolves_only_touched_shards(self, control):
        n_shards = control.engine.plan.n_shards
        assert n_shards > 1, "fixture must shard for this test to bite"
        control.apply_events([Event("leave", user=3)])
        report = control.apply_events([Event("join", user=3)])
        # only the shard owning user 3 misses its fingerprint; every
        # other live shard is served from cache.
        assert report.resolved_shards == 1
        assert report.cache_hits >= n_shards - 1

    def test_move_switches_session_and_stays_incremental(self, control):
        user = 5
        old_session = control.problem.session_of(user)
        new_session = (old_session + 1) % control.problem.n_sessions
        report = control.apply_events(
            [Event("move", user=user, session=new_session)]
        )
        assert report.n_moves == 1
        assert control.problem.session_of(user) == new_session
        # the move rebuilt the problem; only the moved user's shard
        # re-solves (content-addressed fingerprints).
        assert report.resolved_shards == 1

    def test_rate_change_invalidates_everything(self, control):
        report = control.apply_events(
            [Event("rate-change", session=0, rate_mbps=2.0)]
        )
        assert report.n_rate_changes == 1
        assert control.problem.session_rate(0) == pytest.approx(2.0)
        assert report.dirty_shards == control.engine.plan.n_shards
        assert report.cache_hits == 0

    def test_counters_flow_when_obs_installed(self, scenario):
        with obs.collecting() as session:
            service = ControlService(
                scenario.problem(), algorithm="mla", max_shard_users=8
            )
            service.apply_events([Event("leave", user=2)])
        counters = session.metrics.counters()
        assert counters["service.ticks"] == 1
        assert counters["service.events_applied"] == 1
        assert session.metrics.histogram("service.resolve_ms")["count"] == 2


class TestDifferentialOracle:
    @pytest.mark.parametrize("algorithm", ["mnu", "bla", "mla"])
    def test_stream_matches_cold_batch(self, scenario, algorithm):
        from repro.service.driver import generate_event_stream

        problem = scenario.problem()
        service = ControlService(
            problem, algorithm=algorithm, max_shard_users=8
        )
        events = generate_event_stream(
            problem.n_users, problem.n_sessions, 80, seed=3
        )
        for start in range(0, len(events), 10):
            service.apply_events(events[start : start + 10])
        warm = service.solution
        cold = service.batch_solution()
        assert warm is not None
        assert warm.assignment.ap_of_user == cold.assignment.ap_of_user
        assert warm.value() == cold.value()
        # certify on the sub-instance restricted to users still active:
        # departed users are legitimately unserved in the live solution.
        sub, keep = service.current_problem().restricted_to_users(
            sorted(service.active)
        )
        certificate = verify_assignment(
            sub,
            [warm.assignment.ap_of_user[u] for u in keep],
            algorithm,
            lp_bounds=False,
        )
        assert certificate.ok, certificate.violations

    def test_mla_objective_is_bit_identical_after_rollback(
        self, control, monkeypatch
    ):
        """The published MLA objective (read from the cached shard
        fragments) equals a cold batch solve's ``total_load()`` to the
        last bit — across joins, moves, a rate change, a set-policy and a
        tick the solver kills and the service rolls back."""
        ticks = [
            [Event("leave", user=3), Event("leave", user=11)],
            [Event("move", user=5, session=2), Event("join", user=3)],
            [Event("rate-change", session=1, rate_mbps=2.5)],
            [Event("set-policy", session=0, policy="hybrid")],
        ]
        for events in ticks:
            report = control.apply_events(events)

        def boom(*args, **kwargs):
            raise RuntimeError("solver died mid-tick")

        pre_tick = control.problem
        monkeypatch.setattr(control.engine, "solve", boom)
        with pytest.raises(RuntimeError):
            control.apply_events(
                [Event("move", user=7, session=1), Event("leave", user=20)]
            )
        monkeypatch.undo()
        assert control.problem is pre_tick
        assert control.engine.problem is control.problem
        assert 20 in control.active
        for events in (
            [Event("join", user=11), Event("move", user=9, session=0)],
            [Event("set-policy", session=2, policy="dms")],
        ):
            report = control.apply_events(events)
        expected = control.batch_solution().assignment.total_load()
        assert report.objective_value.hex() == expected.hex()
        assert control.solution is not None
        assert control.solution.value().hex() == expected.hex()

    def test_drain_to_empty_and_back(self, control):
        users = sorted(control.active)
        for user in users:
            control.apply_events([Event("leave", user=user)])
        assert not control.active
        assert control.solution is not None
        assert control.solution.value() == 0.0
        control.apply_events([Event("join", user=users[0])])
        assert control.assignment.ap_of_user[users[0]] is not None


class TestEngineSwapProblem:
    def test_swap_keeps_cache_for_untouched_shards(self):
        problem = generate(
            n_aps=8, n_users=30, n_sessions=3, seed=7,
            area=Area.square(1200), budget=0.9,
        ).problem()
        engine = ShardedEngine(problem, max_shard_users=8)
        engine.solve("mla")
        moved_user = 0
        sessions = list(problem.user_sessions)
        sessions[moved_user] = (
            sessions[moved_user] + 1
        ) % problem.n_sessions
        swapped = MulticastAssociationProblem(
            problem.link_rates,
            sessions,
            problem.sessions,
            problem.budgets,
        )
        engine.swap_problem(swapped)
        solution = engine.solve("mla")
        assert solution.n_resolved == 1
        # and the swap is exact: a cold engine on the new problem
        # lands the identical assignment.
        cold = ShardedEngine(swapped, max_shard_users=8)
        assert (
            cold.solve("mla").assignment.ap_of_user
            == solution.assignment.ap_of_user
        )

    def test_swap_rejects_changed_geometry(self):
        problem = MulticastAssociationProblem(
            [[3, 6], [4, 5]], [0, 0], [Session(0, 1.0)]
        )
        other = MulticastAssociationProblem(
            [[3, 6, 1], [4, 5, 1]], [0, 0, 0], [Session(0, 1.0)]
        )
        rates_changed = MulticastAssociationProblem(
            [[3, 5], [4, 5]], [0, 0], [Session(0, 1.0)]
        )
        engine = ShardedEngine(problem)
        with pytest.raises(ModelError):
            engine.swap_problem(other)
        with pytest.raises(ModelError):
            engine.swap_problem(rates_changed)
