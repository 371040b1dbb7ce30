"""Service e2e tests for mid-stream transmission-policy flips.

The incrementality contract under ``set-policy``: a flip dirties only
the shards whose *active* users stream the flipped session (the
fingerprint carries per-session policy bytes for exactly the requested
non-legacy sessions), fingerprints alone make the engine re-solve
exactly those shards, and a warm service that lived through a
mixed-policy stream lands bit-identical on a cold ``batch_solution()``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.problem import TX_LEGACY
from repro.radio.geometry import Area
from repro.scenarios.generator import generate
from repro.service import ControlService, Event
from repro.service.driver import generate_event_stream


@pytest.fixture()
def scenario():
    # same fragmented deployment as test_control: seed 7 on a 1.2 km
    # side splits coverage into several components, so "only affected
    # shards" is distinguishable from "all shards".
    return generate(
        n_aps=8, n_users=30, n_sessions=3, seed=7, area=Area.square(1200),
        budget=0.9,
    )


@pytest.fixture()
def control(scenario):
    return ControlService(
        scenario.problem(), algorithm="mla", max_shard_users=8
    )


def _session_absent_somewhere(control) -> int:
    """A session some shard has no active user of (so the flip's dirty
    set is a strict subset of the shards)."""
    problem = control.problem
    for session in range(problem.n_sessions):
        hosting = [
            shard
            for shard in control.engine.shards
            if any(
                problem.session_of(u) == session
                for u in shard.users
                if u in control.active
            )
        ]
        if 0 < len(hosting) < len(control.engine.shards):
            return session
    pytest.skip("fixture has every session on every shard")


class TestSetPolicyIncrementality:
    def test_flip_reprices_only_affected_shards(self, control):
        n_shards = control.engine.plan.n_shards
        assert n_shards > 1, "fixture must shard for this test to bite"
        session = _session_absent_somewhere(control)
        with obs.collecting() as obs_session:
            report = control.apply_events(
                [Event("set-policy", session=session, policy="dms")]
            )
        counters = obs_session.metrics.counters()
        assert report.n_policy_changes == 1
        assert 0 < report.dirty_shards < n_shards
        assert report.cache_hits == n_shards - report.dirty_shards
        assert counters["service.policy_changes"] == 1
        # fingerprints alone evict exactly the policy-dirty shards
        assert report.cache_misses == report.dirty_shards
        assert control.current_problem().policy_of(session) == "dms"

    def test_idempotent_flip_is_a_no_op(self, control):
        tick = control.tick_index
        report = control.apply_events(
            [Event("set-policy", session=0, policy=TX_LEGACY)]
        )
        assert report.n_applied == 0
        assert report.n_policy_changes == 0
        assert report.resolved_shards == 0
        assert control.tick_index == tick

    def test_flip_and_flip_back_restores_the_association(self, control):
        before = control.assignment.ap_of_user
        control.apply_events([Event("set-policy", session=1, policy="dms")])
        control.apply_events(
            [Event("set-policy", session=1, policy=TX_LEGACY)]
        )
        assert control.assignment.ap_of_user == before

    def test_state_payload_reports_policies(self, control):
        control.apply_events(
            [Event("set-policy", session=2, policy="hybrid")]
        )
        payload = control.state_payload()
        assert payload["session_policies"][2] == "hybrid"


class TestMixedPolicyDifferentialOracle:
    @pytest.mark.parametrize("algorithm", ["mnu", "bla", "mla"])
    def test_policy_stream_matches_cold_batch(self, scenario, algorithm):
        problem = scenario.problem()
        service = ControlService(
            problem, algorithm=algorithm, max_shard_users=8
        )
        events = generate_event_stream(
            problem.n_users,
            problem.n_sessions,
            80,
            seed=5,
            policy_fraction=0.15,
        )
        assert any(e.kind == "set-policy" for e in events)
        for start in range(0, len(events), 10):
            service.apply_events(events[start : start + 10])
        # the stream must actually leave a mixed-policy problem behind
        # for this oracle to bite (seed 5 does)
        final = service.current_problem()
        assert not final.all_legacy
        warm = service.solution
        cold = service.batch_solution()
        assert warm is not None
        assert warm.assignment.ap_of_user == cold.assignment.ap_of_user
        assert warm.value() == cold.value()
