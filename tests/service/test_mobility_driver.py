"""The mobility preset: trace compilation, byte identity, warm==cold.

ISSUE 8 satellite 2: compiling a motion trace through the service driver
and replaying it tick-by-tick yields assignments certified by
``verify_assignment``, and the final state matches a cold
``batch_solution()`` — the service's differential oracle extended to
mobility streams. Plus the satellite-4 regression: a zero-motion trace
never marks shards dirty after the initial solve.
"""

from __future__ import annotations

import pytest

from repro.radio.geometry import Area
from repro.scenarios.generator import generate
from repro.service.control import ControlService
from repro.service.driver import (
    batches_bytes,
    generate_mobility_batches,
    stream_bytes,
)
from repro.verify.certificates import verify_assignment

AREA = Area.square(500.0)


@pytest.fixture
def scenario():
    return generate(
        n_aps=4, n_users=10, n_sessions=3, seed=11, area=AREA
    )


class TestByteIdentity:
    @pytest.mark.parametrize("model", ["waypoint", "vehicular"])
    def test_same_seed_batches_byte_identical(self, scenario, model):
        kwargs = dict(
            model=model,
            n_epochs=10,
            speed_mps=25.0,
            seed=5,
            zap_fraction=0.4,
        )
        first = generate_mobility_batches(scenario, **kwargs)
        second = generate_mobility_batches(scenario, **kwargs)
        assert batches_bytes(first) == batches_bytes(second)
        # Tick boundaries are part of the canonical form: the flattened
        # streams agree too, but the batch serialization pins epochs.
        flat_first = [e for batch in first for e in batch]
        flat_second = [e for batch in second for e in batch]
        assert stream_bytes(flat_first) == stream_bytes(flat_second)

    def test_different_seeds_differ(self, scenario):
        first = generate_mobility_batches(
            scenario, n_epochs=12, speed_mps=25.0, seed=1
        )
        second = generate_mobility_batches(
            scenario, n_epochs=12, speed_mps=25.0, seed=2
        )
        assert batches_bytes(first) != batches_bytes(second)

    def test_batch_count_is_epoch_count(self, scenario):
        batches = generate_mobility_batches(
            scenario, n_epochs=7, speed_mps=10.0, seed=3
        )
        assert len(batches) == 7

    def test_zap_events_are_valid_moves(self, scenario):
        batches = generate_mobility_batches(
            scenario,
            n_epochs=12,
            speed_mps=30.0,
            seed=7,
            zap_fraction=1.0,
        )
        problem = scenario.problem()
        for batch in batches:
            for event in batch:
                event.validate(problem.n_users, problem.n_sessions)


class TestMobilityDifferentialOracle:
    @pytest.mark.parametrize("model", ["waypoint", "vehicular"])
    def test_tick_by_tick_certified_and_warm_matches_cold(
        self, scenario, model
    ):
        problem = scenario.problem()
        service = ControlService(problem, algorithm="mla", max_shard_users=4)
        batches = generate_mobility_batches(
            scenario,
            model=model,
            n_epochs=8,
            speed_mps=35.0,
            seed=13,
            zap_fraction=0.3,
        )
        for batch in batches:
            service.apply_events(batch)
            warm = service.solution
            assert warm is not None
            active = sorted(service.active)
            if not active:
                continue
            sub, keep = service.current_problem().restricted_to_users(
                active
            )
            certificate = verify_assignment(
                sub,
                [warm.assignment.ap_of_user[u] for u in keep],
                "mla",
                lp_bounds=False,
            )
            assert certificate.ok, certificate.violations
        warm = service.solution
        cold = service.batch_solution()
        assert warm is not None
        assert warm.assignment.ap_of_user == cold.assignment.ap_of_user
        assert warm.value() == cold.value()


class TestZeroMotion:
    def test_zero_motion_compiles_to_empty_churn(self, scenario):
        batches = generate_mobility_batches(
            scenario, model="waypoint", n_epochs=6, speed_mps=0.0, seed=2
        )
        # ensure_coverage placed everyone in range, so even the epoch-0
        # reconciliation batch is empty.
        assert all(not batch for batch in batches)

    def test_zero_motion_never_dirties_shards(self, scenario):
        problem = scenario.problem()
        service = ControlService(problem, algorithm="mla", max_shard_users=4)
        boot_tick = service.tick_index
        batches = generate_mobility_batches(
            scenario, model="waypoint", n_epochs=6, speed_mps=0.0, seed=2
        )
        for batch in batches:
            report = service.apply_events(batch)
            assert report.dirty_shards == 0
            assert report.resolved_shards == 0
            assert report.n_applied == 0
        # No tick ever advanced: the initial solve was the last solve.
        assert service.tick_index == boot_tick
