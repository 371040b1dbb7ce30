"""Runtime sanitizer mode (``REPRO_SANITIZE=1``): arming, checks, rollback."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro import obs
from repro.core import instrument
from repro.core.errors import SanitizeError
from repro.core.ledger import LoadLedger
from repro.radio.geometry import Area
from repro.scenarios.generator import generate
from repro.service import AssociationService, ControlService, Event
from repro.service import sanitize
from repro.service.loop import ServiceConfig


@pytest.fixture()
def scenario():
    return generate(
        n_aps=6, n_users=20, n_sessions=2, seed=3, area=Area.square(900)
    )


@pytest.fixture()
def sanitized(monkeypatch):
    monkeypatch.setenv(instrument.SANITIZE_ENV, "1")
    yield
    obs.uninstall()


def test_env_switch(monkeypatch) -> None:
    monkeypatch.delenv(instrument.SANITIZE_ENV, raising=False)
    assert not instrument.sanitize_enabled()
    monkeypatch.setenv(instrument.SANITIZE_ENV, "0")
    assert not instrument.sanitize_enabled()
    monkeypatch.setenv(instrument.SANITIZE_ENV, "1")
    assert instrument.sanitize_enabled()


def test_check_raises_and_counts(sanitized) -> None:
    registry = obs.install().metrics
    sanitize.check(True, "fine")
    with pytest.raises(SanitizeError, match="broken invariant"):
        sanitize.check(False, "broken invariant")
    assert registry.snapshot()["counters"]["sanitize.failures"] == 1


def test_sanitize_arms_ledger_checks(sanitized, scenario) -> None:
    registry = obs.install().metrics
    ledger = LoadLedger(scenario.problem())
    assert ledger._check
    ledger.move(0, 1)
    counters = registry.snapshot()["counters"]
    assert counters.get("sanitize.ledger_checks", 0) >= 1


def test_tick_checks_counted(sanitized, scenario) -> None:
    registry = obs.install().metrics
    control = ControlService(scenario.problem(), max_shard_users=8)
    control.apply_events([Event("leave", user=2)])
    counters = registry.snapshot()["counters"]
    assert counters.get("sanitize.tick_checks", 0) >= 1


class _Boom(RuntimeError):
    pass


def test_failed_tick_rolls_back_state(sanitized, scenario) -> None:
    registry = obs.install().metrics
    control = ControlService(scenario.problem(), max_shard_users=8)
    before_active = set(control.active)
    before_tick = control.tick_index
    before_assignment = control.assignment.ap_of_user
    original_solve = control.engine.solve
    control.engine.solve = lambda *a, **k: (_ for _ in ()).throw(
        _Boom("solver died mid-tick")
    )
    with pytest.raises(_Boom):
        control.apply_events([Event("leave", user=2)])
    control.engine.solve = original_solve

    assert set(control.active) == before_active
    assert control.tick_index == before_tick
    assert control.assignment.ap_of_user == before_assignment
    counters = registry.snapshot()["counters"]
    assert counters.get("sanitize.tick_rollbacks", 0) == 1

    # the service keeps working after the rollback, and the oracle
    # still holds: the incremental state equals a cold batch solve
    report = control.apply_events([Event("leave", user=2)])
    assert report.n_leaves == 1
    assert (
        control.assignment.ap_of_user
        == control.batch_solution().assignment.ap_of_user
    )


def test_rollback_without_sanitize_mode(scenario, monkeypatch) -> None:
    """Rollback is always on; sanitize only adds the verification."""
    monkeypatch.delenv(instrument.SANITIZE_ENV, raising=False)
    control = ControlService(scenario.problem(), max_shard_users=8)
    before_tick = control.tick_index
    control.engine.solve = lambda *a, **k: (_ for _ in ()).throw(
        _Boom("solver died mid-tick")
    )
    with pytest.raises(_Boom):
        control.apply_events([Event("leave", user=2)])
    assert control.tick_index == before_tick
    assert 2 in control.active


def test_watchdog_sees_a_stalled_loop() -> None:
    async def scenario() -> sanitize.LoopWatchdog:
        watchdog = sanitize.LoopWatchdog(interval_s=0.01, threshold_s=0.04)
        task = asyncio.create_task(watchdog.run())
        await asyncio.sleep(0.03)  # let it take a baseline lap
        time.sleep(0.15)  # blocking call on the loop: the bug class
        await asyncio.sleep(0.03)
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        return watchdog

    watchdog = asyncio.run(scenario())
    assert watchdog.stalls, "blocking sleep on the loop went unnoticed"
    assert max(watchdog.stalls) > 0.04


def test_watchdog_quiet_on_healthy_loop() -> None:
    async def scenario() -> sanitize.LoopWatchdog:
        watchdog = sanitize.LoopWatchdog(interval_s=0.01, threshold_s=0.2)
        task = asyncio.create_task(watchdog.run())
        await asyncio.sleep(0.08)
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        return watchdog

    watchdog = asyncio.run(scenario())
    assert watchdog.stalls == []


def test_stall_threshold_env_override(monkeypatch) -> None:
    monkeypatch.setenv(sanitize.STALL_ENV, "1.5")
    assert sanitize.stall_threshold_s() == 1.5
    monkeypatch.setenv(sanitize.STALL_ENV, "bogus")
    assert sanitize.stall_threshold_s() == 0.25
    monkeypatch.setenv(sanitize.STALL_ENV, "-1")
    assert sanitize.stall_threshold_s() == 0.25


def test_service_arms_watchdog_under_sanitize(sanitized, scenario) -> None:
    async def run() -> None:
        control = ControlService(scenario.problem(), max_shard_users=8)
        service = AssociationService(
            control, ServiceConfig(tick_interval_s=0.01)
        )
        await service.start()
        try:
            assert service.watchdog is not None
            assert service._watchdog_task is not None
        finally:
            service.request_shutdown()
            await service._close()

    asyncio.run(run())


def test_service_skips_watchdog_by_default(scenario, monkeypatch) -> None:
    monkeypatch.delenv(instrument.SANITIZE_ENV, raising=False)

    async def run() -> None:
        control = ControlService(scenario.problem(), max_shard_users=8)
        service = AssociationService(
            control, ServiceConfig(tick_interval_s=0.01)
        )
        await service.start()
        try:
            assert service.watchdog is None
        finally:
            await service._close()

    asyncio.run(run())
