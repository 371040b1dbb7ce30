"""The asyncio ticker keeps serving after a tick that raises."""

from __future__ import annotations

import asyncio
import urllib.error

import pytest

from repro import obs
from repro.radio.geometry import Area
from repro.scenarios.generator import generate
from repro.service import AssociationService, ControlService, Event, replay
from repro.service.loop import ServiceConfig


def test_ticker_survives_a_failed_tick_and_still_drains() -> None:
    problem = generate(
        n_aps=6, n_users=20, n_sessions=2, seed=3, area=Area.square(900)
    ).problem()
    control = ControlService(problem, max_shard_users=8)
    service = AssociationService(
        control, ServiceConfig(tick_interval_s=0.005)
    )
    real_solve = control.engine.solve
    calls = {"n": 0}

    def fails_once(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("solver died mid-tick")
        return real_solve(*args, **kwargs)

    control.engine.solve = fails_once

    async def run() -> None:
        await service.start()
        base_url = f"http://127.0.0.1:{service.port}"
        # the failed tick answers its wait=1 client with a 500...
        with pytest.raises(urllib.error.HTTPError) as err:
            await asyncio.to_thread(
                replay, base_url, [Event("leave", user=2)], timeout_s=10.0
            )
        assert err.value.code == 500
        assert 2 in control.active
        # ...and the ticker lives on to apply the next batch
        report = await asyncio.to_thread(
            replay,
            base_url,
            [Event("leave", user=2), Event("leave", user=5)],
            timeout_s=10.0,
        )
        assert report.final_tick == control.tick_index
        service.request_shutdown()
        await asyncio.wait_for(
            service.run_until_shutdown(install_signals=False), timeout=10.0
        )

    with obs.collecting() as session:
        asyncio.run(run())
    counters = session.metrics.counters()
    assert counters["service.tick_failures"] == 1
    assert counters["service.tick_rollbacks"] == 1
    assert not {2, 5} & control.active
    assert (
        control.assignment.ap_of_user
        == control.batch_solution().assignment.ap_of_user
    )
