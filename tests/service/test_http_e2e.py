"""End-to-end service test: boot, replay 500 events, differential oracle.

Boots a real :class:`~repro.service.loop.AssociationService` (asyncio
loop + stdlib HTTP listener) on an ephemeral port in a worker thread,
replays a seeded 500-event churn stream through the driver with
``?wait=1`` backpressure, and asserts the final ``GET /assignments``
equals a cold batch re-solve of the same cumulative state — certified
by :func:`~repro.verify.verify_assignment` on the active sub-instance.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.radio.geometry import Area
from repro.scenarios.generator import generate
from repro.service import (
    AssociationService,
    ControlService,
    ServiceConfig,
    generate_event_stream,
    replay,
)
from repro.service.driver import fetch_json, request_shutdown, stream_bytes
from repro.verify import verify_assignment

N_EVENTS = 500


@pytest.fixture()
def live_service():
    """A running service on an ephemeral port, torn down gracefully."""
    problem = generate(
        n_aps=12, n_users=60, n_sessions=4, seed=21,
        area=Area.square(1000), budget=0.9,
    ).problem()
    control = ControlService(problem, algorithm="mla", max_shard_users=16)
    service = AssociationService(
        control, ServiceConfig(tick_interval_s=0.005)
    )
    ready = threading.Event()

    async def _main() -> None:
        await service.start()
        ready.set()
        await service.run_until_shutdown(install_signals=False)

    thread = threading.Thread(target=lambda: asyncio.run(_main()), daemon=True)
    thread.start()
    assert ready.wait(timeout=30.0), "service failed to start"
    base_url = f"http://127.0.0.1:{service.port}"
    yield service, control, base_url
    if thread.is_alive():
        try:
            request_shutdown(base_url)
        except (urllib.error.URLError, OSError):
            service.request_shutdown()
        thread.join(timeout=30.0)
    assert not thread.is_alive(), "service did not drain on shutdown"


class TestDifferentialOracle:
    def test_replay_500_events_matches_cold_batch(self, live_service):
        service, control, base_url = live_service
        problem = control.problem
        events = generate_event_stream(
            problem.n_users, problem.n_sessions, N_EVENTS, seed=17
        )
        report = replay(base_url, events, batch_size=50, wait=True)
        assert report.n_events == N_EVENTS
        assert report.final_tick >= 1

        payload = fetch_json(base_url, "/assignments")
        assert payload["tick"] == control.tick_index

        # the oracle: a cold batch re-solve of the cumulative state must
        # land the identical association the service maintained live.
        cold = control.batch_solution()
        expected = {
            str(u): cold.assignment.ap_of_user[u]
            for u in sorted(control.active)
        }
        assert payload["assignments"] == expected
        assert payload["n_active"] == len(control.active)

        # ...and it is certificate-valid on the active sub-instance.
        sub, keep = control.current_problem().restricted_to_users(
            sorted(control.active)
        )
        certificate = verify_assignment(
            sub,
            [cold.assignment.ap_of_user[u] for u in keep],
            "mla",
            lp_bounds=False,
        )
        assert certificate.ok, certificate.violations

    def test_loads_endpoint_is_consistent(self, live_service):
        service, control, base_url = live_service
        events = generate_event_stream(
            control.problem.n_users, control.problem.n_sessions, 60, seed=4
        )
        replay(base_url, events, batch_size=20, wait=True)
        loads = fetch_json(base_url, "/loads")
        assert loads["tick"] == control.tick_index
        assert loads["max_load"] <= loads["total_load"] + 1e-12
        assert len(loads["loads"]) == control.problem.n_aps


class TestControlSurface:
    def test_healthz_reports_state(self, live_service):
        _, control, base_url = live_service
        body = fetch_json(base_url, "/healthz")
        assert body["status"] == "ok"
        assert body["state"]["n_users"] == control.problem.n_users
        assert body["state"]["n_shards"] == control.engine.plan.n_shards

    def test_metrics_exposes_ingest_and_obs(self, live_service):
        with obs.collecting():
            _, _, base_url = live_service
            replay(
                base_url,
                generate_event_stream(60, 4, 10, seed=2),
                batch_size=10,
                wait=True,
            )
            body = fetch_json(base_url, "/metrics")
        assert body["ingest"]["ingested"] >= 10
        assert body["ingest"]["ticks"] >= 1
        assert body["last_tick"]["n_events"] >= 1

    def test_malformed_post_is_400(self, live_service):
        _, _, base_url = live_service
        request = urllib.request.Request(
            f"{base_url}/events",
            data=b'[{"kind": "teleport", "user": 1}]',
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        body = json.loads(err.value.read().decode("utf-8"))
        assert "teleport" in body["error"]

    @pytest.mark.parametrize(
        "rate", [b"true", b"1" + b"0" * 400], ids=["bool", "huge-int"]
    )
    def test_non_float_rate_is_400(self, live_service, rate):
        _, _, base_url = live_service
        request = urllib.request.Request(
            f"{base_url}/events",
            data=b'{"kind": "rate-change", "session": 0, "rate_mbps": '
            + rate
            + b"}",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        body = json.loads(err.value.read().decode("utf-8"))
        assert "rate_mbps" in body["error"]

    def test_out_of_range_event_is_400(self, live_service):
        _, _, base_url = live_service
        request = urllib.request.Request(
            f"{base_url}/events",
            data=stream_bytes(
                generate_event_stream(10_000, 4, 1, seed=0)
            ),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_unknown_route_is_404_known_route_wrong_method_is_405(
        self, live_service
    ):
        _, _, base_url = live_service
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base_url}/nope", timeout=10)
        assert err.value.code == 404
        request = urllib.request.Request(
            f"{base_url}/assignments", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 405

    def test_shutdown_drains_and_stops(self, live_service):
        service, _, base_url = live_service
        body = request_shutdown(base_url)
        assert body["status"] == "draining"
        assert service.draining
