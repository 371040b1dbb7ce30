"""The ``churn-*`` workloads: a live service driven over loopback HTTP.

One client sends one event per operation as ``POST /events?wait=1`` and
waits for the tick that applied it; ``churn-federated`` then reads the
published association back with ``GET /assignments``. The service runs
the serial engine (no process pool) on its own asyncio thread. With one
operation in flight, one thread at a time does work: the client, the
service's event loop, or the executor thread running the tick or read.
"""

from __future__ import annotations

import asyncio
import gc
import json
import threading
import time
import urllib.error
from dataclasses import dataclass, field
from typing import Any, Callable
from urllib.request import Request, urlopen

from repro.core.problem import MulticastAssociationProblem
from repro.radio.geometry import Area
from repro.scenarios.federation import generate_federation
from repro.scenarios.generator import generate
from repro.service.bench import BENCH_TICK_S, FULL_SIZES
from repro.service.control import ControlService
from repro.service.driver import (
    generate_event_stream,
    request_shutdown,
    stream_bytes,
)
from repro.service.events import Event
from repro.service.loop import AssociationService, ServiceConfig
from repro.verify import verify_assignment

from perfbench.stats import Phase

#: Events that switch session. Raised from the driver's 0.1 so moves and
#: rate changes (about a fifth of the stream) fill the top percentiles
#: and joins/leaves the median, with neither rank on the boundary.
MOVE_FRACTION = 0.2
RATE_FRACTION = 0.02

HTTP_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ChurnSpec:
    """One churn deployment and how hard to drive it."""

    build: Callable[[int], MulticastAssociationProblem]
    n_sessions: int
    #: Nominal operations per second on a 2-CPU host; sizes the fixed
    #: operation sequence so a run measures about ``--seconds``.
    ops_per_s: float
    warmup_ops: int
    read_back: bool


def _dense_problem(seed: int) -> MulticastAssociationProblem:
    """The ``churn-10k`` deployment of ``repro.service.bench``."""
    (_, n_aps, n_users, n_sessions, _) = next(
        size for size in FULL_SIZES if size[0] == "churn-10k"
    )
    side = max(300.0, 150.0 * (n_aps**0.5))
    return generate(
        n_aps=n_aps,
        n_users=n_users,
        n_sessions=n_sessions,
        seed=seed,
        area=Area.square(side),
        budget=0.9,
    ).problem()


def _federated_problem(seed: int) -> MulticastAssociationProblem:
    """40 mutually unreachable clusters of 6 APs and 100 users."""
    return generate_federation(
        n_clusters=40,
        aps_per_cluster=6,
        users_per_cluster=100,
        n_sessions=8,
        seed=seed,
    ).problem()


DENSE = ChurnSpec(
    build=_dense_problem,
    n_sessions=8,
    ops_per_s=2.4,
    warmup_ops=3,
    read_back=False,
)
FEDERATED = ChurnSpec(
    build=_federated_problem,
    n_sessions=8,
    ops_per_s=13.0,
    warmup_ops=12,
    read_back=True,
)


@dataclass
class Fixture:
    """A booted service plus the event sequence it will be sent."""

    spec: ChurnSpec
    control: ControlService
    service: AssociationService
    thread: threading.Thread
    events: list[Event]
    generate_s: float
    cursor: int = 0
    ticks: list[dict[str, Any]] = field(default_factory=list)
    post_ms: list[float] = field(default_factory=list)

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.service.port}"

    def close(self) -> None:
        """Drain the service through ``POST /shutdown``; join its thread."""
        request_shutdown(self.base_url)
        self.thread.join(timeout=60.0)
        if self.thread.is_alive():
            raise RuntimeError("service did not drain within 60 s")


def _boot(service: AssociationService) -> threading.Thread:
    """Run ``service`` on its own event loop in a thread."""
    ready = threading.Event()

    async def main() -> None:
        await service.start()
        ready.set()
        await service.run_until_shutdown(install_signals=False)

    thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
    thread.start()
    if not ready.wait(timeout=60.0):
        raise RuntimeError("service failed to start within 60 s")
    return thread


def setup(spec: ChurnSpec, seed: int, n_ops: int) -> Fixture:
    """Generate the deployment, boot the service and run the warm-up."""
    start = time.perf_counter()
    problem = spec.build(seed)
    generate_s = time.perf_counter() - start
    events = generate_event_stream(
        problem.n_users,
        spec.n_sessions,
        spec.warmup_ops + n_ops,
        seed=seed + 1,
        move_fraction=MOVE_FRACTION,
        rate_fraction=RATE_FRACTION,
    )
    control = ControlService(
        problem, algorithm="mla", max_shard_users=64, parallel=False
    )
    service = AssociationService(
        control, ServiceConfig(tick_interval_s=BENCH_TICK_S)
    )
    thread = _boot(service)
    fixture = Fixture(spec, control, service, thread, events, generate_s)
    warmup = run_phase(fixture, spec.warmup_ops)
    if warmup.failed:
        fixture.close()
        raise RuntimeError(f"{warmup.failed} warm-up operation(s) failed")
    fixture.ticks.clear()
    fixture.post_ms.clear()
    return fixture


def _request(url: str, body: bytes | None = None) -> dict[str, Any]:
    request = Request(
        url,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST" if body is not None else "GET",
    )
    with urlopen(request, timeout=HTTP_TIMEOUT_S) as response:
        payload: dict[str, Any] = json.loads(response.read().decode("utf-8"))
    return payload


def one_op(fixture: Fixture, event: Event) -> bool:
    """Send one event, wait for its tick, optionally read back; True if ok."""
    base = fixture.base_url
    start = time.perf_counter()
    try:
        reply = _request(f"{base}/events?wait=1", stream_bytes([event]))
    except (urllib.error.URLError, OSError, ValueError):
        return False
    fixture.post_ms.append((time.perf_counter() - start) * 1e3)
    tick = reply.get("tick")
    if not isinstance(tick, dict):
        return False
    fixture.ticks.append(tick)
    if not fixture.spec.read_back:
        return True
    try:
        published = _request(f"{base}/assignments")
    except (urllib.error.URLError, OSError, ValueError):
        return False
    return bool(published.get("tick") == tick.get("tick"))


def run_phase(fixture: Fixture, n_ops: int) -> Phase:
    """Send the next ``n_ops`` events of the sequence, one at a time."""
    events = fixture.events[fixture.cursor : fixture.cursor + n_ops]
    if len(events) != n_ops:
        raise RuntimeError("event sequence exhausted")
    fixture.cursor += n_ops
    gc.collect()
    latencies: list[float] = []
    failed = 0
    phase_start = time.perf_counter()
    for event in events:
        start = time.perf_counter()
        ok = one_op(fixture, event)
        latencies.append((time.perf_counter() - start) * 1e3)
        failed += not ok
    return Phase(latencies, time.perf_counter() - phase_start, failed)


def gate(published: dict[str, Any], control: ControlService) -> list[str]:
    """Warm equals cold, and the cold solve is certificate-valid.

    ``published`` is a ``GET /assignments`` body; returns the problems
    found (empty when the gate passes).
    """
    problems: list[str] = []
    cold = control.batch_solution()
    active = sorted(control.active)
    expected = {str(u): cold.assignment.ap_of_user[u] for u in active}
    if published.get("assignments") != expected:
        problems.append("published assignment differs from the cold solve")
    if published.get("tick") != control.tick_index:
        problems.append("published tick is not the last applied tick")
    sub, keep = control.current_problem().restricted_to_users(active)
    certificate = verify_assignment(
        sub,
        [cold.assignment.ap_of_user[u] for u in keep],
        "mla",
        lp_bounds=False,
    )
    problems.extend(
        f"cold solve fails certificate: {code}" for code in certificate.codes
    )
    return problems


def final_gate(fixture: Fixture) -> list[str]:
    """Read the published association over HTTP and gate it."""
    try:
        published = _request(f"{fixture.base_url}/assignments")
    except (urllib.error.URLError, OSError, ValueError) as exc:
        return [f"GET /assignments failed: {exc}"]
    return gate(published, fixture.control)


def tick_counts(ticks: list[dict[str, Any]]) -> dict[str, float]:
    """Shard re-solves per tick and the engine cache's hit ratio."""
    resolved = sum(int(t["resolved_shards"]) for t in ticks)
    hits = sum(int(t["cache_hits"]) for t in ticks)
    misses = sum(int(t["cache_misses"]) for t in ticks)
    return {
        "engine.resolved_shards_per_tick": resolved / max(len(ticks), 1),
        "engine.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
