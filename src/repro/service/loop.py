"""The asyncio association-control service: ingest, tick, serve, drain.

:class:`AssociationService` wraps a synchronous
:class:`~repro.service.control.ControlService` in the event loop the
ROADMAP's "controller PR" calls for:

* ``POST /events`` parses, validates and *enqueues* control-plane
  events — nothing mutates mid-tick;
* a ticker task fires every ``tick_interval_s``, drains up to
  ``max_batch`` queued events, coalesces them (last writer wins) and
  applies them as one atomic tick with a single incremental re-solve;
* ``GET /assignments``, ``/loads``, ``/metrics`` and ``/healthz``
  publish the current association, per-AP loads, the obs counter /
  histogram snapshot, and liveness;
* SIGTERM / SIGINT (or ``POST /shutdown``) start a graceful drain:
  ingest returns 503, queued events are applied tick by tick, the final
  association is published, then the listener closes and
  :meth:`run_until_shutdown` returns.

The solve runs *off* the event loop: a tick drains the queue on the
loop thread, then applies the batch on the default executor via
``loop.run_in_executor`` while the listener stays responsive. A
``threading.Lock`` serializes the applied tick against the ``GET``
payload reads, which also run off-loop — the single-writer tick
semantics are unchanged (there is exactly one ticker, so ticks never
overlap), but re-solve latency no longer stalls health checks or
ingest. Replint rule RPL007 enforces this shape statically, and
``REPRO_SANITIZE=1`` arms a loop-stall watchdog
(:class:`~repro.service.sanitize.LoopWatchdog`) that verifies it at
runtime. ``POST /events?wait=1`` parks the client on a future resolved
— or failed, if the tick raises — by the tick that applied its batch;
that is the backpressure mechanism the churn driver and the e2e tests
use.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, cast

from repro.core import instrument
from repro.obs import counters as metrics
from repro.service.sanitize import LoopWatchdog
from repro.service.control import ControlService, TickReport
from repro.service.events import EventError, parse_events
from repro.service.http import (
    Request,
    Response,
    error_response,
    read_request,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Loop-level knobs of one service instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in ``.port``
    tick_interval_s: float = 0.05
    max_batch: int = 4096

    def __post_init__(self) -> None:
        if self.tick_interval_s <= 0:
            raise ValueError("tick_interval_s must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")


class AssociationService:
    """One running service: queue + ticker + HTTP control surface."""

    def __init__(
        self,
        control: ControlService,
        config: ServiceConfig | None = None,
    ) -> None:
        self.control = control
        self.config = config or ServiceConfig()
        self.port: int | None = None
        self._pending: list[tuple[Any, asyncio.Future[TickReport] | None]] = []
        self._draining = False
        self._stopped: asyncio.Event | None = None
        self._server: asyncio.base_events.Server | None = None
        self._ticker_task: asyncio.Task[None] | None = None
        # Serializes the applied tick (executor thread) against the GET
        # payload reads, which also run off-loop.
        self._state_lock = threading.Lock()
        self.watchdog: LoopWatchdog | None = None
        self._watchdog_task: asyncio.Task[None] | None = None
        self._ingested = 0
        self._applied = 0
        self._ticks_run = 0
        self.last_report: TickReport | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the ticker."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets
        assert sockets
        self.port = sockets[0].getsockname()[1]
        self._ticker_task = asyncio.create_task(self._ticker())
        if instrument.sanitize_enabled():
            self.watchdog = LoopWatchdog()
            self._watchdog_task = asyncio.create_task(self.watchdog.run())

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; safe from signal context)."""
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    async def run_until_shutdown(self, *, install_signals: bool = True) -> None:
        """Serve until a drain completes; installs SIGTERM/SIGINT handlers."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_shutdown)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main threads / platforms without signals
        try:
            assert self._stopped is not None
            await self._stopped.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self._close()

    async def _close(self) -> None:
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            try:
                await self._watchdog_task
            except asyncio.CancelledError:
                pass
            self._watchdog_task = None
        if self._ticker_task is not None:
            self._ticker_task.cancel()
            try:
                await self._ticker_task
            except asyncio.CancelledError:
                pass
            self._ticker_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- the tick loop ---------------------------------------------------

    async def _ticker(self) -> None:
        """Fire a tick every interval; drain and stop when asked to."""
        assert self._stopped is not None
        while True:
            await asyncio.sleep(self.config.tick_interval_s)
            await self.tick_async()
            if self._draining and not self._pending:
                self._stopped.set()
                return

    def _take_batch(
        self,
    ) -> list[tuple[Any, asyncio.Future[TickReport] | None]]:
        """Pop up to ``max_batch`` queued events (loop thread only)."""
        batch = self._pending[: self.config.max_batch]
        del self._pending[: len(batch)]
        return batch

    def _apply_events_locked(self, events: list[Any]) -> TickReport:
        """Apply one batch under the state lock (runs off-loop)."""
        with self._state_lock:
            return self.control.apply_events(events)

    def _finish_tick(
        self,
        batch: list[tuple[Any, asyncio.Future[TickReport] | None]],
        report: TickReport,
    ) -> None:
        """Record the tick and resolve the waiters of its batch."""
        self._ticks_run += 1
        self._applied += len(batch)
        self.last_report = report
        for _, future in batch:
            if future is not None and not future.done():
                future.set_result(report)

    async def tick_async(self) -> TickReport | None:
        """Apply one tick's worth of queued events off the event loop.

        The batch is taken on the loop thread (single writer of the
        queue), applied on the default executor so the listener stays
        responsive through the re-solve, and — should the tick raise —
        its ``wait=1`` futures get the exception instead of hanging.
        The control core has already rolled that tick back, so a failed
        tick is counted on ``service.tick_failures`` and not re-raised:
        the ticker keeps applying later batches and a drain completes.
        """
        if not self._pending:
            return None
        batch = self._take_batch()
        events = [event for event, _ in batch]
        loop = asyncio.get_running_loop()
        try:
            report = await loop.run_in_executor(
                None, self._apply_events_locked, events
            )
        except BaseException as exc:
            for _, future in batch:
                if future is not None and not future.done():
                    future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
            metrics.incr("service.tick_failures")
            return None
        self._finish_tick(batch, report)
        return report

    def run_tick(self) -> TickReport | None:
        """Apply one tick's worth of queued events (``None`` when idle).

        Public and synchronous so tests and the bench harness can drive
        ticks deterministically without a running loop; the asyncio
        ticker goes through :meth:`tick_async` instead.
        """
        if not self._pending:
            return None
        batch = self._take_batch()
        events = [event for event, _ in batch]
        report = self._apply_events_locked(events)
        self._finish_tick(batch, report)
        return report

    # -- HTTP ------------------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = await read_request(reader)
            if request is None:
                return
            response = await self._route(request)
            writer.write(response.encode())
            await writer.drain()
        except Exception:
            try:
                writer.write(
                    error_response(500, "internal error").encode()
                )
                await writer.drain()
            except OSError:
                pass  # peer already gone; nothing left to tell it
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except OSError:
                pass

    async def _route(self, request: Request) -> Response:
        routes: dict[
            tuple[str, str], Callable[[Request], Awaitable[Any]]
        ] = {
            ("GET", "/healthz"): self._get_healthz,
            ("GET", "/assignments"): self._get_assignments,
            ("GET", "/loads"): self._get_loads,
            ("GET", "/metrics"): self._get_metrics,
            ("POST", "/shutdown"): self._post_shutdown,
        }
        if request.method == "POST" and request.path == "/events":
            return await self._post_events(request)
        handler = routes.get((request.method, request.path))
        if handler is None:
            known = {path for _, path in routes} | {"/events"}
            if request.path in known:
                return error_response(
                    405, f"method {request.method} not allowed"
                )
            return error_response(404, f"no route {request.path}")
        return Response(200, await handler(request))

    async def _post_events(self, request: Request) -> Response:
        if self._draining:
            return error_response(503, "service is draining")
        try:
            events = parse_events(request.json())
        except (ValueError, EventError) as exc:
            return error_response(400, str(exc))
        problem = self.control.problem
        try:
            for event in events:
                event.validate(problem.n_users, problem.n_sessions)
        except EventError as exc:
            return error_response(400, str(exc))
        if not events:
            return Response(200, {"accepted": 0, "queued": len(self._pending)})
        future: asyncio.Future[TickReport] | None = None
        if request.flag("wait"):
            future = asyncio.get_running_loop().create_future()
        for event in events[:-1]:
            self._pending.append((event, None))
        self._pending.append((events[-1], future))
        self._ingested += len(events)
        metrics.incr("service.events_ingested", len(events))
        payload: dict[str, Any] = {
            "accepted": len(events),
            "queued": len(self._pending),
        }
        if future is not None:
            report = await future
            payload["tick"] = report.to_wire()
        return Response(200, payload)

    def _locked_call(self, fn: Callable[[], Any]) -> Any:
        with self._state_lock:
            return fn()

    async def _read_locked(self, fn: Callable[[], Any]) -> Any:
        """Run a control-state read under the lock, off the loop thread.

        Payload reads walk the full assignment, so they take the same
        lock (and the same executor hop) as the applied tick rather
        than racing it or stalling the listener.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._locked_call, fn)

    async def _get_healthz(self, request: Request) -> dict[str, Any]:
        state = await self._read_locked(self.control.state_payload)
        return {
            "status": "draining" if self._draining else "ok",
            "ticks": self._ticks_run,
            "ingested": self._ingested,
            "applied": self._applied,
            "queued": len(self._pending),
            "state": state,
        }

    async def _get_assignments(self, request: Request) -> dict[str, Any]:
        result = await self._read_locked(self.control.assignments_payload)
        return cast("dict[str, Any]", result)

    async def _get_loads(self, request: Request) -> dict[str, Any]:
        result = await self._read_locked(self.control.loads_payload)
        return cast("dict[str, Any]", result)

    async def _get_metrics(self, request: Request) -> dict[str, Any]:
        registry = metrics.active()
        snapshot = registry.snapshot() if registry is not None else {}
        return {
            "ingest": {
                "ingested": self._ingested,
                "applied": self._applied,
                "queued": len(self._pending),
                "ticks": self._ticks_run,
            },
            "last_tick": (
                self.last_report.to_wire() if self.last_report else None
            ),
            "obs": snapshot,
        }

    async def _post_shutdown(self, request: Request) -> dict[str, Any]:
        self.request_shutdown()
        return {"status": "draining", "queued": len(self._pending)}
