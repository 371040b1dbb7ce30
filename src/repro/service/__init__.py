"""Persistent association control: the long-running service layer.

Everything below this package is batch — build a problem, solve, exit —
while the operating regime the paper targets is *continuous churn*:
users joining and leaving multicast groups, switching streams, and
streams changing rate, at WLAN scale. :mod:`repro.service` turns the
sharded engine into exactly that kind of controller:

* :mod:`repro.service.events` — the typed control-plane event model
  (``join`` / ``leave`` / ``move`` / ``rate-change`` / ``set-policy``),
  JSON parsing and
  validation, and per-tick coalescing (last writer wins per user, so a
  join-then-leave inside one tick collapses to nothing).
* :mod:`repro.service.control` — :class:`ControlService`, the
  synchronous heart: applies one coalesced tick to the membership /
  session / rate state and drives an incremental re-solve through
  :class:`~repro.engine.ShardedEngine` (fingerprint cache: clean shards
  are never re-solved).
* :mod:`repro.service.loop` — :class:`AssociationService`, the asyncio
  wrapper: an ingest queue, a tick scheduler (configurable interval and
  max batch), a JSON-over-HTTP control surface (``GET /assignments``,
  ``/loads``, ``/metrics``, ``/healthz``; ``POST /events``,
  ``/shutdown``) and graceful drain-and-shutdown on SIGTERM.
* :mod:`repro.service.driver` — the seeded synthetic churn driver:
  deterministic event-stream generation and an HTTP replayer for load
  tests and the bench harness.
* :mod:`repro.service.bench` — ``python -m repro bench --service``:
  sustained events/sec and p50/p95 tick re-solve latency, written as a
  ``BENCH_service.json`` document gated like ``BENCH_obs.json``.

Run one with ``python -m repro serve`` (see ``--help`` for the scenario
bootstrap, tick, and algorithm knobs); the architecture is documented in
``docs/service.md``.
"""

from __future__ import annotations

from repro.service.control import ControlService, TickReport
from repro.service.driver import (
    batches_bytes,
    compile_motion_trace,
    generate_event_stream,
    generate_mobility_batches,
    replay,
    stream_bytes,
)
from repro.service.events import (
    Event,
    EventError,
    TickPlan,
    coalesce,
    parse_event,
    parse_events,
)
from repro.service.loop import AssociationService, ServiceConfig

__all__ = [
    "AssociationService",
    "ControlService",
    "Event",
    "EventError",
    "ServiceConfig",
    "TickPlan",
    "TickReport",
    "batches_bytes",
    "coalesce",
    "compile_motion_trace",
    "generate_event_stream",
    "generate_mobility_batches",
    "parse_event",
    "parse_events",
    "replay",
    "stream_bytes",
]
