"""Instrumentation seam between ``core`` and the observability layer.

The solvers in :mod:`repro.core` emit counters, gauges and trace spans —
but ``core`` sits at the bottom of the import-layering DAG and must not
import :mod:`repro.obs` (replint rule RPL002). This module is the
dependency inversion that squares those two facts: core calls the
module-level hooks here, and the ``repro`` package root installs the
obs-backed :class:`InstrumentationBackend` at import time. Until (or
unless) a backend is installed every hook is a cheap no-op — one
attribute load and a ``None`` check — so importing a ``repro.core``
submodule in isolation stays side-effect free.

The hook surface deliberately mirrors the subset of
:mod:`repro.obs.counters` / :mod:`repro.obs.trace` the solvers use:
``enabled``/``incr``/``gauge`` for metrics and ``span`` for tracing.
"""

from __future__ import annotations

import os
from typing import Any, ContextManager, Protocol

#: Environment switch for the runtime sanitizer mode: when set (to
#: anything but ``0``/empty), cheap invariant hooks arm across the stack
#: — ledger recompute-on-mutate, tick-atomicity checks in the control
#: service, the event-loop stall watchdog. CI runs the service and
#: engine suites under it; it is the dynamic complement of the RPL007–
#: RPL009 static rules.
SANITIZE_ENV = "REPRO_SANITIZE"


class InstrumentationBackend(Protocol):
    """What the obs layer plugs into :func:`install_backend`."""

    def metrics_enabled(self) -> bool:
        """True when counter/gauge writes will actually be recorded."""
        ...

    def incr(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        ...

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        ...

    def span(self, name: str, **attrs: Any) -> ContextManager[Any]:
        """A context manager tracing the enclosed block."""
        ...


class _NullSpan:
    """Shared do-nothing span used while no backend is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()

_backend: InstrumentationBackend | None = None


def install_backend(
    backend: InstrumentationBackend | None,
) -> InstrumentationBackend | None:
    """Install ``backend`` as the instrumentation sink; returns the
    previous backend (``None`` uninstalls)."""
    global _backend
    previous = _backend
    _backend = backend
    return previous


def enabled() -> bool:
    """True when metric writes are recorded (backend present and live).

    Hot paths guard batches of ``incr``/``gauge`` calls behind this so
    the disabled case costs one call per solve, not one per counter.
    """
    backend = _backend
    return backend is not None and backend.metrics_enabled()


def incr(name: str, amount: float = 1) -> None:
    """Add ``amount`` to counter ``name`` (no-op without a backend)."""
    backend = _backend
    if backend is not None:
        backend.incr(name, amount)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op without a backend)."""
    backend = _backend
    if backend is not None:
        backend.gauge(name, value)


def sanitize_enabled() -> bool:
    """True when the runtime sanitizer mode is on (``REPRO_SANITIZE=1``).

    Read per call, not cached at import: tests flip the environment with
    ``monkeypatch.setenv`` and the hooks are all off the hot path.
    """
    return os.environ.get(SANITIZE_ENV, "") not in ("", "0")


def span(name: str, **attrs: Any) -> ContextManager[Any]:
    """A context manager timing the enclosed block as span ``name``
    (a shared stateless no-op without a backend)."""
    backend = _backend
    if backend is None:
        return _NULL_SPAN
    return backend.span(name, **attrs)
