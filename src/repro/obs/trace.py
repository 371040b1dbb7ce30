"""Nestable spans with a thread-safe in-memory collector and JSON export.

The tracing layer is deliberately tiny and dependency-free: a *span* is a
named, attributed interval of wall/CPU time; spans nest (per thread) and
close in LIFO order; a :class:`TraceCollector` accumulates the closed
:class:`SpanRecord` entries under a lock so concurrent solver threads can
share one collector.

Everything is **off by default**: :func:`span` returns a stateless no-op
context manager unless a collector has been installed with
:func:`install`, so instrumented hot paths pay one function call and
nothing else. Installing a collector never changes solver *behavior* —
instrumentation only reads, times and counts (the
``tests/obs/test_noop_equivalence.py`` suite pins this).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

TRACE_KIND = "repro-trace"
TRACE_VERSION = 1


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One closed span.

    ``index`` is the collector-wide open order (0, 1, 2, ...); ``parent``
    is the index of the enclosing span on the same thread (``None`` at the
    root); ``depth`` is the nesting level (0 = root). Records are stored
    in *close* order, so a parent appears after its children.
    """

    name: str
    index: int
    parent: int | None
    depth: int
    thread: int
    wall_s: float
    cpu_s: float
    status: str = "ok"
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "thread": self.thread,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanRecord":
        return cls(
            name=data["name"],
            index=int(data["index"]),
            parent=None if data["parent"] is None else int(data["parent"]),
            depth=int(data["depth"]),
            thread=int(data["thread"]),
            wall_s=float(data["wall_s"]),
            cpu_s=float(data["cpu_s"]),
            status=str(data["status"]),
            attrs=dict(data.get("attrs", {})),
        )


class TraceCollector:
    """Thread-safe accumulator of closed spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._local = threading.local()
        self._n_opened = 0

    # -- span bookkeeping (called by _Span) ------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _open(self) -> tuple[int, int | None, int]:
        """Reserve an index; returns ``(index, parent, depth)``."""
        stack = self._stack()
        with self._lock:
            index = self._n_opened
            self._n_opened += 1
        parent = stack[-1] if stack else None
        depth = len(stack)
        stack.append(index)
        return index, parent, depth

    def _close(self, record: SpanRecord) -> None:
        stack = self._stack()
        if stack and stack[-1] == record.index:
            stack.pop()
        else:  # pragma: no cover - defensive against misuse
            try:
                stack.remove(record.index)
            except ValueError:
                pass
        with self._lock:
            self._records.append(record)

    # -- reading ---------------------------------------------------------

    def records(self) -> tuple[SpanRecord, ...]:
        """Every closed span, in close order."""
        with self._lock:
            return tuple(self._records)

    def spans(self, name: str | None = None) -> tuple[SpanRecord, ...]:
        """Closed spans, optionally filtered by exact name."""
        records = self.records()
        if name is None:
            return records
        return tuple(r for r in records if r.name == name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self.records())

    def clear(self) -> None:
        """Drop all records (open-span bookkeeping is unaffected)."""
        with self._lock:
            self._records.clear()

    # -- export / import -------------------------------------------------

    def export(self) -> dict:
        """A JSON-able snapshot of every closed span."""
        return {
            "kind": TRACE_KIND,
            "version": TRACE_VERSION,
            "spans": [r.to_dict() for r in self.records()],
        }

    @classmethod
    def from_export(cls, blob: Mapping[str, Any]) -> "TraceCollector":
        """Rebuild a collector from an :meth:`export` blob."""
        if blob.get("kind") != TRACE_KIND:
            raise ValueError(f"not a {TRACE_KIND} document: {blob.get('kind')!r}")
        if blob.get("version") != TRACE_VERSION:
            raise ValueError(f"unsupported trace version {blob.get('version')!r}")
        collector = cls()
        collector._records = [SpanRecord.from_dict(s) for s in blob.get("spans", [])]
        collector._n_opened = 1 + max(
            (r.index for r in collector._records), default=-1
        )
        return collector


# -- module-level switch -----------------------------------------------------

_collector: TraceCollector | None = None


def install(collector: TraceCollector | None = None) -> TraceCollector | None:
    """Install ``collector`` (a fresh one when omitted) as the active
    collector and return it. ``install(None)`` is explicit-off only when
    passed explicitly — use :func:`uninstall` for clarity."""
    global _collector
    if collector is None:
        collector = TraceCollector()
    _collector = collector
    return collector


def uninstall() -> TraceCollector | None:
    """Remove the active collector (returning it); spans become no-ops."""
    global _collector
    previous = _collector
    _collector = None
    return previous


def _set_active(collector: TraceCollector | None) -> None:
    """Set the active collector directly (``None`` disables). Used by
    save/restore code paths such as :func:`repro.obs.collecting`."""
    global _collector
    _collector = collector


def active() -> TraceCollector | None:
    """The installed collector, or ``None`` when tracing is off."""
    return _collector


def enabled() -> bool:
    """True when a collector is installed (spans actually record)."""
    return _collector is not None


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    record = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: times the enclosed block and records on exit."""

    __slots__ = (
        "_collector",
        "_name",
        "_attrs",
        "_index",
        "_parent",
        "_depth",
        "_start_wall",
        "_start_cpu",
        "record",
    )

    def __init__(
        self, collector: TraceCollector, name: str, attrs: dict[str, Any]
    ) -> None:
        self._collector = collector
        self._name = name
        self._attrs = attrs
        self.record: SpanRecord | None = None

    def __enter__(self) -> "_Span":
        self._index, self._parent, self._depth = self._collector._open()
        self._start_wall = time.perf_counter()
        self._start_cpu = time.thread_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall_s = time.perf_counter() - self._start_wall
        cpu_s = time.thread_time() - self._start_cpu
        self.record = SpanRecord(
            name=self._name,
            index=self._index,
            parent=self._parent,
            depth=self._depth,
            thread=threading.get_ident(),
            wall_s=wall_s,
            cpu_s=cpu_s,
            status="ok" if exc_type is None else "error",
            attrs=self._attrs,
        )
        self._collector._close(self.record)
        return False  # never swallow the exception


def span(name: str, **attrs: Any):
    """A context manager timing the enclosed block as span ``name``.

    No-op (a shared stateless singleton) unless a collector is installed,
    so call sites in hot paths cost one function call when tracing is off.
    """
    collector = _collector
    if collector is None:
        return _NULL_SPAN
    return _Span(collector, name, attrs)


class timed:
    """Like :func:`span`, but *always* measures.

    ``timed`` is the single timing source for code that needs the elapsed
    time itself (``AlgorithmResult.runtime_s``, the bench harness): after
    the block, ``.wall_s`` / ``.cpu_s`` hold the measured durations. When
    a collector is installed the block is additionally recorded as a span
    and the reported times are *exactly* the recorded span's (``.record``
    then holds the :class:`SpanRecord`); otherwise ``.record`` is ``None``
    and the times come from a local ``perf_counter``/``thread_time`` pair.
    """

    __slots__ = ("_span", "_start_wall", "_start_cpu", "wall_s", "cpu_s", "record")

    def __init__(self, name: str, **attrs: Any) -> None:
        self._span = span(name, **attrs)
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.record: SpanRecord | None = None

    def __enter__(self) -> "timed":
        self._start_wall = time.perf_counter()
        self._start_cpu = time.thread_time()
        self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.__exit__(exc_type, exc, tb)
        record = self._span.record
        if record is not None:
            self.wall_s = record.wall_s
            self.cpu_s = record.cpu_s
            self.record = record
        else:
            self.wall_s = time.perf_counter() - self._start_wall
            self.cpu_s = time.thread_time() - self._start_cpu
        return False
