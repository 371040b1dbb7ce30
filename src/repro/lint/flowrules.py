"""The flow-aware rules: RPL007 (async-blocking), RPL008 (pool-share),
RPL009 (exception/mutation discipline).

Unlike RPL001–RPL005, these are *project* rules: they run once per lint
invocation over the :class:`~repro.lint.callgraph.CallGraph` of every
analyzed module, after all per-file passes — a blocking solve three
calls away from a coroutine is invisible to any single file's AST.
Their diagnostics anchor in ordinary files, so the ordinary per-line
``# replint: ignore[RPL007]`` suppressions apply.

What each rule reads is declared in :mod:`repro.lint.tables`:

* RPL007 starts from every ``async def`` in
  :data:`~repro.lint.tables.ASYNC_SCOPE_PACKAGES`, walks *call* edges
  only (a function reference handed to ``run_in_executor``/``to_thread``
  is a ``ref`` edge — that hand-off is exactly the sanctioned escape
  hatch), and fires when the chain reaches a known blocking primitive
  (:data:`~repro.lint.tables.BLOCKING_CALLS`/``BLOCKING_PREFIXES``) or a
  solver entry point (:data:`~repro.lint.tables.BLOCKING_SINKS`),
  printing the full path.
* RPL008 finds callables submitted across the process-pool boundary —
  through ``map``/``submit`` on a
  :data:`~repro.lint.tables.POOL_BACKEND_CLASSES` receiver — and flags
  workers that are unpicklable (lambdas, closures, bound methods) or
  that transitively write module-level state or call live-state
  mutators (:data:`~repro.lint.tables.STATE_MUTATORS`).
* RPL009 flags ``except`` handlers that swallow (broad/bare, no
  re-raise, no restore call, no ``finally``) after the ``try`` body
  already called a state mutator — and, on the control-plane tick path
  (:data:`~repro.lint.tables.TICK_PATH_ROOTS`), *any* broad handler
  that does not re-raise.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.callgraph import CallGraph, CallSite, FunctionSummary
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import register_project
from repro.lint.tables import (
    ASYNC_SCOPE_PACKAGES,
    BLOCKING_CALLS,
    BLOCKING_PREFIXES,
    BLOCKING_SINKS,
    POOL_BACKEND_CLASSES,
    POOL_SUBMIT_METHODS,
    STATE_MUTATORS,
    TICK_PATH_ROOTS,
)

#: Reachability searches stop here; real chains are three or four deep.
_MAX_DEPTH = 20


def _anchor(graph: CallGraph, fn: FunctionSummary, line: int) -> str:
    summary = graph.modules.get(fn.module)
    return summary.path if summary is not None else fn.module


def _diag(
    graph: CallGraph,
    fn: FunctionSummary,
    line: int,
    code: str,
    message: str,
) -> Diagnostic:
    return Diagnostic(
        path=_anchor(graph, fn, line),
        line=line,
        col=1,
        code=code,
        message=message,
    )


def _blocking_external(name: str) -> bool:
    return name in BLOCKING_CALLS or name.startswith(BLOCKING_PREFIXES)


def _in_async_scope(fn: FunctionSummary) -> bool:
    return any(
        fn.module == package or fn.module.startswith(package + ".")
        for package in ASYNC_SCOPE_PACKAGES
    )


@register_project
class AsyncBlockingRule:
    """RPL007: an event-loop coroutine reaches a blocking call."""

    code = "RPL007"
    name = "async-blocking"
    summary = (
        "a call chain from an async def in the service layer reaches a "
        "blocking primitive or a solver entry point without an executor "
        "hand-off"
    )

    def check(self, graph: CallGraph) -> Iterator[Diagnostic]:
        for root in graph.functions():
            if not (root.is_async and _in_async_scope(root)):
                continue
            yield from self._check_root(graph, root)

    def _check_root(
        self, graph: CallGraph, root: FunctionSummary
    ) -> Iterator[Diagnostic]:
        reported: set[str] = set()
        # (function, chain of display names, line of the root call site)
        stack: list[tuple[FunctionSummary, tuple[str, ...], int, int]] = [
            (root, (root.qualname,), 0, 0)
        ]
        visited: set[str] = {root.dotted}
        while stack:
            fn, chain, root_line, depth = stack.pop()
            if depth > _MAX_DEPTH:
                continue
            for site in sorted(fn.calls, key=lambda s: s.line):
                if site.kind != "call":
                    continue  # refs run wherever they're handed to
                line = site.line if depth == 0 else root_line
                resolved = graph.resolve(fn, site.expr)
                name = resolved.dotted
                if name is None:
                    continue
                sink: str | None = None
                if resolved.kind == "external":
                    if _blocking_external(name) or name in BLOCKING_SINKS:
                        sink = name
                elif name in BLOCKING_SINKS:
                    sink = name
                if sink is not None:
                    if sink not in reported:
                        reported.add(sink)
                        path = " -> ".join([*chain, sink])
                        yield _diag(
                            graph,
                            root,
                            line,
                            self.code,
                            f"async '{root.qualname}' reaches blocking "
                            f"'{sink}' on the event loop ({path}); move "
                            "it off-loop via loop.run_in_executor",
                        )
                    continue
                if resolved.kind == "fn":
                    callee = resolved.function
                    assert callee is not None
                    if callee.dotted in visited:
                        continue
                    # an in-scope async callee is its own root: report
                    # the chain there once, not at every caller above it
                    if callee.is_async and _in_async_scope(callee):
                        continue
                    visited.add(callee.dotted)
                    stack.append(
                        (callee, (*chain, callee.qualname), line, depth + 1)
                    )


@register_project
class PoolShareRule:
    """RPL008: a pool-submitted worker shares mutable state."""

    code = "RPL008"
    name = "pool-share"
    summary = (
        "a callable submitted across the process-pool boundary is "
        "unpicklable or mutates shared module/ledger state"
    )

    def check(self, graph: CallGraph) -> Iterator[Diagnostic]:
        for fn in graph.functions():
            for site in fn.calls:
                if site.kind != "ref":
                    continue
                if not self._is_pool_submission(graph, fn, site):
                    continue
                yield from self._check_worker(graph, fn, site)

    def _is_pool_submission(
        self, graph: CallGraph, fn: FunctionSummary, site: CallSite
    ) -> bool:
        context = site.context
        if context is None:
            return False
        dotted = graph.resolve(fn, context).dotted
        if dotted is None:
            return False
        # .map/.submit on a receiver typed as a pool backend
        owner, _, method = dotted.rpartition(".")
        return (
            method in POOL_SUBMIT_METHODS
            and site.arg_index == 0
            and owner in POOL_BACKEND_CLASSES
        )

    def _check_worker(
        self, graph: CallGraph, fn: FunctionSummary, site: CallSite
    ) -> Iterator[Diagnostic]:
        worker_expr = site.expr
        where = f"submitted at '{site.context}'"
        if worker_expr == "<lambda>":
            yield _diag(
                graph,
                fn,
                site.line,
                self.code,
                f"lambda {where} cannot cross the process-pool boundary "
                "(unpicklable); use a module-level function",
            )
            return
        if worker_expr is None:
            return
        if worker_expr.startswith("self."):
            yield _diag(
                graph,
                fn,
                site.line,
                self.code,
                f"bound method '{worker_expr}' {where} drags its whole "
                "instance across the process-pool boundary; submit a "
                "module-level function instead",
            )
            return
        resolved = graph.resolve(fn, worker_expr)
        if resolved.kind != "fn":
            return  # an opaque runtime value: nothing to prove
        worker = resolved.function
        assert worker is not None
        root = worker_expr.split(".", 1)[0]
        if "." in worker.qualname and (
            root in fn.params
            or root in fn.local_types
            or root in fn.local_constructed
        ):
            yield _diag(
                graph,
                fn,
                site.line,
                self.code,
                f"bound method '{worker_expr}' {where} drags its whole "
                "instance across the process-pool boundary; submit a "
                "module-level function instead",
            )
            return
        if worker.has_free_closure:
            yield _diag(
                graph,
                fn,
                site.line,
                self.code,
                f"nested function '{worker.qualname}' {where} closes over "
                "enclosing state (unpicklable); hoist it to module level",
            )
            return
        path = graph.writes_module_state(worker)
        if path is not None:
            yield _diag(
                graph,
                fn,
                site.line,
                self.code,
                f"pool worker '{worker.qualname}' {where} writes "
                f"module-level state ({' -> '.join(path)}); workers run "
                "in forked interpreters, so the parent never sees the "
                "write — pass state in and return it out",
            )
            return
        yield from self._check_live_mutators(graph, fn, site, worker)

    def _check_live_mutators(
        self,
        graph: CallGraph,
        fn: FunctionSummary,
        site: CallSite,
        worker: FunctionSummary,
    ) -> Iterator[Diagnostic]:
        """A worker calling ``ledger.join(...)`` on a passed-in or
        module-level receiver mutates a *copy* of the live state — the
        classic silently-wrong pool race."""
        summary = graph.modules.get(worker.module)
        module_names = set(summary.module_names) if summary else set()
        for call in worker.calls:
            if call.kind != "call" or call.expr is None:
                continue
            receiver, _, method = call.expr.rpartition(".")
            if not receiver or method not in STATE_MUTATORS:
                continue
            head = receiver.split(".", 1)[0]
            if head in worker.local_constructed or head in worker.local_types:
                continue
            if head in worker.params or head in module_names:
                yield _diag(
                    graph,
                    fn,
                    site.line,
                    self.code,
                    f"pool worker '{worker.qualname}' submitted at "
                    f"'{site.context}' calls live-state mutator "
                    f"'{call.expr}' (line {call.line}); it runs on a "
                    "forked copy, so the mutation is lost — mutate in "
                    "the parent from returned results",
                )
                return


@register_project
class ExceptionDisciplineRule:
    """RPL009: swallowed exceptions over half-applied state."""

    code = "RPL009"
    name = "exception-discipline"
    summary = (
        "an except block swallows after the try body mutated live state "
        "(no re-raise, restore or finally), or a tick-path handler is "
        "broad"
    )

    def check(self, graph: CallGraph) -> Iterator[Diagnostic]:
        seen: set[tuple[str, int]] = set()
        for fn in graph.functions():
            for t in fn.tries:
                if not (t.broad or t.bare):
                    continue
                if t.reraises or t.restores or t.has_finally:
                    continue
                if not t.mutators:
                    continue
                key = (fn.dotted, t.line)
                if key in seen:
                    continue
                seen.add(key)
                yield _diag(
                    graph,
                    fn,
                    t.line,
                    self.code,
                    f"'{fn.qualname}' swallows "
                    f"{'bare except' if t.bare else 'a broad except'} "
                    f"after calling {', '.join(t.mutators)} in the try "
                    "body; re-raise, restore the state, or add finally",
                )
        yield from self._check_tick_paths(graph, seen)

    def _check_tick_paths(
        self, graph: CallGraph, seen: set[tuple[str, int]]
    ) -> Iterator[Diagnostic]:
        """Every broad/bare non-re-raising handler in a function the
        tick path reaches (within its own module) is a finding — the
        tick contract is fully-applied-or-raised."""
        stack: list[FunctionSummary] = []
        visited: set[str] = set()
        for root in sorted(TICK_PATH_ROOTS):
            fn = graph.function(root)
            if fn is not None and fn.dotted not in visited:
                visited.add(fn.dotted)
                stack.append(fn)
        while stack:
            fn = stack.pop()
            for t in fn.tries:
                if not (t.broad or t.bare) or t.reraises:
                    continue
                key = (fn.dotted, t.line)
                if key in seen:
                    continue
                seen.add(key)
                yield _diag(
                    graph,
                    fn,
                    t.line,
                    self.code,
                    f"broad except in '{fn.qualname}' on the control-"
                    "plane tick path can swallow a half-applied tick; "
                    "catch the specific error or re-raise after rollback",
                )
            for site in fn.calls:
                if site.kind != "call":
                    continue
                resolved = graph.resolve(fn, site.expr)
                callee = resolved.function
                if (
                    callee is not None
                    and callee.module == fn.module
                    and callee.dotted not in visited
                ):
                    visited.add(callee.dotted)
                    stack.append(callee)
