"""The declaration tables every replint rule reads from.

One module, no logic: the allowed import graph, the load-kernel
allowlist, the solver-package set and the float-returning API table all
live here so that "what does the architecture allow?" has a single
greppable answer. Rules (:mod:`repro.lint.rules`) interpret these
tables; changing policy means editing a frozenset here, not a visitor.
"""

from __future__ import annotations

#: The import-layering DAG (RPL002). Keyed by the second component of a
#: dotted ``repro.*`` module name; the value is the set of *other*
#: layers that layer's modules may import at module level (importing
#: within your own layer is always allowed). Root modules
#: (``repro.__init__``, ``repro.__main__``, ``repro.io``) are the
#: composition roots and are unrestricted; layers absent from this
#: table are likewise unchecked as import *targets*.
LAYER_DAG: dict[str, frozenset[str]] = {
    # leaves: the radio model, the observability spine and the array
    # kernels import nothing
    "radio": frozenset(),
    "obs": frozenset(),
    "vec": frozenset(),
    # the load kernel and solvers: physics only — never obs (the
    # core→obs dependency is inverted through repro.core.instrument)
    "core": frozenset({"radio", "vec"}),
    "scenarios": frozenset({"core", "radio"}),
    "net": frozenset({"core", "radio", "scenarios"}),
    "engine": frozenset({"core", "obs", "vec"}),
    "verify": frozenset({"core", "engine", "obs", "radio", "scenarios"}),
    # eval reads the net substrate's handover cost model for the
    # mobility study; net never imports eval back, so the DAG holds
    "eval": frozenset({"core", "engine", "net", "obs", "scenarios"}),
    "lint": frozenset({"obs"}),
    # the long-running controller: a top layer — it may drive the whole
    # stack below it, and nothing below may import it back
    "service": frozenset({"core", "engine", "obs", "radio", "scenarios"}),
}

#: Function-local (lazy) imports additionally allowed per *module*
#: (RPL002). The bench harness drives solvers end to end, so it may
#: reach "up" the DAG — but only inside function bodies, keeping
#: ``import repro.obs`` itself leaf-cheap.
ALLOW_LAZY: dict[str, frozenset[str]] = {
    "repro.obs.bench": frozenset({"eval", "radio", "scenarios"}),
}

#: The only modules allowed to hand-roll the per-group airtime
#: expressions (RPL001) — the legacy Definition-1 shape ``session_rate /
#: min(member rates)`` and the DMS/hybrid shape ``fsum(bits / rate for
#: ...)``: the load kernel itself and the deliberately independent
#: certificate oracle.
LOAD_KERNEL_ALLOWLIST: frozenset[str] = frozenset(
    {"repro.core.ledger", "repro.verify.certificates"}
)

#: Packages whose modules are solver/protocol hot paths and must be
#: bit-reproducible (RPL003's wall-clock and set-iteration sub-rules).
SOLVER_PACKAGES: frozenset[str] = frozenset(
    {"repro.core", "repro.engine", "repro.net", "repro.vec"}
)

#: ``random`` module attributes that do NOT touch the global shared RNG
#: (RPL003). Everything else (``random.shuffle``, ``random.random``,
#: ...) draws from interpreter-global state and is banned in ``repro.*``.
GLOBAL_RANDOM_OK: frozenset[str] = frozenset({"Random", "seed"})

#: ``time`` module attributes that read a clock (RPL003). Solver
#: packages must not call these — timing belongs to ``repro.obs``,
#: reached through the :mod:`repro.core.instrument` facade.
CLOCK_FUNCTIONS: frozenset[str] = frozenset(
    {"time", "perf_counter", "perf_counter_ns", "monotonic", "process_time"}
)

#: Known float-returning API of the load model (RPL004). Calls to these
#: methods/functions are float-typed without needing inference, so
#: comparing their result with ``==``/``!=`` is flagged.
FLOAT_RETURNING_API: frozenset[str] = frozenset(
    {
        "load_of",
        "total_load",
        "max_load",
        "load_if_joined",
        "load_if_left",
        "delta_if_joined",
        "delta_if_left",
        "link_rate",
        "transmission_cost",
        "budget_of",
        "session_rate",
        "fsum",
        # the policy airtime kernel (repro.core.ledger)
        "multicast_airtime",
        "local_ap_load",
        "dms_airtime",
        "hybrid_airtime",
        "policy_airtime",
    }
)

#: Observability classes that must only be instantiated inside
#: ``repro.obs`` (or tests); library code installs/uses them through
#: the module-level helpers (RPL005).
OBS_REGISTRY_CLASSES: frozenset[str] = frozenset(
    {"MetricsRegistry", "TraceCollector"}
)

#: Packages whose ``async def`` functions anchor the RPL007 reachability
#: search: coroutines here run on the control service's event loop, so
#: any synchronous call chain out of them that hits a blocking primitive
#: stalls every tick.
ASYNC_SCOPE_PACKAGES: frozenset[str] = frozenset({"repro.service"})

#: Known-blocking external callables (RPL007), by resolved dotted name.
#: A call chain from an event-loop coroutine that reaches one of these
#: (outside an executor hand-off) blocks the loop.
BLOCKING_CALLS: frozenset[str] = frozenset(
    {
        "time.sleep",
        "urllib.request.urlopen",
        "socket.create_connection",
        "socket.getaddrinfo",
        "requests.get",
        "requests.post",
        "input",
    }
)

#: Dotted-name prefixes treated as blocking wholesale (RPL007):
#: everything in ``subprocess`` forks and waits, and synchronous socket
#: method calls block the loop.
BLOCKING_PREFIXES: tuple[str, ...] = ("subprocess.",)

#: Intra-repo *blocking sinks* (RPL007): solver entry points and other
#: heavy synchronous work. Reaching one of these from a coroutine is a
#: finding in itself — the search stops here and prints the chain, so
#: the diagnostic names the solve rather than some leaf loop inside it.
BLOCKING_SINKS: frozenset[str] = frozenset(
    {
        "repro.service.control.ControlService.apply_events",
        "repro.service.control.ControlService.apply_plan",
        "repro.service.control.ControlService.batch_solution",
        "repro.engine.engine.ShardedEngine.solve",
        "repro.core.mnu.solve_mnu",
        "repro.core.bla.solve_bla",
        "repro.core.mla.solve_mla",
        "repro.core.distributed.run_distributed",
        "repro.obs.bench.run_bench",
    }
)

#: Callables that hand work to an executor (RPL007): a function
#: *reference* passed to one of these runs off the event loop, so the
#: reachability search never traverses such edges.
EXECUTOR_SHIELDS: frozenset[str] = frozenset(
    {"run_in_executor", "to_thread"}
)

#: Classes whose ``map``/``submit`` methods ship their callable to
#: another process (RPL008). Matching is on the receiver's statically
#: inferred class (constructor assignment or annotation).
POOL_BACKEND_CLASSES: frozenset[str] = frozenset(
    {
        "ProcessPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
    }
)

#: Method names on :data:`POOL_BACKEND_CLASSES` receivers that carry a
#: callable across the pool boundary (RPL008) — the callable is their
#: first positional argument.
POOL_SUBMIT_METHODS: frozenset[str] = frozenset({"map", "submit"})

#: Ledger/engine state-transition methods (RPL008's shared-state check
#: and RPL009's mutation-before-swallow check). A call to one of these
#: mutates live association state: half-applying it and swallowing the
#: exception leaves the controller inconsistent, and calling it from a
#: pool worker races the parent's copy.
STATE_MUTATORS: frozenset[str] = frozenset(
    {
        "join",
        "leave",
        "move",
        "swap_problem",
        "apply_events",
        "apply_plan",
    }
)

#: Substrings that mark a handler as *restoring* state (RPL009): a broad
#: handler that rolls back before swallowing has discharged its duty.
RESTORE_NAME_HINTS: frozenset[str] = frozenset(
    {"rollback", "restore", "revert", "reset"}
)

#: Entry points of the control service's tick path (RPL009): every
#: function reachable from these must use typed ``except`` handlers —
#: a broad handler that does not re-raise can swallow a half-applied
#: tick.
TICK_PATH_ROOTS: frozenset[str] = frozenset(
    {
        "repro.service.control.ControlService.apply_events",
        "repro.service.control.ControlService.apply_plan",
    }
)

#: Directory names the recursive walker never descends into. ``fixtures``
#: keeps the lint test corpus (deliberately-bad files) out of CI runs
#: over ``tests/``; direct file arguments are always linted.
SKIP_DIRS: frozenset[str] = frozenset(
    {
        "__pycache__",
        ".git",
        ".hg",
        ".mypy_cache",
        ".pytest_cache",
        ".ruff_cache",
        ".venv",
        "build",
        "dist",
        "fixtures",
        "node_modules",
    }
)
