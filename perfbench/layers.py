"""Per-layer timing by wrapping the program's public calls.

Only the traced run installs these wrappers; the untraced run executes
the program unmodified. Each target is a ``(layer, owner, attribute)``
triple: the wrapper replaces ``owner.attribute`` where the caller looks
it up, so a function imported by name into another module is patched
in that module (``repro.core.mla.build_family``, not
``repro.core.candidates.build_family``).

Every wrapped call records its inclusive wall time under its layer
name. Calls nest per thread: a call's duration is also credited to the
nearest enclosing wrapped call as covered child time, so a root's
unattributed time is its duration minus that of its direct children.
A layer re-entered while already on the stack is timed once, at its
outermost call.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

Target = tuple[str, Any, str]


class LayerTracer:
    """Inclusive time, call counts and child coverage per layer."""

    def __init__(self) -> None:
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.child_s: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if any(frame[0] == layer for frame in stack):
                return fn(*args, **kwargs)
            frame: list[Any] = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    self.total_s[layer] += elapsed
                    self.calls[layer] += 1
                    self.child_s[layer] += frame[1]

        return timed

    def install(self, targets: Iterable[Target]) -> None:
        for layer, owner, attribute in targets:
            original = owner.__dict__[attribute]
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(layer, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def per_op_ms(self, layer: str, n_ops: int) -> float:
        """Mean time per operation spent in ``layer``, in ms."""
        return self.total_s.get(layer, 0.0) * 1e3 / n_ops

    def unattributed_share(self, root: str) -> float:
        """Share of ``root``'s time that no wrapped child call covers."""
        total = self.total_s.get(root, 0.0)
        if total <= 0.0:
            return 0.0
        return (total - self.child_s[root]) / total


def service_targets() -> list[Target]:
    """The calls timed on the ``churn-*`` workloads."""
    from repro.core import mla
    from repro.core.ledger import LoadLedger
    from repro.core.problem import MulticastAssociationProblem
    from repro.engine import engine, executor
    from repro.engine.engine import ShardedEngine
    from repro.service.control import ControlService

    return [
        ("service.tick", ControlService, "apply_events"),
        ("service.read", ControlService, "assignments_payload"),
        ("engine.solve", ShardedEngine, "solve"),
        ("engine.swap", ShardedEngine, "swap_problem"),
        ("engine.plan_shards", engine, "plan_shards"),
        ("engine.fingerprint", engine, "shard_fingerprint"),
        ("engine.stitch", engine, "stitch_mla"),
        # Shards under the vector-size threshold take the scalar twins;
        # both count towards the same layer.
        ("core.candidates", mla, "build_family"),
        ("core.candidates", mla, "build_candidates"),
        ("core.setcover", mla, "greedy_set_cover_flat"),
        ("core.setcover", mla, "greedy_set_cover"),
        ("core.isolated_users", MulticastAssociationProblem, "isolated_users"),
        ("core.materialize", executor, "from_selected_sets"),
        ("core.materialize", mla, "from_selected_sets"),
        ("core.ledger_build", LoadLedger, "__init__"),
    ]


def plan_targets() -> list[Target]:
    """The calls timed on the ``plan-balance`` workload."""
    from repro.core import bla
    from repro.core.ledger import LoadLedger
    from repro.core.problem import MulticastAssociationProblem
    from repro.eval import metrics

    return [
        ("eval.solve", metrics, "run_algorithm"),
        ("core.candidates", bla, "build_family"),
        ("core.mcg", bla, "greedy_mcg_flat"),
        ("core.rebalance", bla, "rebalance_cover"),
        ("core.isolated_users", MulticastAssociationProblem, "isolated_users"),
        ("core.ledger_build", LoadLedger, "__init__"),
    ]
