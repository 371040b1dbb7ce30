"""replint — the repository's AST-based architectural invariant checker.

``ruff`` and ``mypy`` police style and types; *replint* polices the
invariants that make this reproduction trustworthy and that no generic
tool can express:

* the Definition-1 load model has exactly one non-oracle implementation
  (:mod:`repro.core.ledger`) — RPL001;
* the package layering DAG (``core`` never imports ``obs``, ``obs``
  never imports solvers, ...) — RPL002;
* solver determinism hygiene (seeded RNGs only, no wall-clock reads in
  solver packages, no iteration over bare sets) — RPL003;
* no float equality comparisons in library code — RPL004;
* observability goes through the registry helpers, never ad-hoc
  globals — RPL005.

On top of the per-file rules sit three *flow* rules, run over the
project-wide call graph (:mod:`repro.lint.callgraph`):

* no call chain from an event-loop coroutine to a blocking primitive or
  a solver entry point outside an executor hand-off — RPL007;
* nothing unpicklable or state-mutating crosses the process-pool
  boundary — RPL008;
* no swallowed exception over half-applied ledger/engine state, and no
  broad ``except`` on the control-plane tick path — RPL009.

Run it as ``python -m repro lint [paths...]`` (CI runs it over ``src``,
``tests`` and ``benchmarks``, through the incremental cache), or
programmatically via :func:`lint_paths` / :func:`lint_file`. Violations
are suppressed line by line with ``# replint: ignore[RPL00x]``;
suppressions that stop matching anything are themselves reported
(RPL006), so the ignore inventory can only shrink. The rule table lives in
``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import LintReport, lint_file, lint_paths
from repro.lint.registry import all_project_rules, all_rules, get_rule

__all__ = [
    "Diagnostic",
    "LintReport",
    "all_project_rules",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
]
