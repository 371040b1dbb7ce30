"""The replint engine: discovery, per-file analysis, flow pass, resolve.

A lint run is two phases. **Per file** (cacheable):
parse source → run every per-file rule (RPL001–RPL005) → parse the
suppression table → build the module's call-graph summary. **Per
project** (always recomputed — it is cheap and inherently global): feed
every module summary to the flow rules (RPL007–RPL009), then *resolve*:
apply each file's ``# replint: ignore[...]`` suppressions to both its
per-file and flow diagnostics, and report suppressions that covered
nothing as RPL006. Resolution runs after the flow pass on purpose — a
suppression of RPL007 must count as used.

The per-file phase is incremental: with a cache path set, files whose
content hash is unchanged replay their stored analysis (diagnostics
*pre*-suppression plus the module summary), so a warm run re-parses
nothing yet still runs the full flow pass — byte-identical output,
several times faster. Misses are analyzed serially, in discovery order.

Directory arguments are walked recursively, skipping
:data:`~repro.lint.tables.SKIP_DIRS` (notably ``fixtures``, so the
deliberately-bad lint test corpus never fails a CI run over ``tests/``);
file arguments are always linted. Module names derive from the path's
last ``repro`` component (``src/repro/core/mnu.py`` → ``repro.core.mnu``);
files outside a ``repro`` tree get ``module=None`` and only the
scope-free checks. Tests pass ``module_name`` explicitly to lint
fixtures *as if* they lived at a given import path.

The run is itself instrumented: when a metrics registry is installed
(:func:`repro.obs.counters.install`), ``replint.files_scanned``,
``replint.violations``, ``replint.suppressions_used``,
``replint.cache_hits`` and ``replint.cache_misses`` accumulate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.lint.cache import content_hash, load_cache, save_cache
from repro.lint.callgraph import CallGraph, ModuleSummary, summarize_module
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import ModuleContext, all_project_rules, all_rules
from repro.lint.suppressions import (
    Suppression,
    SuppressionTable,
    parse_suppressions,
)
from repro.lint.tables import SKIP_DIRS
from repro.obs import counters

UNUSED_SUPPRESSION = "RPL006"


@dataclass(frozen=True)
class LintError:
    """A file replint could not check at all (unreadable / unparsable)."""

    path: str
    message: str

    def format(self) -> str:
        return f"{self.path}: error: {self.message}"


@dataclass
class LintReport:
    """The outcome of one lint run over a set of paths."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    errors: list[LintError] = field(default_factory=list)
    files_scanned: int = 0
    suppressions_used: int = 0
    #: Cache statistics — deliberately absent from :meth:`to_dict`, so a
    #: warm run's machine output is byte-identical to a cold run's.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return not self.diagnostics and not self.errors

    @property
    def exit_code(self) -> int:
        """0 clean, 1 violations, 2 operational errors."""
        if self.errors:
            return 2
        return 1 if self.diagnostics else 0

    def counts(self) -> dict[str, int]:
        """Violations per rule code."""
        by_code: dict[str, int] = {}
        for diagnostic in self.diagnostics:
            by_code[diagnostic.code] = by_code.get(diagnostic.code, 0) + 1
        return dict(sorted(by_code.items()))

    def merge(self, other: "LintReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.errors.extend(other.errors)
        self.files_scanned += other.files_scanned
        self.suppressions_used += other.suppressions_used
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "suppressions_used": self.suppressions_used,
            "counts": self.counts(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "errors": [
                {"path": e.path, "message": e.message} for e in self.errors
            ],
        }


def module_name_for(path: Path) -> str | None:
    """Dotted module name from the last ``repro`` path component."""
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    dotted = [part for part in parts[index:]]
    dotted[-1] = Path(dotted[-1]).stem
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


# -- phase 1: per-file analysis ---------------------------------------------


@dataclass
class FileAnalysis:
    """One file's cacheable analysis: everything *before* suppression."""

    path: str
    module: str | None
    sha256: str
    #: Per-file rule findings, pre-suppression.
    diagnostics: list[Diagnostic] = field(default_factory=list)
    errors: list[LintError] = field(default_factory=list)
    #: ``(line, sorted codes)`` pairs from the suppression comments.
    suppressions: list[tuple[int, list[str]]] = field(default_factory=list)
    malformed: list[int] = field(default_factory=list)
    #: The flow-pass input; ``None`` for unparsable or non-``repro`` files.
    summary: ModuleSummary | None = None

    def suppression_table(self) -> SuppressionTable:
        table = SuppressionTable()
        for line, codes in self.suppressions:
            table.by_line[line] = Suppression(line, frozenset(codes))
        table.malformed = list(self.malformed)
        return table

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "module": self.module,
            "sha256": self.sha256,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "errors": [
                {"path": e.path, "message": e.message} for e in self.errors
            ],
            "suppressions": [[line, codes] for line, codes in self.suppressions],
            "malformed": self.malformed,
            "summary": None if self.summary is None else self.summary.to_dict(),
        }

    @classmethod
    def from_dict(cls, blob: dict[str, Any]) -> "FileAnalysis":
        return cls(
            path=blob["path"],
            module=blob["module"],
            sha256=blob["sha256"],
            diagnostics=[
                Diagnostic(
                    path=d["path"],
                    line=d["line"],
                    col=d["col"],
                    code=d["code"],
                    message=d["message"],
                )
                for d in blob["diagnostics"]
            ],
            errors=[
                LintError(e["path"], e["message"]) for e in blob["errors"]
            ],
            suppressions=[
                (int(line), list(codes))
                for line, codes in blob["suppressions"]
            ],
            malformed=list(blob["malformed"]),
            summary=(
                None
                if blob["summary"] is None
                else ModuleSummary.from_dict(blob["summary"])
            ),
        )


def analyze_source(
    source: str, path: str, module_name: str | None, sha256: str = ""
) -> FileAnalysis:
    """Run the per-file phase over one in-memory source blob."""
    analysis = FileAnalysis(path=path, module=module_name, sha256=sha256)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        analysis.errors.append(
            LintError(path, f"syntax error: {error.msg} (line {error.lineno})")
        )
        return analysis
    table = parse_suppressions(source)
    analysis.suppressions = [
        (line, sorted(suppression.codes))
        for line, suppression in sorted(table.by_line.items())
    ]
    analysis.malformed = list(table.malformed)
    ctx = ModuleContext(
        path=path, module=module_name, tree=tree, source=source
    )
    for rule in all_rules():
        analysis.diagnostics.extend(rule.check(ctx))
    analysis.diagnostics.sort()
    if module_name is not None:
        analysis.summary = summarize_module(tree, module_name, path)
    return analysis


# -- phase 2: flow pass + resolve -------------------------------------------


def run_project_rules(
    summaries: dict[str, ModuleSummary],
) -> list[Diagnostic]:
    """Run every flow rule over the call graph of ``summaries``."""
    graph = CallGraph(summaries)
    flow: list[Diagnostic] = []
    for rule in all_project_rules():
        flow.extend(rule.check(graph))
    return flow


def _resolve_report(
    analyses: Sequence[FileAnalysis], flow: Sequence[Diagnostic]
) -> LintReport:
    """Apply suppressions to per-file + flow diagnostics; emit RPL006."""
    flow_by_path: dict[str, list[Diagnostic]] = {}
    for diagnostic in flow:
        flow_by_path.setdefault(diagnostic.path, []).append(diagnostic)
    report = LintReport()
    for analysis in analyses:
        report.files_scanned += 1
        report.errors.extend(analysis.errors)
        table = analysis.suppression_table()
        kept: list[Diagnostic] = []
        candidates = [
            *analysis.diagnostics,
            *flow_by_path.pop(analysis.path, []),
        ]
        for diagnostic in candidates:
            if table.suppresses(diagnostic.line, diagnostic.code):
                report.suppressions_used += 1
            else:
                kept.append(diagnostic)
        for line, code in table.unused():
            kept.append(
                Diagnostic(
                    path=analysis.path,
                    line=line,
                    col=1,
                    code=UNUSED_SUPPRESSION,
                    message=(
                        f"unused suppression for {code}: the line no longer "
                        "triggers it — delete the ignore comment"
                    ),
                )
            )
        for line in table.malformed:
            kept.append(
                Diagnostic(
                    path=analysis.path,
                    line=line,
                    col=1,
                    code=UNUSED_SUPPRESSION,
                    message=(
                        "malformed replint comment; the syntax is "
                        "'# replint: ignore[RPL00x]'"
                    ),
                )
            )
        report.diagnostics.extend(sorted(kept))
    # flow diagnostics can only anchor in analyzed files, but be loud,
    # not silent, if that invariant ever breaks
    for leftovers in flow_by_path.values():
        report.diagnostics.extend(sorted(leftovers))
    return report


# -- public entry points -----------------------------------------------------


def lint_source(
    source: str, path: str, module_name: str | None
) -> LintReport:
    """Lint one in-memory source blob (the fixture tests' entry point).

    The flow rules run over this file's one-module graph, so intra-file
    chains (an async tick loop calling a blocking sleep three frames
    down) fire even in single-file mode.
    """
    analysis = analyze_source(source, path, module_name)
    flow: list[Diagnostic] = []
    if analysis.summary is not None and analysis.summary.module:
        flow = run_project_rules(
            {analysis.summary.module: analysis.summary}
        )
    return _resolve_report([analysis], flow)


def lint_file(path: Path, module_name: str | None = None) -> LintReport:
    """Lint one file; ``module_name`` overrides path-based derivation."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as error:
        report = LintReport()
        report.errors.append(LintError(str(path), str(error)))
        return report
    if module_name is None:
        module_name = module_name_for(path)
    return lint_source(source, str(path), module_name)


def iter_python_files(root: Path) -> Iterable[Path]:
    """Every ``.py`` under ``root``, skipping ``SKIP_DIRS`` directories."""
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if any(part in SKIP_DIRS for part in relative.parts[:-1]):
            continue
        yield path


def lint_paths(
    paths: Sequence[str | Path],
    *,
    cache_path: str | Path | None = None,
) -> LintReport:
    """Lint files and directory trees; the CLI's entry point.

    ``cache_path`` turns on the incremental cache (created on first
    use).
    """
    report = LintReport()

    # discovery (deterministic: roots in argument order, sorted walks)
    targets: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            targets.extend(iter_python_files(path))
        elif path.is_file():
            targets.append(path)
        else:
            report.errors.append(LintError(str(path), "no such file"))

    cache_file = None if cache_path is None else Path(cache_path)
    cached = load_cache(cache_file) if cache_file is not None else {}

    analyses: dict[str, FileAnalysis] = {}
    order: list[str] = []
    misses: list[tuple[str, str, str | None, str]] = []
    for path in targets:
        key = str(path)
        if key in analyses:
            continue  # the same file listed twice is linted once
        try:
            data = path.read_bytes()
        except OSError as error:
            report.errors.append(LintError(key, str(error)))
            continue
        order.append(key)
        sha = content_hash(data)
        entry = cached.get(key)
        if (
            isinstance(entry, dict)
            and entry.get("sha256") == sha
            and entry.get("path") == key
        ):
            try:
                analyses[key] = FileAnalysis.from_dict(entry)
                report.cache_hits += 1
                continue
            except (KeyError, TypeError, ValueError):
                pass  # schema drift: fall through to re-analysis
        report.cache_misses += 1
        misses.append(
            (
                data.decode("utf-8", errors="replace"),
                key,
                module_name_for(path),
                sha,
            )
        )

    for payload in misses:
        analyses[payload[1]] = analyze_source(*payload)

    if cache_file is not None:
        # merge into the on-disk entries so runs over different roots
        # (``lint src`` then ``lint tests``) share one warm cache
        merged = dict(cached)
        for key in order:
            merged[key] = analyses[key].to_dict()
        if len(merged) > 512:
            merged = {
                k: v
                for k, v in merged.items()
                if k in analyses or Path(k).exists()
            }
        save_cache(cache_file, merged)

    summaries: dict[str, ModuleSummary] = {}
    for key in order:
        summary = analyses[key].summary
        if summary is not None and summary.module:
            summaries[summary.module] = summary
    flow = run_project_rules(summaries)

    resolved = _resolve_report([analyses[key] for key in order], flow)
    report.merge(resolved)
    counters.incr("replint.files_scanned", report.files_scanned)
    counters.incr("replint.violations", len(report.diagnostics))
    counters.incr("replint.suppressions_used", report.suppressions_used)
    counters.incr("replint.cache_hits", report.cache_hits)
    counters.incr("replint.cache_misses", report.cache_misses)
    return report
