"""``python -m repro lint`` — the replint command line.

    python -m repro lint                  # lints src/ (incremental)
    python -m repro lint src tests benchmarks
    python -m repro lint --format json path/to/file.py
    python -m repro lint --format sarif --out replint.sarif src

The incremental cache (``.replint-cache.json``, gitignored) is on by
default and makes warm runs skip re-analyzing unchanged files; timing
and cache statistics go to *stderr*, so machine output on stdout is
byte-identical warm or cold.

Exit codes: 0 clean, 1 violations found, 2 operational error (missing
path, unparsable file).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.lint.cache import DEFAULT_CACHE_NAME
from repro.lint.engine import LintReport, lint_paths
from repro.lint.registry import all_project_rules, all_rules


def render_human(report: LintReport) -> str:
    """Editor-clickable ``path:line:col: CODE message`` lines + summary."""
    lines = [error.format() for error in report.errors]
    lines += [diagnostic.format() for diagnostic in report.diagnostics]
    counts = report.counts()
    summary = (
        f"replint: {report.files_scanned} file(s) scanned, "
        f"{len(report.diagnostics)} violation(s)"
    )
    if counts:
        summary += (
            " ("
            + ", ".join(f"{code}: {n}" for code, n in counts.items())
            + ")"
        )
    if report.suppressions_used:
        summary += f", {report.suppressions_used} suppressed"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "replint: AST- and call-graph-based architectural invariant "
            "checker"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["human", "json", "sarif"],
        default="human",
        dest="output_format",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help=(
            "additionally write the report to FILE (SARIF when FILE ends "
            "in .sarif, else the --format rendering)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache for this run",
    )
    parser.add_argument(
        "--cache-file",
        metavar="FILE",
        default=DEFAULT_CACHE_NAME,
        help=f"incremental cache path (default: {DEFAULT_CACHE_NAME})",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _render(report: LintReport, output_format: str) -> str:
    if output_format == "json":
        return render_json(report)
    if output_format == "sarif":
        from repro.lint.sarif import render_sarif

        return render_sarif(report)
    return render_human(report)


def run_lint(
    paths: Sequence[str],
    output_format: str = "human",
    *,
    cache_file: str | None = DEFAULT_CACHE_NAME,
    out: str | None = None,
) -> int:
    """Lint ``paths`` and print a report; returns the exit code."""
    started = time.perf_counter()
    report = lint_paths(paths, cache_path=cache_file)
    elapsed = time.perf_counter() - started
    print(
        f"replint: analyzed {report.cache_misses} file(s), "
        f"{report.cache_hits} cached, {elapsed:.2f}s",
        file=sys.stderr,
    )
    print(_render(report, output_format))
    if out is not None:
        out_format = "sarif" if out.endswith(".sarif") else output_format
        Path(out).write_text(_render(report, out_format) + "\n")
    return report.exit_code


def print_rule_table() -> None:
    for rule in all_rules():
        print(f"{rule.code}  {rule.name}: {rule.summary}")
    print(
        "RPL006  unused-suppression: a '# replint: ignore[...]' comment "
        "that suppressed nothing"
    )
    for rule in all_project_rules():
        print(f"{rule.code}  {rule.name}: {rule.summary}")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.rules:
        print_rule_table()
        return 0
    return run_lint(
        args.paths,
        args.output_format,
        cache_file=None if args.no_cache else args.cache_file,
        out=args.out,
    )


if __name__ == "__main__":
    sys.exit(main())
