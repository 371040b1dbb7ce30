"""SARIF 2.1.0 rendering of a lint report.

The minimal, standards-shaped subset CI consumers need: one run, the
full rule table as ``tool.driver.rules`` (so viewers show rule help
without a side channel), one ``result`` per diagnostic and one
``error``-level result per operational failure. GitHub code scanning,
VS Code's SARIF viewer and ``sarif-tools`` all read this shape.
"""

from __future__ import annotations

import json
from typing import Any

from repro.lint.engine import UNUSED_SUPPRESSION, LintReport
from repro.lint.registry import all_project_rules, all_rules

SARIF_VERSION = "2.1.0"
_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_table() -> list[dict[str, Any]]:
    rules: list[dict[str, Any]] = []
    for rule in [*all_rules(), *all_project_rules()]:
        rules.append(
            {
                "id": rule.code,
                "name": rule.name,
                "shortDescription": {"text": rule.summary},
            }
        )
    rules.append(
        {
            "id": UNUSED_SUPPRESSION,
            "name": "unused-suppression",
            "shortDescription": {
                "text": (
                    "a '# replint: ignore[...]' comment "
                    "that suppressed nothing"
                )
            },
        }
    )
    rules.sort(key=lambda r: str(r["id"]))
    return rules


def sarif_dict(report: LintReport) -> dict[str, Any]:
    """The report as a SARIF ``log`` object."""
    rules = _rule_table()
    index = {rule["id"]: i for i, rule in enumerate(rules)}
    results: list[dict[str, Any]] = []
    for diagnostic in report.diagnostics:
        results.append(
            {
                "ruleId": diagnostic.code,
                "ruleIndex": index.get(diagnostic.code, -1),
                "level": "error",
                "message": {"text": diagnostic.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": diagnostic.path},
                            "region": {
                                "startLine": diagnostic.line,
                                "startColumn": diagnostic.col,
                            },
                        }
                    }
                ],
            }
        )
    invocation = {
        "executionSuccessful": not report.errors,
        "toolExecutionNotifications": [
            {
                "level": "error",
                "message": {"text": error.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": error.path}
                        }
                    }
                ],
            }
            for error in report.errors
        ],
    }
    return {
        "$schema": _SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "replint",
                        "rules": rules,
                    }
                },
                "invocations": [invocation],
                "results": results,
            }
        ],
    }


def render_sarif(report: LintReport) -> str:
    """The report as a SARIF JSON string."""
    return json.dumps(sarif_dict(report), indent=2, sort_keys=True)
