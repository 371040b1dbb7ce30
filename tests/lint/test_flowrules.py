"""Flow-rule behavior: RPL007/008/009 on crafted graphs and real code.

Single-module cases go through :func:`lint_source` (which runs the
project rules on a one-module graph); cross-module cases build the
graph by hand and call :func:`run_project_rules` directly.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.callgraph import summarize_module
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import lint_source, run_project_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def flow_diags(**sources: str) -> list[Diagnostic]:
    summaries = {}
    for key, src in sources.items():
        module = key.replace("_", ".")
        summaries[module] = summarize_module(
            ast.parse(src), module, f"{module}.py"
        )
    return run_project_rules(summaries)


# -- RPL007 ------------------------------------------------------------------


def test_rpl007_cross_module_chain() -> None:
    diags = flow_diags(
        repro_service_tickmod=(
            "from repro.core.slowmod import settle\n\n\n"
            "async def tick():\n    settle()\n"
        ),
        repro_core_slowmod=(
            "import time\n\n\ndef settle():\n    time.sleep(1)\n"
        ),
    )
    assert [d.code for d in diags] == ["RPL007"]
    assert "settle" in diags[0].message and "time.sleep" in diags[0].message
    assert diags[0].path == "repro.service.tickmod.py"


def test_rpl007_only_fires_for_service_scope_roots() -> None:
    # the same blocking chain rooted in eval (no event loop there) is fine
    diags = flow_diags(
        repro_eval_x=(
            "import time\n\n\n"
            "def settle():\n    time.sleep(1)\n\n\n"
            "async def tick():\n    settle()\n"
        )
    )
    assert diags == []


def test_rpl007_async_callee_reports_once_at_its_own_root() -> None:
    """An async helper is its own root: callers above it must not
    duplicate the finding."""
    source = (
        "import time\n\n\n"
        "def settle():\n    time.sleep(1)\n\n\n"
        "async def inner():\n    settle()\n\n\n"
        "async def outer():\n    await inner()\n"
    )
    report = lint_source(source, "x.py", "repro.service.x")
    assert [d.code for d in report.diagnostics] == ["RPL007"]
    assert "'inner'" in report.diagnostics[0].message


def test_rpl007_executor_reference_is_shielded() -> None:
    source = (
        "import asyncio\nimport time\n\n\n"
        "def settle():\n    time.sleep(1)\n\n\n"
        "async def tick():\n"
        "    loop = asyncio.get_running_loop()\n"
        "    await loop.run_in_executor(None, settle)\n"
    )
    assert lint_source(source, "x.py", "repro.service.x").ok


def test_rpl007_solver_entry_point_is_a_sink() -> None:
    diags = flow_diags(
        repro_service_s=(
            "from repro.core.mnu import solve_mnu\n\n\n"
            "async def tick(problem):\n    return solve_mnu(problem)\n"
        )
    )
    assert [d.code for d in diags] == ["RPL007"]
    assert "solve_mnu" in diags[0].message


# -- RPL008 ------------------------------------------------------------------


def test_rpl008_lambda_worker_unpicklable() -> None:
    source = (
        "from concurrent.futures import ProcessPoolExecutor\n\n\n"
        "def run(tasks):\n"
        "    pool = ProcessPoolExecutor()\n"
        "    return list(pool.map(lambda t: t * 2, tasks))\n"
    )
    report = lint_source(source, "x.py", "repro.engine.x")
    assert [d.code for d in report.diagnostics] == ["RPL008"]
    assert "lambda" in report.diagnostics[0].message.lower()


def test_rpl008_bound_method_worker() -> None:
    source = (
        "from concurrent.futures import ProcessPoolExecutor\n\n\n"
        "class Runner:\n"
        "    def work(self, task):\n        return task\n\n"
        "    def run(self, tasks):\n"
        "        pool = ProcessPoolExecutor()\n"
        "        return list(pool.map(self.work, tasks))\n"
    )
    report = lint_source(source, "x.py", "repro.engine.x")
    assert [d.code for d in report.diagnostics] == ["RPL008"]


def test_rpl008_pure_top_level_worker_clean() -> None:
    source = (
        "from concurrent.futures import ProcessPoolExecutor\n\n\n"
        "def work(task):\n    return task * 2\n\n\n"
        "def run(tasks):\n"
        "    pool = ProcessPoolExecutor()\n"
        "    return list(pool.map(work, tasks))\n"
    )
    assert lint_source(source, "x.py", "repro.engine.x").ok


# -- RPL009 ------------------------------------------------------------------


def test_rpl009_tick_path_broad_except_fires() -> None:
    source = (
        "class ControlService:\n"
        "    def apply_events(self, events):\n"
        "        return self._step(events)\n\n"
        "    def _step(self, events):\n"
        "        try:\n"
        "            return len(events)\n"
        "        except Exception:\n"
        "            return 0\n"
    )
    report = lint_source(source, "x.py", "repro.service.control")
    assert [d.code for d in report.diagnostics] == ["RPL009"]


def test_rpl009_reraising_rollback_clean() -> None:
    source = (
        "class ControlService:\n"
        "    def apply_events(self, events):\n"
        "        try:\n"
        "            return len(events)\n"
        "        except BaseException:\n"
        "            self.restore()\n"
        "            raise\n\n"
        "    def restore(self):\n"
        "        pass\n"
    )
    assert lint_source(source, "x.py", "repro.service.control").ok


def test_rpl009_finally_is_discipline_enough() -> None:
    source = (
        "def apply(ledger, user):\n"
        "    try:\n"
        "        ledger.join(user)\n"
        "    except Exception:\n"
        "        return 0\n"
        "    finally:\n"
        "        ledger.leave(user)\n"
    )
    assert lint_source(source, "x.py", "repro.service.x").ok


# -- the real tree ------------------------------------------------------------


def test_blocking_call_in_real_tick_loop_fails_lint() -> None:
    """Regression: reintroducing a blocking call into the service tick
    loop must fail the gate, and the shipped loop must stay clean."""
    path = REPO_ROOT / "src" / "repro" / "service" / "loop.py"
    source = path.read_text()
    assert lint_source(source, str(path), "repro.service.loop").ok

    marker = "await self.tick_async()"
    assert marker in source
    blocked = source.replace(
        marker, "time.sleep(0.001)\n            " + marker
    ).replace("import asyncio\n", "import asyncio\nimport time\n")
    report = lint_source(blocked, str(path), "repro.service.loop")
    codes = {d.code for d in report.diagnostics}
    assert "RPL007" in codes, [d.format() for d in report.diagnostics]
    chain = next(d for d in report.diagnostics if d.code == "RPL007")
    assert "time.sleep" in chain.message


def test_inline_apply_events_in_ticker_fails_lint() -> None:
    """The pre-fix shape — the ticker calling the synchronous apply
    path directly — is exactly what RPL007 exists to catch."""
    path = REPO_ROOT / "src" / "repro" / "service" / "loop.py"
    source = path.read_text()
    marker = "await self.tick_async()"
    inlined = source.replace(marker, "self.run_tick()")
    report = lint_source(inlined, str(path), "repro.service.loop")
    codes = {d.code for d in report.diagnostics}
    assert "RPL007" in codes, [d.format() for d in report.diagnostics]
    chain = next(d for d in report.diagnostics if d.code == "RPL007")
    assert "apply_events" in chain.message
