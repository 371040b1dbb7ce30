"""Per-rule fixture tests: bad fires, good is clean, suppressed is clean.

Fixtures live in ``tests/lint/fixtures`` — a directory the replint
walker deliberately skips — and are linted through :func:`lint_file`
with an explicit ``module_name`` so each file is checked *as if* it
lived at a scoped import path (the rules are repro-scoped).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import lint_file
from repro.lint.engine import UNUSED_SUPPRESSION

FIXTURES = Path(__file__).parent / "fixtures"

#: (rule code, fixture stem prefix, module name the fixture poses as)
CASES = [
    ("RPL001", "rpl001", "repro.core.distributed"),
    ("RPL002", "rpl002", "repro.core.helper"),
    ("RPL003", "rpl003", "repro.core.helper"),
    ("RPL004", "rpl004", "repro.eval.helper"),
    ("RPL005", "rpl005", "repro.engine.helper"),
    ("RPL007", "rpl007", "repro.service.f007"),
    ("RPL008", "rpl008", "repro.engine.f008"),
    ("RPL009", "rpl009", "repro.service.f009"),
]


@pytest.mark.parametrize("code,prefix,module", CASES)
def test_bad_fixture_fires(code: str, prefix: str, module: str) -> None:
    report = lint_file(FIXTURES / f"{prefix}_bad.py", module_name=module)
    assert not report.errors
    assert report.diagnostics, f"{code} bad fixture produced no findings"
    assert {d.code for d in report.diagnostics} == {code}
    first = report.diagnostics[0]
    assert first.line > 0 and first.col > 0
    assert code in first.format()


@pytest.mark.parametrize("code,prefix,module", CASES)
def test_good_fixture_clean(code: str, prefix: str, module: str) -> None:
    report = lint_file(FIXTURES / f"{prefix}_good.py", module_name=module)
    assert report.ok, [d.format() for d in report.diagnostics]
    assert report.exit_code == 0


@pytest.mark.parametrize("code,prefix,module", CASES)
def test_suppressed_fixture_clean(
    code: str, prefix: str, module: str
) -> None:
    report = lint_file(
        FIXTURES / f"{prefix}_suppressed.py", module_name=module
    )
    assert report.ok, [d.format() for d in report.diagnostics]
    assert report.suppressions_used >= 1


def test_unused_suppressions_each_reported() -> None:
    report = lint_file(
        FIXTURES / "unused_suppressions.py", module_name="repro.core.fixture"
    )
    codes = [d.code for d in report.diagnostics]
    assert codes == [UNUSED_SUPPRESSION] * 5
    mentioned = {d.message.split("unused suppression for ")[1][:6]
                 for d in report.diagnostics}
    assert mentioned == {"RPL001", "RPL002", "RPL003", "RPL004", "RPL005"}


def test_malformed_suppression_reported() -> None:
    report = lint_file(
        FIXTURES / "malformed_suppression.py",
        module_name="repro.core.fixture",
    )
    assert [d.code for d in report.diagnostics] == [UNUSED_SUPPRESSION]
    assert "malformed" in report.diagnostics[0].message


def test_rules_skip_files_outside_repro() -> None:
    # the bad fixtures are repro-scoped; with no module name (a test or
    # benchmark file) the architectural rules must stay quiet
    for prefix in ("rpl001", "rpl002", "rpl004", "rpl005"):
        report = lint_file(FIXTURES / f"{prefix}_bad.py", module_name=None)
        assert report.ok, prefix


def test_rpl002_service_is_a_top_layer() -> None:
    """core -> service inverts the DAG and fires; service -> engine is
    fine; engine -> service fires too (nothing below imports service)."""
    report = lint_file(
        FIXTURES / "rpl002_service_bad.py", module_name="repro.core.helper"
    )
    assert [d.code for d in report.diagnostics] == ["RPL002"]
    assert "repro.service" in report.diagnostics[0].message

    from repro.lint.engine import lint_source

    upward = "from repro.engine import ShardedEngine\n_ = ShardedEngine\n"
    assert lint_source(upward, "x.py", "repro.service.control").ok
    downward = "from repro.service import events\n_ = events\n"
    flagged = lint_source(downward, "x.py", "repro.engine.helper")
    assert [d.code for d in flagged.diagnostics] == ["RPL002"]


def test_rpl002_vec_is_a_leaf() -> None:
    """vec -> core inverts the DAG and fires; core/engine -> vec is the
    sanctioned direction (the solvers' array kernels)."""
    report = lint_file(
        FIXTURES / "rpl002_vec_bad.py", module_name="repro.vec.helper"
    )
    assert [d.code for d in report.diagnostics] == ["RPL002"]
    assert "repro.core" in report.diagnostics[0].message

    clean = lint_file(
        FIXTURES / "rpl002_vec_good.py", module_name="repro.vec.helper"
    )
    assert clean.ok, [d.format() for d in clean.diagnostics]

    from repro.lint.engine import lint_source

    downward = "from repro.vec import backend\n_ = backend\n"
    assert lint_source(downward, "x.py", "repro.core.helper").ok
    assert lint_source(downward, "x.py", "repro.engine.helper").ok
    upward = "from repro.obs import counters\n_ = counters\n"
    flagged = lint_source(upward, "x.py", "repro.vec.helper")
    assert [d.code for d in flagged.diagnostics] == ["RPL002"]


def test_rpl002_lazy_import_grant() -> None:
    from repro.lint.engine import lint_source

    source = (
        "def run():\n"
        "    from repro.eval import experiments\n"
        "    return experiments\n"
    )
    # repro.obs.bench holds an ALLOW_LAZY grant for eval...
    granted = lint_source(source, "bench.py", "repro.obs.bench")
    assert granted.ok
    # ...other obs modules do not, and module-level imports never do
    denied = lint_source(source, "trace.py", "repro.obs.trace")
    assert [d.code for d in denied.diagnostics] == ["RPL002"]
    top_level = "from repro.eval import experiments\n_ = experiments\n"
    module_level = lint_source(top_level, "bench.py", "repro.obs.bench")
    assert [d.code for d in module_level.diagnostics] == ["RPL002"]


def test_rpl003_unseeded_everywhere_clock_only_in_solvers() -> None:
    from repro.lint.engine import lint_source

    source = "import random\nRNG = random.Random()\n"
    report = lint_source(source, "x.py", "repro.eval.helper")
    assert [d.code for d in report.diagnostics] == ["RPL003"]
    clock = "import time\n\n\ndef f():\n    return time.perf_counter()\n"
    outside = lint_source(clock, "x.py", "repro.eval.helper")
    assert outside.ok  # eval is not a solver package
    inside = lint_source(clock, "x.py", "repro.net.helper")
    assert [d.code for d in inside.diagnostics] == ["RPL003"]


def test_rpl001_allowlist_exempts_the_kernel_and_oracle() -> None:
    from repro.lint.engine import lint_source

    source = "def airtime(rate, rates):\n    return rate / min(rates)\n"
    for module in ("repro.core.ledger", "repro.verify.certificates"):
        assert lint_source(source, "x.py", module).ok
    flagged = lint_source(source, "x.py", "repro.core.mnu")
    assert [d.code for d in flagged.diagnostics] == ["RPL001"]


def test_rpl001_dms_shape_fires_outside_the_kernel() -> None:
    """The DMS shape — sum/fsum over a per-member division — is the
    policy kernel's; elsewhere it fires, and sums without a division
    element stay clean."""
    from repro.lint.engine import lint_source

    shapes = (
        "import math\n\n\ndef f(bits, rates):\n"
        "    return math.fsum(bits / r for r in rates)\n",
        "def f(bits, rates):\n    return sum(bits / r for r in rates)\n",
        "import math\n\n\ndef f(bits, rates):\n"
        "    return math.fsum([bits / r for r in rates])\n",
    )
    for source in shapes:
        flagged = lint_source(source, "x.py", "repro.core.mnu")
        assert [d.code for d in flagged.diagnostics] == ["RPL001"], source
        for module in ("repro.core.ledger", "repro.verify.certificates"):
            assert lint_source(source, "x.py", module).ok
    clean = (
        "import math\n\n\ndef mean(values, n):\n"
        "    return math.fsum(values) / n\n"
    )
    assert lint_source(clean, "x.py", "repro.core.mnu").ok
