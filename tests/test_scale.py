"""The scale ladder: 10k users in the default run, 50k/100k behind -m scale.

The 10k × 256 cell is the bench-smoke guard: the array-backed strategies
must dispatch (the instance is far past the auto threshold), solve well
inside a wall-clock budget, and produce certificate-clean assignments.
The 50k and 100k cells bound the full ladder — the acceptance target is
a 100k-user × 1k-AP serial solve in single-digit seconds — and are
opt-in (``pytest -m scale``) because each allocates rate matrices in the
hundreds of megabytes.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from repro.core.mla import solve_mla
from repro.core.mnu import solve_mnu
from repro.scenarios.largescale import generate_largescale
from repro.verify.certificates import verify_assignment

#: Per-solve wall budget, deliberately loose (slow CI runners) while
#: still catching an accidental fall-off the vectorized hot paths —
#: the scalar loops are minutes, not seconds, at these sizes.
SMOKE_BUDGET_S = 20.0
LADDER_BUDGET_S = 30.0

SOLVERS = (
    ("mnu", lambda p: solve_mnu(p).assignment),
    ("mla", lambda p: solve_mla(p).assignment),
)


def _solve_and_verify(problem, budget_s):
    for objective, solve in SOLVERS:
        start = time.perf_counter()
        assignment = solve(problem)
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"{objective} took {elapsed:.1f}s at {problem.n_users} users "
            f"(budget {budget_s:.0f}s) — did the vectorized path regress?"
        )
        certificate = verify_assignment(
            problem, assignment, objective, lp_bounds=False
        )
        assert certificate.ok, (
            f"{objective} assignment failed certification: "
            f"{', '.join(certificate.codes)}"
        )
        if objective == "mla":
            assert assignment.n_served == problem.n_users


#: SHA-256 of ``generate_largescale(n_users=10_000, n_aps=256, seed=0)``'s
#: rate-matrix bytes, recorded when the generator quantized with its own
#: squared-distance copy of the 802.11a ladder.
SCALE_10K_RATES_SHA256 = (
    "1b36e4fa90e4e84ab7dcd2e2991c012371c4dfe54ba232c6766e2ca3aeab963e"
)


def test_scale_10k_rates_are_pinned():
    problem = generate_largescale(n_users=10_000, n_aps=256, seed=0)
    digest = hashlib.sha256(problem.link_rates.tobytes()).hexdigest()
    assert digest == SCALE_10K_RATES_SHA256


def test_scale_10k_smoke():
    problem = generate_largescale(n_users=10_000, n_aps=256, seed=0)
    _solve_and_verify(problem, SMOKE_BUDGET_S)


@pytest.mark.scale
@pytest.mark.parametrize(
    "n_users,n_aps",
    [(50_000, 512), (100_000, 1_000)],
    ids=["50k", "100k"],
)
def test_scale_ladder(n_users, n_aps):
    problem = generate_largescale(n_users=n_users, n_aps=n_aps, seed=0)
    _solve_and_verify(problem, LADDER_BUDGET_S)
