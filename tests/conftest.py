"""Shared fixtures and instance factories for the test suite."""

from __future__ import annotations

import math
import os
import random

import numpy as np
import pytest

from repro.core.problem import MulticastAssociationProblem, Session

#: Every RNG in the suite derives from this seed; override with
#: ``PYTEST_SEED=<n> pytest`` to explore other draws. The active value is
#: printed in the session header and echoed on every failure so fuzz /
#: property failures are reproducible from the report alone.
PYTEST_SEED = int(os.environ.get("PYTEST_SEED", "0"))


def pytest_report_header(config):
    return (
        f"PYTEST_SEED={PYTEST_SEED} "
        "(set the PYTEST_SEED env var to re-roll randomized tests)"
    )


def pytest_collection_modifyitems(config, items):
    """Skip ``scale``-marked items unless the -m expression asks for them.

    The 50k/100k-user cells allocate hundred-MB rate matrices and run for
    tens of seconds — strictly opt-in (``-m scale``). The same holds for
    the full mobility ladder (``-m mobility``).
    """
    markexpr = config.option.markexpr or ""
    opt_in_only = {
        "scale": "large-instance benchmark; opt in with -m scale",
        "mobility": "full mobility ladder; opt in with -m mobility",
    }
    for marker, reason in opt_in_only.items():
        if marker in markexpr:
            continue
        skip = pytest.mark.skip(reason=reason)
        for item in items:
            if marker in item.keywords:
                item.add_marker(skip)


@pytest.fixture(autouse=True)
def _seed_global_rngs():
    """Seed the global RNGs before every test, deterministically."""
    random.seed(PYTEST_SEED)
    np.random.seed(PYTEST_SEED % (2**32))
    yield


@pytest.fixture
def session_seed() -> int:
    """The session seed, for tests that derive their own RNG streams."""
    return PYTEST_SEED


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        report.sections.append(
            (
                "randomization seed",
                f"PYTEST_SEED={PYTEST_SEED} — rerun with this env var "
                "set to reproduce the exact RNG draws",
            )
        )


def paper_example_problem(
    stream_rate: float, budget: float = math.inf
) -> MulticastAssociationProblem:
    """The paper's Figure-1 WLAN: 2 APs, 5 users, 2 sessions.

    AP a1 reaches u1..u5 at rates 3, 6, 4, 4, 4 Mbps; AP a2 reaches
    u3, u4, u5 at 5, 5, 3 Mbps. Users u1, u3 request session s1 and
    u2, u4, u5 request s2.
    """
    return MulticastAssociationProblem(
        link_rates=[[3, 6, 4, 4, 4], [0, 0, 5, 5, 3]],
        user_sessions=[0, 1, 0, 1, 1],
        sessions=[Session(0, stream_rate), Session(1, stream_rate)],
        budgets=budget,
    )


def random_problem(
    rng: random.Random,
    *,
    n_aps: int | None = None,
    n_users: int | None = None,
    n_sessions: int | None = None,
    budget: float = math.inf,
    ensure_coverage: bool = True,
    rates: tuple[float, ...] = (6, 12, 18, 24, 36, 48, 54),
    reach_probability: float = 0.5,
) -> MulticastAssociationProblem:
    """A random abstract instance (no geometry): each link exists w.p.
    ``reach_probability`` at a random ladder rate."""
    n_aps = n_aps if n_aps is not None else rng.randint(2, 6)
    n_users = n_users if n_users is not None else rng.randint(1, 12)
    n_sessions = n_sessions if n_sessions is not None else rng.randint(1, 4)
    link = [[0.0] * n_users for _ in range(n_aps)]
    for u in range(n_users):
        reachable = [a for a in range(n_aps) if rng.random() < reach_probability]
        if ensure_coverage and not reachable:
            reachable = [rng.randrange(n_aps)]
        for a in reachable:
            link[a][u] = rng.choice(rates)
    sessions = [Session(i, 1.0) for i in range(n_sessions)]
    user_sessions = [rng.randrange(n_sessions) for _ in range(n_users)]
    return MulticastAssociationProblem(link, user_sessions, sessions, budget)


@pytest.fixture
def fig1_mnu():
    """Fig. 1 instance in its MNU setting (3 Mbps streams, budget 1)."""
    return paper_example_problem(3.0, budget=1.0)


@pytest.fixture
def fig1_load():
    """Fig. 1 instance in its BLA/MLA setting (1 Mbps streams)."""
    return paper_example_problem(1.0)
