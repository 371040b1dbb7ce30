"""The bulk load pricer against the ledger, and the paths that use it.

:func:`repro.core.ledger.price_loads` must equal ``LoadLedger(problem,
map).loads()`` in ``float.hex`` on every map: legacy, DMS and hybrid
sessions, partial maps, idle APs, members out of range and the empty
map. Solves that only read loads must then build no ledger at all.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import obs
from repro.core import bla, instrument, mnu
from repro.core import assignment as assignment_module
from repro.core.assignment import Assignment
from repro.core.bla import solve_bla
from repro.core.errors import ModelError
from repro.core.ledger import LoadLedger, price_loads
from repro.core.mla import solve_mla
from repro.core.mnu import solve_mnu
from repro.core.problem import (
    TX_POLICIES,
    MulticastAssociationProblem,
    Session,
)
from repro.engine.engine import ShardedEngine
from repro.eval import metrics
from repro.radio.geometry import Area
from repro.scenarios.federation import generate_federation
from repro.scenarios.generator import generate
from tests.conftest import PYTEST_SEED

N_INSTANCES = 240
RATES = (1.0, 2.0, 5.5, 6.0, 11.0, 12.0, 18.0, 24.0, 36.0, 48.0, 54.0)


def _random_case(
    rng: random.Random,
) -> tuple[MulticastAssociationProblem, list[int | None]]:
    """A random instance (mixed policies, few distinct rates so groups
    tie) and a random map over it: some users unserved, a few held by
    an AP out of their range, some APs left idle."""
    n_aps = rng.randint(1, 7)
    n_users = rng.randint(0, 30)
    n_sessions = rng.randint(1, 4)
    rates = [
        [rng.choice(RATES) if rng.random() < 0.6 else 0.0 for _ in range(n_users)]
        for _ in range(n_aps)
    ]
    sessions = [
        Session(i, rng.choice([0.5, 1.0, 1.3, 2.0, 3.7]))
        for i in range(n_sessions)
    ]
    policies = [rng.choice(TX_POLICIES) for _ in range(n_sessions)]
    problem = MulticastAssociationProblem(
        rates,
        [rng.randrange(n_sessions) for _ in range(n_users)],
        sessions,
        math.inf,
        policies,
    )
    used = rng.sample(range(n_aps), rng.randint(1, n_aps))
    ap_of_user: list[int | None] = []
    for user in range(n_users):
        reach = [a for a in used if rates[a][user] > 0]
        if rng.random() < 0.25 or (not reach and rng.random() < 0.8):
            ap_of_user.append(None)
        elif reach and rng.random() < 0.95:
            ap_of_user.append(rng.choice(reach))
        else:
            ap_of_user.append(rng.choice(used))
    return problem, ap_of_user


def _priced(
    problem: MulticastAssociationProblem, ap_of_user: list[int | None]
) -> np.ndarray:
    users = np.array(
        [u for u, a in enumerate(ap_of_user) if a is not None], dtype=np.int64
    )
    aps = np.array([a for a in ap_of_user if a is not None], dtype=np.int64)
    return price_loads(problem, users, aps)


def _hex(loads) -> list[str]:
    return [float(x).hex() for x in loads]


def test_pricer_equals_the_ledger_bitwise():
    policies_seen: set[str] = set()
    for case in range(N_INSTANCES):
        problem, ap_of_user = _random_case(random.Random(f"{PYTEST_SEED}-{case}"))
        policies_seen.update(problem.session_policies)
        expected = _hex(LoadLedger(problem, ap_of_user).loads())
        assert _hex(_priced(problem, ap_of_user)) == expected, case
        assert _hex(Assignment(problem, ap_of_user).loads()) == expected, case
    assert policies_seen == set(TX_POLICIES)


def test_edge_maps():
    problem, _ = _random_case(random.Random(f"{PYTEST_SEED}-edge"))
    empty = [None] * problem.n_users
    assert _priced(problem, empty).tolist() == [0.0] * problem.n_aps
    assert Assignment(problem, empty).total_load() == 0.0
    no_users = MulticastAssociationProblem(
        np.zeros((3, 0)), [], [Session(0, 1.0)]
    )
    assert _priced(no_users, []).tolist() == [0.0, 0.0, 0.0]
    # A member out of range makes its group, and its AP, unservable.
    blocked = MulticastAssociationProblem(
        [[6.0, 0.0], [6.0, 6.0]], [0, 0], [Session(0, 1.0)], math.inf, "dms"
    )
    assert _priced(blocked, [0, 0]).tolist() == [math.inf, 0.0]


def test_sanitizer_cross_checks_every_priced_vector(monkeypatch):
    monkeypatch.setenv(instrument.SANITIZE_ENV, "1")
    problem, ap_of_user = _random_case(random.Random(f"{PYTEST_SEED}-san"))
    registry = obs.install().metrics
    try:
        Assignment(problem, ap_of_user).loads()
        counters = registry.snapshot()["counters"]
        assert counters.get("sanitize.price_checks", 0) == 1

        def skewed(*args):
            loads = price_loads(*args)
            loads[0] += 1.0
            return loads

        monkeypatch.setattr(assignment_module, "price_loads", skewed)
        with pytest.raises(ModelError, match="pricer invariant violated"):
            Assignment(problem, ap_of_user).max_load()
    finally:
        obs.uninstall()


def _at_sum(base: float, target: float) -> float | None:
    """A budget ``b`` with ``b + base`` rounding to ``target`` exactly,
    found by stepping ``b`` one ulp at a time, or ``None``."""
    b = target - base
    for _ in range(64):
        total = b + base
        if total == target:
            return b
        b = np.nextafter(b, math.inf if total < target else -math.inf)
    return None


def test_mnu_live_mask_matches_the_per_candidate_comparison(monkeypatch):
    """Budgets put candidate costs exactly at ``budget + 1e-12`` and one
    ulp either side, and exactly at the budget itself."""
    captured: list[np.ndarray] = []
    original = mnu.greedy_mcg_flat

    def capture(family, budgets, *, live, split):
        captured.append(np.asarray(live))
        return original(family, budgets, live=live, split=split)

    monkeypatch.setattr(mnu, "greedy_mcg_flat", capture)
    base = generate(
        n_aps=8, n_users=60, n_sessions=3, seed=PYTEST_SEED, area=Area.square(300)
    ).problem()
    family = mnu.build_family(base)
    # One candidate cost per AP, from that AP's own candidates.
    at = {int(a): c for a, c in zip(family.ap, family.cost)}
    masks = {}
    for shift in (-1, 0, 1, None):
        budgets = []
        for ap in range(base.n_aps):
            cost = at.get(ap, 1.0)
            target = cost
            if shift:
                target = float(np.nextafter(cost, shift * math.inf))
            budget = cost if shift is None else _at_sum(1e-12, target)
            assert budget is not None
            budgets.append(float(budget))
        problem = base.with_budgets(budgets)
        captured.clear()
        solve_mnu(problem)
        expected = [
            family.cost[k] <= problem.budget_of(family.ap[k]) + 1e-12
            for k in range(family.n_candidates)
        ]
        assert captured[0].tolist() == expected
        masks[shift] = expected
    # The boundary is exercised: one ulp below drops what one above keeps.
    assert masks[-1] != masks[1] and masks[0] == masks[1]


# -- no ledger outside the rebalance ------------------------------------------


@pytest.fixture()
def no_ledgers(monkeypatch):
    """Make any :class:`LoadLedger` built outside BLA's rebalance raise."""
    inside: list[bool] = []
    original_init = LoadLedger.__init__
    original_rebalance = bla.rebalance_cover

    def guarded_init(self, *args, **kwargs):
        if not inside:
            raise AssertionError("LoadLedger built outside the rebalance")
        original_init(self, *args, **kwargs)

    def rebalance(assignment):
        inside.append(True)
        try:
            return original_rebalance(assignment)
        finally:
            inside.pop()

    monkeypatch.setattr(LoadLedger, "__init__", guarded_init)
    monkeypatch.setattr(bla, "rebalance_cover", rebalance)


def _federation():
    return generate_federation(
        n_clusters=6, aps_per_cluster=3, users_per_cluster=12, n_sessions=3, seed=2
    ).problem()


def test_load_reading_solves_build_no_ledger(no_ledgers):
    problem = _federation()
    solve_mla(problem).assignment.total_load()
    solve_mnu(problem).assignment.max_load()
    solve_bla(problem, local_search=False).assignment.max_load()
    solve_bla(problem)
    metrics.run_algorithm("c-bla", problem)
    engine = ShardedEngine(problem)
    leaver = engine.plan.shards[2].users[0]
    active = set(range(problem.n_users)) - {leaver}
    for objective in ("mla", "mnu"):
        cold = engine.solve(objective)
        warm = engine.solve(objective, active=active)
        assert cold.n_resolved == engine.plan.n_shards
        assert warm.n_resolved == 1
