"""Tests for the load ledger — the single incremental load implementation.

The headline property (the tentpole's acceptance bar): under *any* random
sequence of joins, leaves and moves on *any* random scenario, the ledger's
cached loads equal the verifier oracle's from-scratch recompute **exactly**
— ``==``, not ``approx``. The fsum exactness contract makes that a fair
demand, and Hypothesis hunts for the sequences that would break it.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.candidates import CandidateSet
from repro.core.errors import ModelError
from repro.core.instrument import SANITIZE_ENV
from repro.core.ledger import CandidateGainIndex, LoadLedger
from repro.core.problem import TX_POLICIES, MulticastAssociationProblem, Session
from repro.verify.certificates import _recompute_group_loads
from tests.conftest import PYTEST_SEED, paper_example_problem, random_problem


def oracle_loads(ledger: LoadLedger) -> list[float]:
    """The verifier's independent recompute, on the ledger's current map."""
    _rates, loads = _recompute_group_loads(
        ledger.problem, tuple(ledger.ap_of_user)
    )
    return loads


class TestConstruction:
    def test_empty_ledger(self):
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p)
        assert ledger.loads() == [0.0, 0.0]
        assert ledger.n_served == 0
        assert ledger.total_load() == 0.0
        assert ledger.max_load() == 0.0

    def test_initial_map_loads_match_oracle(self):
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p, [0, 0, 1, 1, 1])
        assert ledger.loads() == oracle_loads(ledger)
        assert ledger.n_served == 5

    def test_rejects_wrong_shape(self):
        p = paper_example_problem(1.0)
        with pytest.raises(ModelError, match="covers 2 users"):
            LoadLedger(p, [0, 1])

    def test_rejects_unknown_ap(self):
        p = paper_example_problem(1.0)
        with pytest.raises(ModelError, match="unknown AP 7"):
            LoadLedger(p, [7, None, None, None, None])

    def test_matches_assignment_view(self):
        p = paper_example_problem(2.0)
        ledger = LoadLedger(p, [0, 0, 1, 1, 1])
        view = Assignment(p, [0, 0, 1, 1, 1])
        assert ledger.loads() == view.loads()
        assert ledger.total_load() == view.total_load()
        assert ledger.sorted_load_vector() == view.sorted_load_vector()


def reference_ledger(problem, initial):
    """The differential reference for construction from a map: an empty
    ledger filled user by user through its own private helpers, the
    order and counts ``LoadLedger.__init__`` must reproduce."""
    ledger = LoadLedger(problem, check=False)
    ledger._map = [None if a is None else int(a) for a in initial]
    touched = set()
    for user, ap in enumerate(ledger._map):
        if ap is None:
            continue
        if not 0 <= ap < problem.n_aps:
            raise ModelError(f"user {user} assigned to unknown AP {ap}")
        ledger._group_for(ap, problem.session_of(user)).add(
            user, problem.link_rate(ap, user)
        )
        touched.add(ap)
    for (ap, session), group in ledger._groups.items():
        ledger._session_costs[ap][session] = ledger._cost_of(session, group)
    for ap in touched:
        ledger._refresh_load(ap)
    return ledger


def _state(build):
    """Everything a ledger holds after construction, floats as hex, or
    the error its construction raised."""
    try:
        ledger = build()
    except ModelError as error:
        return ("error", str(error))
    return (
        ledger.ap_of_user,
        [x.hex() for x in ledger.loads()],
        list(ledger.group_items()),
        # A group's count map is read by key only, so its order is free.
        [
            (key, group.members, group.rates, group.counts)
            for key, group in ledger._groups.items()
        ],
        [list(costs.items()) for costs in ledger._session_costs],
        ledger.op_counts(),
    )


class TestBulkConstruction:
    """``LoadLedger.__init__`` against the per-user reference."""

    def _case(self, rng, n_users):
        problem = random_problem(
            rng,
            n_aps=rng.randint(1, 6),
            n_users=n_users,
            n_sessions=rng.randint(1, 4),
            rates=(6.0, 12.0, 24.0, 36.0),
            reach_probability=0.5,
            ensure_coverage=False,
        )
        problem = problem.with_policies(
            [rng.choice(TX_POLICIES) for _ in range(problem.n_sessions)]
        )
        initial = []
        for user in range(problem.n_users):
            heard = problem.aps_of_user(user)
            draw = rng.random()
            if draw < 0.25 or not heard:
                initial.append(None)
            elif draw < 0.3:
                initial.append(rng.randrange(problem.n_aps))  # maybe 0 rate
            else:
                initial.append(rng.choice(heard))
        if rng.random() < 0.15 and initial:
            user = rng.randrange(len(initial))
            initial[user] = rng.choice([-1, problem.n_aps, problem.n_aps + 3])
        return problem, initial

    def test_matches_the_per_user_construction(self):
        rng = random.Random(PYTEST_SEED)
        seen = {"error": 0, "minus_one": 0, "multi_rate": 0, "policy": 0}
        for trial in range(300):
            n_users = rng.randint(0, 40 if trial % 10 else 400)
            problem, initial = self._case(rng, n_users)
            got = _state(lambda: LoadLedger(problem, initial, check=False))
            want = _state(lambda: reference_ledger(problem, initial))
            assert got == want, (problem.link_rates.tolist(), initial)
            if got[0] == "error":
                seen["error"] += 1
                seen["minus_one"] += "unknown AP -1" in got[1]
                continue
            seen["multi_rate"] += any(len(g[2]) > 1 for g in got[3])
            seen["policy"] += any(k.startswith("policy_") for k in got[5])
        assert all(seen.values()), seen

    def test_numpy_integers_and_tuples(self):
        rng = random.Random(PYTEST_SEED + 7)
        for _ in range(20):
            problem, initial = self._case(rng, 30)
            held = tuple(None if a is None else np.int64(a) for a in initial)
            assert _state(lambda: LoadLedger(problem, held)) == _state(
                lambda: reference_ledger(problem, initial)
            )

    def test_checked_bulk_construction(self):
        rng = random.Random(PYTEST_SEED + 3)
        for _ in range(30):
            problem, initial = self._case(rng, 60)
            try:
                LoadLedger(problem, initial, check=True)
            except ModelError as error:
                assert "unknown AP" in str(error)


class TestGainQueries:
    def test_join_leave_roundtrip_is_exact(self):
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p, [0, 0, None, None, None])
        predicted = ledger.load_if_joined(2, 1)
        ledger.move(2, 1)
        assert ledger.load_of(1) == predicted
        predicted_back = ledger.load_if_left(2)
        ledger.move(2, None)
        assert ledger.load_of(1) == predicted_back

    def test_delta_queries_consistent_with_load_queries(self):
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p, [0, 0, None, None, None])
        assert ledger.delta_if_joined(2, 0) == (
            ledger.load_if_joined(2, 0) - ledger.load_of(0)
        )
        assert ledger.delta_if_left(0) == (
            ledger.load_if_left(0) - ledger.load_of(0)
        )

    def test_join_current_ap_is_identity(self):
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p, [0, None, None, None, None])
        assert ledger.load_if_joined(0, 0) == ledger.load_of(0)
        assert ledger.delta_if_joined(0, 0) == 0.0

    def test_unassociated_leave_raises(self):
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p)
        with pytest.raises(ValueError, match="not associated"):
            ledger.load_if_left(0)
        with pytest.raises(ValueError, match="not associated"):
            ledger.delta_if_left(0)

    def test_best_join_deltas_sorted(self):
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p)
        ranked = ledger.best_join_deltas(2, p.aps_of_user(2))
        assert ranked == sorted(ranked)
        assert {ap for _d, ap in ranked} == set(p.aps_of_user(2))

    def test_out_of_range_member_makes_load_infinite(self):
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p)
        # u1 (index 0) cannot hear AP a2 (rate 0): joining is "infinite".
        assert ledger.load_if_joined(0, 1) == math.inf
        ledger.move(0, 1)
        assert ledger.load_of(1) == math.inf
        assert ledger.loads() == oracle_loads(ledger)


class TestMutation:
    def test_move_updates_both_aps(self):
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p, [0, 0, 0, 0, 0])
        ledger.move(2, 1)  # u3 starts transmitting s1 on a2
        assert ledger.load_of(1) > 0.0
        assert ledger.loads() == oracle_loads(ledger)
        ledger.move(0, None)  # u1 was a1's s1 bottleneck (3 Mbps)
        assert ledger.loads() == oracle_loads(ledger)

    def test_move_to_unknown_ap_raises(self):
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p)
        with pytest.raises(ModelError, match="unknown AP"):
            ledger.move(0, 9)

    def test_random_walk_equals_oracle_exactly(self):
        rng = random.Random(2027)
        for _ in range(25):
            p = random_problem(rng)
            ledger = LoadLedger(p)
            for _ in range(4 * p.n_users):
                user = rng.randrange(p.n_users)
                ledger.move(user, rng.choice(p.aps_of_user(user) + [None]))
                assert ledger.loads() == oracle_loads(ledger)

    def test_loads_are_pure_function_of_map(self):
        # Two different mutation histories reaching the same map must agree
        # bit-for-bit — the exactness contract.
        p = paper_example_problem(3.0)
        direct = LoadLedger(p, [0, 0, 1, 1, None])
        wandering = LoadLedger(p)
        for user, ap in [(4, 0), (0, 0), (1, 1), (2, 0), (3, 1)]:
            wandering.move(user, ap)
        wandering.move(1, 0)
        wandering.move(2, 1)
        wandering.move(4, 1)
        wandering.move(4, None)
        assert wandering.loads() == direct.loads()
        assert wandering.state_key() == direct.state_key()

    def test_copy_is_independent(self):
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p, [0, 0, None, None, None])
        clone = ledger.copy()
        clone.move(2, 1)
        assert ledger.ap_of(2) is None
        assert ledger.loads() == oracle_loads(ledger)
        assert clone.loads() == oracle_loads(clone)

    def test_op_counters(self):
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p)
        ledger.load_if_joined(0, 0)
        ledger.move(0, 0)
        ledger.move(0, 0)  # no-op: same AP
        counts = ledger.op_counts()
        assert counts["gain_queries"] == 1
        assert counts["moves"] == 1
        assert counts["load_recomputes"] >= 1


class TestDebugInvariant:
    def test_check_catches_corruption(self):
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p, [0, 0, None, None, None], check=True)
        ledger.move(2, 1)  # a checked mutation passes on a healthy ledger
        ledger._loads[0] += 0.25  # corrupt the cache behind its back
        with pytest.raises(ModelError, match="ledger invariant violated"):
            ledger.verify_against_recompute()

    def test_checked_construction_from_env(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        p = paper_example_problem(1.0)
        ledger = LoadLedger(p, [0, 0, 1, 1, 1])
        assert ledger._check
        ledger.move(0, None)  # runs the invariant; must not raise


class TestCandidateGainIndex:
    @staticmethod
    def _candidates():
        return [
            CandidateSet(ap=0, session=0, tx_rate=2.0, cost=0.5,
                         users=frozenset({0, 1})),
            CandidateSet(ap=0, session=0, tx_rate=4.0, cost=0.25,
                         users=frozenset({1})),
            CandidateSet(ap=1, session=0, tx_rate=2.0, cost=0.5,
                         users=frozenset({1, 2})),
        ]

    def test_best_prefers_cost_effectiveness(self):
        index = CandidateGainIndex(
            self._candidates(), [1.0, 1.0], {0, 1, 2}
        )
        # effectiveness: 2/0.5 = 4, 1/0.25 = 4, 2/0.5 = 4 — tie toward
        # the lowest index, like the scalar scan it replaced.
        assert index.best() == 0

    def test_select_updates_counts_and_budgets(self):
        index = CandidateGainIndex(
            self._candidates(), [0.5, 1.0], {0, 1, 2}
        )
        index.select(0, {0, 1})
        assert index.group_cost(0) == 0.5
        # group 0's budget is met, candidate 1 is blocked; candidate 2
        # still covers user 2.
        assert index.best() == 2

    def test_exhaustion_returns_minus_one(self):
        index = CandidateGainIndex(self._candidates(), [1.0, 1.0], set())
        assert index.best() == -1

    def test_initial_group_cost_validated(self):
        with pytest.raises(ValueError, match="one initial cost per group"):
            CandidateGainIndex(self._candidates(), [1.0, 1.0], set(), [0.0])


# -- the Hypothesis property --------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

RATE_LADDER = (6.0, 12.0, 18.0, 24.0, 36.0, 48.0, 54.0)


@st.composite
def scenarios(draw):
    """A random abstract problem plus a random join/leave/move script."""
    n_aps = draw(st.integers(min_value=1, max_value=5))
    n_users = draw(st.integers(min_value=1, max_value=10))
    n_sessions = draw(st.integers(min_value=1, max_value=3))
    link = [
        [
            draw(st.sampled_from((0.0,) + RATE_LADDER))
            for _ in range(n_users)
        ]
        for _ in range(n_aps)
    ]
    # Every user must hear at least one AP so moves can always target it.
    for u in range(n_users):
        if all(link[a][u] == 0.0 for a in range(n_aps)):
            link[draw(st.integers(0, n_aps - 1))][u] = draw(
                st.sampled_from(RATE_LADDER)
            )
    sessions = [
        Session(i, draw(st.sampled_from((0.5, 1.0, 2.0, 3.0))))
        for i in range(n_sessions)
    ]
    user_sessions = [
        draw(st.integers(0, n_sessions - 1)) for _ in range(n_users)
    ]
    problem = MulticastAssociationProblem(link, user_sessions, sessions)
    script = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_users - 1),
                st.one_of(st.none(), st.integers(0, n_aps - 1)),
            ),
            max_size=40,
        )
    )
    return problem, script


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_ledger_always_equals_oracle(case):
    """The tentpole property: ledger loads never disagree — exactly —
    with the verifier's naive recompute, under arbitrary churn."""
    problem, script = case
    ledger = LoadLedger(problem)
    for user, target in script:
        if target is not None and problem.link_rate(target, user) <= 0:
            # Out-of-range joins are legal ledger states (infinite load);
            # exercise them too, on every third event.
            if (user + target) % 3:
                continue
        ledger.move(user, target)
        assert ledger.loads() == oracle_loads(ledger)
        assert ledger.total_load() == math.fsum(oracle_loads(ledger))
    # And the frozen view agrees with the mutable ledger.
    final = ledger.to_assignment()
    assert final.loads() == ledger.loads()
    assert final.sorted_load_vector() == ledger.sorted_load_vector()
