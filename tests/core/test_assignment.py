"""Tests for assignments and derived loads."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.assignment import (
    Assignment,
    compare_load_vectors,
    from_selected_sets,
    served_counts_by_ap,
)
from repro.core.candidates import (
    CandidateFamily,
    CandidateSet,
    build_candidates,
    build_family,
)
from repro.core.errors import InfeasibleAssignmentError, ModelError
from repro.core.problem import TX_POLICIES
from tests.conftest import PYTEST_SEED, paper_example_problem, random_problem


class TestBasics:
    def test_empty(self):
        p = paper_example_problem(1.0)
        a = Assignment.empty(p)
        assert a.n_served == 0
        assert a.total_load() == 0.0
        assert a.max_load() == 0.0
        assert a.unserved_users() == [0, 1, 2, 3, 4]

    def test_rejects_wrong_length(self):
        with pytest.raises(ModelError):
            Assignment(paper_example_problem(1.0), [None, None])

    def test_rejects_unknown_ap(self):
        with pytest.raises(ModelError):
            Assignment(paper_example_problem(1.0), [7, None, None, None, None])

    def test_replace(self):
        p = paper_example_problem(1.0)
        a = Assignment.empty(p).replace(0, 0)
        assert a.ap_of(0) == 0
        assert a.n_served == 1

    def test_served_and_unserved(self):
        p = paper_example_problem(1.0)
        a = Assignment(p, [0, None, 1, None, None])
        assert a.served_users() == [0, 2]
        assert a.unserved_users() == [1, 3, 4]


class TestDerivedLoads:
    def test_paper_bla_optimal_loads(self):
        """u1,u2,u3 on a1 and u4,u5 on a2 -> loads (1/2, 1/3)."""
        p = paper_example_problem(1.0)
        a = Assignment(p, [0, 0, 0, 1, 1])
        assert a.load_of(0) == pytest.approx(1 / 3 + 1 / 6)
        assert a.load_of(1) == pytest.approx(1 / 3)
        assert a.max_load() == pytest.approx(1 / 2)
        assert a.total_load() == pytest.approx(5 / 6)

    def test_tx_rate_is_min_member_rate(self):
        p = paper_example_problem(1.0)
        a = Assignment(p, [0, 0, 0, 1, 1])
        assert a.tx_rate(0, 0) == 3  # u1@3, u3@4 -> 3
        assert a.tx_rate(0, 1) == 6  # only u2
        assert a.tx_rate(1, 1) == 3  # u4@5, u5@3 -> 3
        assert a.tx_rate(1, 0) is None

    def test_all_on_a1_total(self):
        p = paper_example_problem(1.0)
        a = Assignment(p, [0, 0, 0, 0, 0])
        assert a.total_load() == pytest.approx(7 / 12)

    def test_sorted_load_vector(self):
        p = paper_example_problem(1.0)
        a = Assignment(p, [0, 0, 0, 1, 1])
        assert a.sorted_load_vector() == pytest.approx((0.5, 1 / 3))

    def test_users_on_and_sessions_on(self):
        p = paper_example_problem(1.0)
        a = Assignment(p, [0, 0, 0, 1, 1])
        assert a.users_on(0) == [0, 1, 2]
        assert a.users_on(0, session=0) == [0, 2]
        assert a.sessions_on(1) == [1]


class TestValidation:
    def test_out_of_range_violation(self):
        p = paper_example_problem(1.0)
        a = Assignment(p, [1, None, None, None, None])  # u1 can't hear a2
        assert any("out of range" in v for v in a.violations())
        with pytest.raises(InfeasibleAssignmentError):
            a.validate()

    def test_budget_violation(self):
        p = paper_example_problem(3.0, budget=1.0)
        a = Assignment(p, [0, 0, None, None, None])  # 1 + 0.5 = 1.5 > 1
        assert any("exceeds budget" in v for v in a.violations())
        assert a.violations(check_budgets=False) == []

    def test_feasible_validates(self):
        p = paper_example_problem(1.0, budget=0.9)
        a = Assignment(p, [0, 0, 0, 1, 1])
        assert a.validate() is a


def _selected(problem, rows):
    """:func:`from_selected_sets` over ``(ap, session, tx_rate, users)``
    rows, selected in order."""
    family = CandidateFamily.from_candidates(
        [CandidateSet(ap, s, rate, 1.0, frozenset(u)) for ap, s, rate, u in rows],
        n_users=problem.n_users,
        n_aps=problem.n_aps,
    )
    return from_selected_sets(problem, family, range(len(rows)))


class TestFromSelectedSets:
    def test_basic_mapping(self):
        p = paper_example_problem(1.0)
        a = _selected(p, [(0, 1, 4.0, [1, 3, 4]), (0, 0, 3.0, [0, 2])])
        assert a.ap_of_user == (0, 0, 0, 0, 0)
        assert a.total_load() == pytest.approx(7 / 12)

    def test_user_prefers_best_rate_ap(self):
        p = paper_example_problem(1.0)
        # u3 appears in sets of both APs; its link to a2 (5) beats a1 (4)
        a = _selected(p, [(0, 0, 3.0, [0, 2]), (1, 0, 5.0, [2])])
        assert a.ap_of(2) == 1

    def test_rejects_wrong_session(self):
        p = paper_example_problem(1.0)
        with pytest.raises(ModelError):
            _selected(p, [(0, 0, 3.0, [1])])  # u2 requests s2

    def test_rejects_undecodable_rate(self):
        p = paper_example_problem(1.0)
        with pytest.raises(ModelError):
            _selected(p, [(0, 0, 6.0, [0])])  # u1 links at 3 < 6

    def test_ap_minus_one_is_not_unserved(self):
        # AP -1 indexes the last AP's link, as a negative numpy index
        # does, and then fails as an unknown AP, not as "unserved".
        p = paper_example_problem(1.0)
        with pytest.raises(ModelError, match="user 2 assigned to unknown AP -1"):
            _selected(p, [(0, 0, 3.0, [0]), (-1, 0, 5.0, [2])])


def reference_from_selected_sets(problem, selections):
    """The per-selection, per-user loop ``from_selected_sets`` replaced:
    kept here as the differential reference."""
    ap_of_user = [None] * problem.n_users
    best_rate = [-1.0] * problem.n_users
    for ap, session, tx_rate, users in selections:
        for user in sorted(users):
            if problem.session_of(user) != session:
                raise ModelError(
                    f"user {user} does not request session {session}"
                )
            link = problem.link_rate(ap, user)
            if link < tx_rate:
                raise ModelError(
                    f"user {user} cannot decode AP {ap} at {tx_rate} Mbps"
                )
            if link > best_rate[user]:
                best_rate[user] = link
                ap_of_user[user] = ap
    return Assignment(problem, ap_of_user)


def _outcome(run):
    """``(map, float.hex loads, group order, ledger counters)`` of an
    assignment, or the error it raised."""
    try:
        a = run()
    except ModelError as error:
        return ("error", str(error))
    ledger = a.ledger
    return (
        a.ap_of_user,
        [x.hex() for x in a.loads()],
        list(ledger.group_items()),
        ledger.op_counts(),
    )


def _random_selection_case(rng):
    """A random instance (legacy, DMS or hybrid sessions; few distinct
    rates, so links tie) and selections drawn from its candidates,
    shuffled and overlapping, some repeated, some corrupted."""
    problem = random_problem(
        rng,
        n_aps=rng.randint(1, 5),
        n_users=rng.randint(1, 14),
        rates=(6.0, 12.0, 24.0),
        reach_probability=0.6,
    )
    problem = problem.with_policies(
        [rng.choice(TX_POLICIES) for _ in range(problem.n_sessions)]
    )
    candidates = build_candidates(problem)
    picks = [rng.randrange(len(candidates)) for _ in range(rng.randint(0, 8))]
    rows = []
    for k in picks:
        c = candidates[k]
        ap, session, rate, users = c.ap, c.session, c.tx_rate, set(c.users)
        corruption = rng.random()
        if corruption < 0.06:
            session = (session + 1) % problem.n_sessions
        elif corruption < 0.12:
            rate = rate * 4
        elif corruption < 0.18:
            ap = -1
        elif corruption < 0.24:
            users.add(rng.randrange(problem.n_users))
        rows.append((ap, session, rate, users))
    return problem, rows


class TestFromSelectedSetsDifferential:
    def test_matches_the_per_user_loop(self):
        rng = random.Random(PYTEST_SEED)
        outcomes = {"served": 0, "partial": 0, "error": 0, "minus_one": 0}
        for _ in range(400):
            problem, rows = _random_selection_case(rng)
            family = CandidateFamily.from_candidates(
                [
                    CandidateSet(ap, s, rate, 1.0, frozenset(users))
                    for ap, s, rate, users in rows
                ],
                n_users=problem.n_users,
                n_aps=problem.n_aps,
            )
            got = _outcome(
                lambda: from_selected_sets(problem, family, range(len(rows)))
            )
            want = _outcome(
                lambda: reference_from_selected_sets(problem, rows)
            )
            assert got == want, (problem.link_rates.tolist(), rows)
            if got[0] == "error":
                outcomes["error"] += 1
                outcomes["minus_one"] += "unknown AP -1" in got[1]
            elif None in got[0]:
                outcomes["partial"] += 1
            else:
                outcomes["served"] += 1
        assert all(outcomes.values()), outcomes

    def test_any_pick_order_and_repeats(self):
        """Indices into one family, in any order and with repeats, read
        as the same candidate sets listed in that order."""
        rng = random.Random(PYTEST_SEED + 1)
        for _ in range(100):
            problem = random_problem(rng, rates=(6.0, 12.0, 24.0))
            family = build_family(problem)
            chosen = [
                rng.randrange(family.n_candidates)
                for _ in range(rng.randint(0, 10))
            ]
            rows = [
                (c.ap, c.session, c.tx_rate, c.users)
                for c in (family.candidate(k) for k in chosen)
            ]
            assert _outcome(
                lambda: from_selected_sets(problem, family, chosen)
            ) == _outcome(lambda: reference_from_selected_sets(problem, rows))


class TestCompareLoadVectors:
    def test_orders_by_first_difference(self):
        assert compare_load_vectors([0.5, 0.2], [0.5, 0.3]) == -1
        assert compare_load_vectors([0.6, 0.0], [0.5, 0.5]) == 1

    def test_equal(self):
        assert compare_load_vectors([0.3, 0.1], [0.1, 0.3]) == 0

    def test_sorting_is_applied(self):
        # (0.2, 0.5) sorts to (0.5, 0.2): compare as sorted vectors
        assert compare_load_vectors([0.2, 0.5], [0.5, 0.3]) == -1

    def test_length_mismatch(self):
        with pytest.raises(ModelError):
            compare_load_vectors([0.1], [0.1, 0.2])


class TestMisc:
    def test_served_counts_by_ap(self):
        p = paper_example_problem(1.0)
        a = Assignment(p, [0, 0, 1, 1, None])
        assert served_counts_by_ap(a) == {0: 2, 1: 2}

    def test_equality_and_hash(self):
        p = paper_example_problem(1.0)
        a = Assignment(p, [0, 0, 0, 1, 1])
        b = Assignment(p, [0, 0, 0, 1, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != a.replace(0, None)

    def test_repr_contains_counts(self):
        p = paper_example_problem(1.0)
        assert "served=5/5" in repr(Assignment(p, [0, 0, 0, 1, 1]))

    def test_infinite_load_for_unservable_member(self):
        # Force an impossible grouping via the raw constructor: u1 on a2.
        p = paper_example_problem(1.0)
        a = Assignment(p, [1, None, None, None, None])
        assert a.load_of(1) == math.inf
