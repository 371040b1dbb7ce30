"""Tests for candidate-set construction (the shared reduction)."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import (
    CandidateFamily,
    CandidateSet,
    build_candidates,
    build_family,
    coverable_users,
    group_by_ap,
    restrict_to_users,
)
from repro.core.problem import TX_POLICIES, MulticastAssociationProblem, Session
from tests.conftest import paper_example_problem, random_problem


def by_key(candidates):
    return {(c.ap, c.session, c.tx_rate): c for c in candidates}


class TestBuildCandidates:
    def test_paper_fig2_sets(self):
        """The MNU reduction of Fig. 2 (3 Mbps streams), pruned to the
        distinct-link-rate transmit rates."""
        p = paper_example_problem(3.0)
        sets = by_key(build_candidates(p))
        # a1, s1: rates {3: {u1,u3}, 4: {u3}}
        assert sets[(0, 0, 3.0)].users == frozenset({0, 2})
        assert sets[(0, 0, 3.0)].cost == pytest.approx(1.0)
        assert sets[(0, 0, 4.0)].users == frozenset({2})
        # a1, s2: rates {4: {u2,u4,u5}, 6: {u2}}
        assert sets[(0, 1, 4.0)].users == frozenset({1, 3, 4})
        assert sets[(0, 1, 4.0)].cost == pytest.approx(0.75)
        assert sets[(0, 1, 6.0)].users == frozenset({1})
        # a2, s1: {5: {u3}}; a2, s2: {3: {u4,u5}, 5: {u4}}
        assert sets[(1, 0, 5.0)].users == frozenset({2})
        assert sets[(1, 1, 3.0)].users == frozenset({3, 4})
        assert sets[(1, 1, 5.0)].users == frozenset({3})
        assert len(sets) == 7  # exactly the paper's S1..S7

    def test_unpruned_uses_rate_grid(self):
        p = paper_example_problem(1.0)
        sets = build_candidates(p, prune=False, rate_grid=[1, 2, 3, 4, 5, 6])
        keys = {(c.ap, c.session, c.tx_rate) for c in sets}
        # a1/s1 max link is 4 -> grid rates 1..4 emitted
        assert (0, 0, 1.0) in keys and (0, 0, 4.0) in keys
        assert (0, 0, 5.0) not in keys

    def test_unpruned_requires_grid(self):
        with pytest.raises(ValueError):
            build_candidates(paper_example_problem(1.0), prune=False)

    def test_costs_are_session_rate_over_tx_rate(self):
        p = paper_example_problem(1.0)
        for c in build_candidates(p):
            assert c.cost == pytest.approx(
                p.session_rate(c.session) / c.tx_rate
            )

    def test_every_user_in_its_sets_can_decode(self):
        rng = random.Random(11)
        for _ in range(10):
            p = random_problem(rng)
            for c in build_candidates(p):
                for u in c.users:
                    assert p.session_of(u) == c.session
                    assert p.link_rate(c.ap, u) >= c.tx_rate

    def test_pruning_is_lossless(self):
        """Every unpruned set is dominated by (or equal to) a pruned set:
        same-or-more users at same-or-lower cost from the same AP/session."""
        rng = random.Random(5)
        for _ in range(10):
            p = random_problem(rng)
            pruned = build_candidates(p, prune=True)
            grid = sorted({r for row in p.link_rates for r in row if r > 0})
            full = build_candidates(p, prune=False, rate_grid=grid)
            for big in full:
                assert any(
                    small.ap == big.ap
                    and small.session == big.session
                    and small.users >= big.users
                    and small.cost <= big.cost + 1e-12
                    for small in pruned
                )

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            CandidateSet(0, 0, 0.0, 1.0, frozenset({1}))
        with pytest.raises(ValueError):
            CandidateSet(0, 0, 1.0, 0.0, frozenset({1}))
        with pytest.raises(ValueError):
            CandidateSet(0, 0, 1.0, 1.0, frozenset())


class TestHelpers:
    def test_group_by_ap(self):
        p = paper_example_problem(1.0)
        groups = group_by_ap(build_candidates(p), p.n_aps)
        assert len(groups) == 2
        assert all(c.ap == 0 for c in groups[0])
        assert all(c.ap == 1 for c in groups[1])

    def test_coverable_users(self):
        p = paper_example_problem(1.0)
        assert coverable_users(build_candidates(p)) == {0, 1, 2, 3, 4}

    def test_restrict_to_users(self):
        p = paper_example_problem(1.0)
        restricted = restrict_to_users(build_candidates(p), {2})
        assert restricted
        assert all(c.users == frozenset({2}) for c in restricted)
        # costs/rates survive restriction unchanged
        original = by_key(build_candidates(p))
        for c in restricted:
            assert c.cost == original[(c.ap, c.session, c.tx_rate)].cost

    def test_restrict_drops_empty(self):
        p = paper_example_problem(1.0)
        assert restrict_to_users(build_candidates(p), set()) == []


# -- the one-pass array family ------------------------------------------------

# Few distinct values, 0.0 (out of range) twice as likely: columns go
# all-zero (isolated users) and link rates tie within a group.
LINK_RATES = (0.0, 0.0, 6.0, 12.0, 12.0, 54.0)


@st.composite
def policy_problems(draw):
    """Instances with mixed policies, isolated users, unheard sessions."""
    n_aps = draw(st.integers(min_value=1, max_value=5))
    n_users = draw(st.integers(min_value=0, max_value=14))
    n_sessions = draw(st.integers(min_value=1, max_value=4))
    link = [
        [draw(st.sampled_from(LINK_RATES)) for _ in range(n_users)]
        for _ in range(n_aps)
    ]
    # Users draw from the first sessions only, so the last can go unheard.
    user_sessions = [
        draw(st.integers(min_value=0, max_value=max(n_sessions - 2, 0)))
        for _ in range(n_users)
    ]
    sessions = [
        Session(i, draw(st.sampled_from((0.5, 1.0, 3.0))))
        for i in range(n_sessions)
    ]
    policies = [draw(st.sampled_from(TX_POLICIES)) for _ in range(n_sessions)]
    return MulticastAssociationProblem(
        link, user_sessions, sessions, policies=policies
    )


def family_bytes(family):
    return {
        name: bytes(getattr(family, name))
        for name in ("ap", "session", "tx_rate", "cost", "offsets", "members")
    }


@settings(max_examples=200, deadline=None)
@given(policy_problems())
def test_one_pass_family_matches_scalar_bytes(problem):
    previous = os.environ.pop("REPRO_VEC_NUMPY", None)
    try:
        family = build_family(problem, strategy="vector")
    finally:
        if previous is not None:
            os.environ["REPRO_VEC_NUMPY"] = previous
    reference = CandidateFamily.from_candidates(
        build_candidates(problem), n_users=problem.n_users, n_aps=problem.n_aps
    )
    assert family_bytes(family) == family_bytes(reference)
    assert (family.n_users, family.n_aps) == (problem.n_users, problem.n_aps)

    inc_offsets, inc_candidates = family.incidence()
    for user in range(problem.n_users):
        covering = [
            k for k in range(len(family)) if user in family.members_of(k)
        ]
        assert (
            list(inc_candidates[inc_offsets[user] : inc_offsets[user + 1]])
            == covering
        )
    assert len(inc_offsets) == problem.n_users + 1
    assert len(inc_candidates) == len(family.members)

    isolated = problem.isolated_users()
    assert all(type(user) is int for user in isolated)
    assert isolated == [
        user
        for user in range(problem.n_users)
        if not any(
            problem.link_rate(ap, user) > 0 for ap in range(problem.n_aps)
        )
    ]
