"""Tests for report-based local decisions.

The central invariant: given *truthful* LoadReports, the station-side
``decide_local`` picks exactly the AP that the global-state ``decide``
(repro.core.distributed) would — the protocol loses nothing relative to
the abstract algorithm when reports are fresh. Both feed one rule,
``repro.core.distributed.choose``; stations price joins by Definition 1,
so the instances use legacy sessions only.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.distributed import AssociationState, decide
from repro.core.problem import MulticastAssociationProblem, Session
from repro.net.messages import SessionInfo
from repro.net.policy import NeighborInfo, decide_local, load_if_joined
from tests.conftest import paper_example_problem, random_problem


def truthful_neighbors(problem, state, user):
    """Build the NeighborInfo list a perfectly-informed station would hold."""
    current = state.ap_of_user[user]
    infos = []
    for ap in problem.aps_of_user(user):
        sessions = {}
        for s in range(problem.n_sessions):
            members = [
                u
                for u, a in enumerate(state.ap_of_user)
                if a == ap and problem.session_of(u) == s
            ]
            if members:
                rate = min(problem.link_rate(ap, u) for u in members)
                sessions[s] = SessionInfo(s, rate, len(members))
        infos.append(
            NeighborInfo(
                ap_id=ap,
                link_rate_mbps=problem.link_rate(ap, user),
                load=state.load_of(ap),
                sessions=sessions,
                budget=problem.budget_of(ap),
                load_without_me=(
                    state.load_if_left(user) if current == ap else None
                ),
            )
        )
    return infos


def warmed_state(problem, seed=12):
    """A random feasible association of the users (budgets respected)."""
    state = AssociationState(problem)
    walk = random.Random(seed)
    for _ in range(problem.n_users):
        u = walk.randrange(problem.n_users)
        aps = problem.aps_of_user(u)
        if aps:
            choice = walk.choice(aps)
            candidate = state.load_if_joined(u, choice)
            if candidate <= problem.budget_of(choice) + 1e-12:
                state.move(u, choice)
    return state


def without_link(problem, ap, user):
    """``problem`` with the ``ap``–``user`` link removed."""
    rates = problem.link_rates.copy()
    rates[ap, user] = 0.0
    return MulticastAssociationProblem(
        rates, problem.user_sessions, problem.sessions, problem.budgets
    )


def local(policy, problem, user, neighbors, current):
    session = problem.session_of(user)
    return decide_local(
        policy, session, problem.session_rate(session), neighbors, current
    )


class TestEquivalenceWithGlobalDecide:
    @pytest.mark.parametrize("policy", ["mnu", "mla", "bla"])
    def test_matches_core_decide(self, policy):
        cases = {"unreported current": 0, "served, no option": 0}
        if policy == "mnu":
            cases["budget exclusion"] = 0
        budgets = (0.5, 0.2) if policy == "mnu" else (math.inf,)
        instances = []
        for budget in budgets:
            rng = random.Random(199)
            instances += [random_problem(rng, budget=budget) for _ in range(30)]
        for p in instances:
            state = warmed_state(p)
            for user in range(p.n_users):
                current = state.ap_of_user[user]
                neighbors = truthful_neighbors(p, state, user)
                expected = decide(state, user, policy).target
                got = local(policy, p, user, neighbors, current)
                assert got == expected, (policy, user)

                others = [ap for ap in p.aps_of_user(user) if ap != current]
                over = [
                    ap
                    for ap in others
                    if state.load_if_joined(user, ap) > p.budget_of(ap) + 1e-12
                ]
                if policy == "mnu" and over:
                    cases["budget exclusion"] += 1
                if current is None:
                    continue
                if not others or (policy == "mnu" and over == others):
                    cases["served, no option"] += 1
                    assert got == current

                # The current AP's report is lost: the station decides as
                # an unassociated user that does not hear that AP.
                reported = [n for n in neighbors if n.ap_id != current]
                if not reported:
                    continue  # no reports at all: see TestEdgeCases
                cases["unreported current"] += 1
                unheard = without_link(p, current, user)
                moved = list(state.ap_of_user)
                moved[user] = None
                expected = decide(
                    AssociationState(unheard, moved), user, policy
                ).target
                got = local(policy, p, user, reported, current)
                assert got == expected, (policy, user, "unreported")
        assert all(cases.values()), cases

    def test_bla_near_tie_stays(self):
        """Moving would raise the top load by one ulp and zero the second:
        better only within the tolerance, worse exactly. Staying ranks
        ahead of the move, so both deciders stay."""
        p = MulticastAssociationProblem(
            [[1, 0], [12, 4]], [1, 0], [Session(0, 1.1), Session(1, 0.3)]
        )
        state = AssociationState(p, [0, 1])
        assert decide(state, 0, "bla").target == 0
        neighbors = truthful_neighbors(p, state, 0)
        assert local("bla", p, 0, neighbors, 0) == 0


class TestLoadIfJoined:
    def test_new_session(self):
        info = NeighborInfo(ap_id=0, link_rate_mbps=6.0, load=0.5)
        assert load_if_joined(info, 0, 1.0) == pytest.approx(0.5 + 1 / 6)

    def test_existing_session_faster_link(self):
        info = NeighborInfo(
            ap_id=0,
            link_rate_mbps=54.0,
            load=1 / 6,
            sessions={0: SessionInfo(0, 6.0, 2)},
        )
        # joining at a faster link doesn't change the session's min rate
        assert load_if_joined(info, 0, 1.0) == pytest.approx(1 / 6)

    def test_existing_session_slower_link(self):
        info = NeighborInfo(
            ap_id=0,
            link_rate_mbps=6.0,
            load=1 / 54,
            sessions={0: SessionInfo(0, 54.0, 1)},
        )
        assert load_if_joined(info, 0, 1.0) == pytest.approx(1 / 6)


class TestEdgeCases:
    def test_no_neighbors_keeps_current(self):
        assert decide_local("mla", 0, 1.0, [], current_ap=None) is None
        assert decide_local("mla", 0, 1.0, [], current_ap=3) == 3

    def test_budget_excludes_all(self):
        info = NeighborInfo(
            ap_id=0, link_rate_mbps=6.0, load=0.0, budget=0.1
        )
        assert (
            decide_local("mnu", 0, 1.0, [info], current_ap=None) is None
        )

    def test_unbudgeted_mla_accepts(self):
        info = NeighborInfo(
            ap_id=0, link_rate_mbps=6.0, load=0.0, budget=0.1
        )
        assert decide_local("mla", 0, 1.0, [info], current_ap=None) == 0

    def test_paper_distributed_bla_step(self):
        """The u4 step of the Section-5.2 example via reports."""
        p = paper_example_problem(1.0)
        state = AssociationState(p, [0, 0, 0, None, None])
        neighbors = truthful_neighbors(p, state, 3)
        assert decide_local("bla", 1, 1.0, neighbors, None) == 1
