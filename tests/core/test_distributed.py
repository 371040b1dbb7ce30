"""Tests for the distributed policies, dynamics and convergence."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.core.assignment import Assignment
from repro.core.distributed import (
    AssociationState,
    _vector_less,
    decide,
    run_distributed,
)
from repro.core.problem import MulticastAssociationProblem, Session
from repro.obs import collecting
from tests.conftest import random_problem


def fig4_problem() -> MulticastAssociationProblem:
    """The paper's Figure-4 oscillation example.

    a1 reaches u1, u2, u3 at 5, 4, 4 Mbps; a2 reaches u2, u3, u4 at
    4, 4, 5 Mbps. All four users request the same 1 Mbps session.
    """
    return MulticastAssociationProblem(
        link_rates=[[5, 4, 4, 0], [0, 4, 4, 5]],
        user_sessions=[0, 0, 0, 0],
        sessions=[Session(0, 1.0)],
    )


class TestAssociationState:
    def test_incremental_loads_match_assignment(self):
        rng = random.Random(127)
        for _ in range(20):
            p = random_problem(rng)
            state = AssociationState(p)
            local = random.Random(5)
            for _ in range(3 * p.n_users):
                user = local.randrange(p.n_users)
                choice = local.choice(p.aps_of_user(user) + [None])
                state.move(user, choice)
            reference = Assignment(p, state.ap_of_user)
            assert state.loads() == pytest.approx(reference.loads())

    def test_load_if_joined_and_left(self, fig1_load):
        state = AssociationState(fig1_load, [0, 0, None, None, None])
        # u3 joining a1: session 0 rate becomes min(3,4)=3, unchanged cost
        assert state.load_if_joined(2, 0) == pytest.approx(0.5)
        # u3 joining a2: new session at rate 5
        assert state.load_if_joined(2, 1) == pytest.approx(0.2)
        state.move(2, 0)
        assert state.load_if_left(0) == pytest.approx(
            0.5 - 1 / 3 + 1 / 4
        )  # s1 falls back to u3-only at rate 4

    def test_load_if_left_requires_association(self, fig1_load):
        state = AssociationState(fig1_load)
        with pytest.raises(ValueError):
            state.load_if_left(0)

    def test_state_key_encodes_unserved(self, fig1_load):
        state = AssociationState(fig1_load, [0, None, 1, None, None])
        assert state.state_key() == (0, -1, 1, -1, -1)


class TestPaperTraces:
    """Sequential decisions in user order u1..u5 on the Fig-1 WLAN."""

    def run_in_order(self, problem, policy):
        state = AssociationState(problem)
        for user in range(problem.n_users):
            state.move(user, decide(state, user, policy).target)
        return state

    def test_distributed_mnu_serves_four(self, fig1_mnu):
        state = self.run_in_order(fig1_mnu, "mnu")
        assert state.ap_of_user == [0, None, 0, 1, 1]

    def test_distributed_mla_all_on_a1(self, fig1_load):
        state = self.run_in_order(fig1_load, "mla")
        assert state.ap_of_user == [0, 0, 0, 0, 0]
        assert state.total_load() == pytest.approx(7 / 12)

    def test_distributed_bla_optimal_split(self, fig1_load):
        state = self.run_in_order(fig1_load, "bla")
        assert state.load_of(0) == pytest.approx(0.5)
        assert state.load_of(1) == pytest.approx(1 / 3)


class TestConvergence:
    def test_sequential_converges(self):
        rng = random.Random(131)
        for policy in ("mnu", "mla", "bla"):
            for _ in range(10):
                p = random_problem(rng)
                result = run_distributed(p, policy, rng=random.Random(3))
                assert result.converged
                assert not result.oscillated

    def test_sequential_total_load_monotone(self):
        """Each sequential MLA round cannot increase the total load once
        everyone is associated."""
        rng = random.Random(137)
        p = random_problem(rng, n_aps=4, n_users=10)
        result = run_distributed(p, "mla", rng=random.Random(4))
        state = AssociationState(p, result.assignment.ap_of_user)
        before = state.total_load()
        for user in range(p.n_users):
            decision = decide(state, user, "mla")
            state.move(user, decision.target)
        assert state.total_load() <= before + 1e-9

    def test_fig4_simultaneous_oscillates(self):
        """Users u2 and u3 swap APs forever under simultaneous decisions."""
        p = fig4_problem()
        result = run_distributed(
            p,
            "mla",
            mode="simultaneous",
            initial=[0, 0, 1, 1],
            shuffle_each_round=False,
            max_rounds=50,
        )
        assert result.oscillated
        assert not result.converged

    def test_fig4_sequential_converges(self):
        p = fig4_problem()
        result = run_distributed(
            p, "mla", mode="sequential", initial=[0, 0, 1, 1]
        )
        assert result.converged
        # total load improves on the initial 1/2
        assert result.assignment.total_load() <= 0.5

    def test_budget_respected_by_mnu(self):
        rng = random.Random(139)
        for _ in range(20):
            p = random_problem(rng, budget=rng.choice([0.2, 0.4]))
            result = run_distributed(p, "mnu", rng=random.Random(5))
            assert result.assignment.violations(check_budgets=True) == []

    def test_bla_and_mla_serve_everyone(self):
        rng = random.Random(149)
        for policy in ("mla", "bla"):
            for _ in range(10):
                p = random_problem(rng)
                result = run_distributed(p, policy, rng=random.Random(6))
                assert result.assignment.n_served == p.n_users

    def test_moves_counted(self, fig1_load):
        result = run_distributed(fig1_load, "mla", rng=random.Random(7))
        assert result.moves >= result.assignment.n_served

    def test_initial_assignment_respected(self, fig1_load):
        initial = [0, 0, 0, 0, 0]
        result = run_distributed(fig1_load, "mla", initial=initial)
        # already a local optimum for MLA: nothing moves
        assert result.assignment.ap_of_user == tuple(initial)
        assert result.moves == 0


class TestFigure4Regression:
    """Regression for the paper's Figure-4 two-AP example: simultaneous
    decisions oscillate forever, sequential decisions converge, and the
    Lemma 1–2 potential functions strictly decrease with every move."""

    def test_simultaneous_cycle_is_the_u2_u3_swap(self):
        """The oscillation is exactly the period-2 swap of u2 and u3."""
        p = fig4_problem()
        state = AssociationState(p, [0, 0, 1, 1])
        for _ in range(2):  # two simultaneous rounds return to the start
            decisions = [decide(state, u, "mla") for u in range(p.n_users)]
            # the edge users have nowhere to go; the middle users both
            # see the other AP emptier after their own departure and jump
            assert decisions[0].target == 0
            assert decisions[3].target == 1
            assert decisions[1].improves and decisions[2].improves
            for decision in decisions:
                state.move(decision.user, decision.target)
        assert state.ap_of_user == [0, 0, 1, 1]  # back where we started

    def test_simultaneous_detector_flags_the_cycle_early(self):
        result = run_distributed(
            fig4_problem(),
            "mla",
            mode="simultaneous",
            initial=[0, 0, 1, 1],
            shuffle_each_round=False,
            max_rounds=50,
        )
        assert result.oscillated
        assert result.rounds == 2  # detected on first state revisit

    def test_sequential_converges_from_every_initial(self):
        """Lemmas 1–2: whatever the starting association and policy,
        one-at-a-time dynamics reach quiescence with everyone served."""
        p = fig4_problem()
        choices = [p.aps_of_user(u) + [None] for u in range(p.n_users)]
        for initial in itertools.product(*choices):
            for policy in ("mla", "bla"):
                result = run_distributed(
                    p,
                    policy,
                    mode="sequential",
                    initial=list(initial),
                    shuffle_each_round=False,
                )
                assert result.converged, (policy, initial)
                assert result.assignment.n_served == p.n_users

    def test_lemma1_total_load_strictly_decreases_per_move(self):
        """Lemma 1's potential: every accepted sequential MLA move
        strictly drops the total load, so the dynamics must terminate."""
        p = fig4_problem()
        state = AssociationState(p, [0, 0, 1, 1])
        potential = state.total_load()
        moved = True
        for _ in range(20):
            moved = False
            for user in range(p.n_users):
                decision = decide(state, user, "mla")
                if decision.target != state.ap_of_user[user]:
                    state.move(user, decision.target)
                    assert state.total_load() < potential - 1e-12
                    potential = state.total_load()
                    moved = True
            if not moved:
                break
        assert not moved  # quiescent, not round-capped
        assert state.total_load() == pytest.approx(1 / 5 + 1 / 4)

    def test_lemma2_bla_sorted_vector_strictly_decreases_per_move(self):
        """Lemma 2's potential: every accepted sequential BLA move
        lexicographically drops the sorted load vector."""
        p = fig4_problem()
        state = AssociationState(p, [0, 0, 1, 1])
        vector = state.sorted_load_vector()
        moved = True
        for _ in range(20):
            moved = False
            for user in range(p.n_users):
                decision = decide(state, user, "bla")
                if decision.target != state.ap_of_user[user]:
                    state.move(user, decision.target)
                    assert state.sorted_load_vector() < vector
                    vector = state.sorted_load_vector()
                    moved = True
            if not moved:
                break
        assert not moved


class TestDecide:
    def test_unserved_user_joins_when_feasible(self, fig1_load):
        state = AssociationState(fig1_load)
        decision = decide(state, 0, "mla")
        assert decision.target == 0
        assert decision.improves

    def test_isolated_user_stays_unserved(self):
        p = MulticastAssociationProblem(
            [[1.0, 0.0]], [0, 0], [Session(0, 1.0)]
        )
        state = AssociationState(p)
        decision = decide(state, 1, "mla")
        assert decision.target is None
        assert not decision.improves

    def test_no_move_without_strict_improvement(self, fig1_load):
        state = AssociationState(fig1_load, [0, 0, 0, 0, 0])
        # u2 is already optimally placed for MLA
        decision = decide(state, 1, "mla")
        assert decision.target == 0
        assert not decision.improves

    def test_budget_excludes_infeasible_ap(self, fig1_mnu):
        state = AssociationState(fig1_mnu, [0, None, None, None, None])
        # u2 joining a1 would need 1 + 0.5 > 1: infeasible, no other AP
        decision = decide(state, 1, "mnu")
        assert decision.target is None


def reference_decide(state, user, policy, *, enforce_budgets=None, epsilon=1e-12):
    """The decision rule with every option's neighbour-load list rebuilt
    from ledger queries, the form ``decide`` must match bit for bit."""
    problem = state.problem
    if enforce_budgets is None:
        enforce_budgets = policy == "mnu"
    neighbors = problem.aps_of_user(user)
    if not neighbors:
        return (None, False)
    current = state.ap_of_user[user]

    def loads_after(target):
        loads = []
        for ap in neighbors:
            if ap == target and ap == current:
                loads.append(state.load_of(ap))
            elif ap == target:
                loads.append(state.load_if_joined(user, ap))
            elif ap == current:
                loads.append(state.load_if_left(user))
            else:
                loads.append(state.load_of(ap))
        return loads

    def score(target):
        loads = loads_after(target)
        metric = (
            sum(loads)
            if policy in ("mnu", "mla")
            else tuple(sorted(loads, reverse=True))
        )
        if target is None:
            return (metric, 0.0, problem.n_aps)
        return (metric, -problem.link_rate(target, user), target)

    options = [current]
    for ap in neighbors:
        if ap == current:
            continue
        if enforce_budgets:
            if state.load_if_joined(user, ap) > problem.budget_of(ap) + epsilon:
                continue
        options.append(ap)
    best = min(options, key=score)
    if current is None:
        feasible = [o for o in options if o is not None]
        if feasible:
            best = min(feasible, key=score)
        return (best, best is not None)
    if best == current:
        return (current, False)
    current_key, best_key = score(current), score(best)
    if policy in ("mnu", "mla"):
        improved = best_key[0] < current_key[0] - epsilon
    else:
        improved = _vector_less(best_key[0], current_key[0], epsilon)
    return (best, True) if improved else (current, False)


def reference_sequential(problem, policy, *, initial, rng, shuffle_each_round):
    """Sequential dynamics that decide every user in every round."""
    state = AssociationState(problem, initial)
    order = list(range(problem.n_users))
    moves = 0
    for rounds in range(1, 201):
        if shuffle_each_round:
            rng.shuffle(order)
        moved = False
        for user in order:
            target = decide(state, user, policy).target
            if target != state.ap_of_user[user]:
                state.move(user, target)
                moves += 1
                moved = True
        if not moved:
            return tuple(state.ap_of_user), rounds, moves, True
    return tuple(state.ap_of_user), 200, moves, False


def random_initial(rng, problem, kind):
    """``none``, or a map over *all* APs (so some users start on an AP they
    do not hear), ``partial`` leaving some users unserved."""
    if kind == "none":
        return None
    return [
        None if kind == "partial" and rng.random() < 0.4
        else rng.randrange(problem.n_aps)
        for _ in range(problem.n_users)
    ]


def random_policies(rng, problem):
    return problem.with_policies(
        [rng.choice(("legacy", "dms", "hybrid")) for _ in range(problem.n_sessions)]
    )


class TestSettledWorklist:
    """Sequential rounds skip users whose neighbourhood has not changed
    since they decided to stay; that must replay the every-user loop."""

    def test_matches_deciding_every_user(self):
        rng = random.Random(151)
        unheard_starts = 0
        for index in range(24):
            p = random_problem(
                rng,
                n_users=rng.randint(1, 16),
                budget=rng.choice([math.inf, 0.3]),
                ensure_coverage=index % 3 != 0,
            )
            for policy, shuffle, kind in itertools.product(
                ("mnu", "mla", "bla"), (True, False), ("none", "partial", "full")
            ):
                initial = random_initial(rng, p, kind)
                if initial is not None:
                    unheard_starts += sum(
                        ap is not None and not p.in_range(ap, u)
                        for u, ap in enumerate(initial)
                    )
                result = run_distributed(
                    p,
                    policy,
                    initial=initial,
                    rng=random.Random(index),
                    shuffle_each_round=shuffle,
                )
                expected = reference_sequential(
                    p,
                    policy,
                    initial=initial,
                    rng=random.Random(index),
                    shuffle_each_round=shuffle,
                )
                got = (
                    result.assignment.ap_of_user,
                    result.rounds,
                    result.moves,
                    result.converged,
                )
                assert got == expected, (index, policy, shuffle, kind)
        assert unheard_starts > 0

    def test_decisions_counter_counts_decisions_made(self, fig1_load):
        # Already a local optimum: one round in which all five users stay.
        with collecting() as session:
            run_distributed(fig1_load, "mla", initial=[0] * 5)
        assert session.metrics.snapshot()["counters"]["distributed.decisions"] == 5
        # Fig. 4 from the swap state: u2 (user 1) moves in round 1, which
        # unsettles both APs' hearers, so round 1 decides all four users.
        # Round 2 skips only the users settled after that move (users 2, 3).
        with collecting() as session:
            result = run_distributed(
                fig4_problem(),
                "mla",
                initial=[0, 0, 1, 1],
                shuffle_each_round=False,
            )
        counters = session.metrics.snapshot()["counters"]
        assert result.assignment.ap_of_user == (0, 1, 1, 1)
        assert (result.rounds, result.moves) == (2, 1)
        assert counters["distributed.decisions"] == 4 + 2

    def test_simultaneous_decides_every_user(self):
        with collecting() as session:
            result = run_distributed(
                fig4_problem(),
                "mla",
                mode="simultaneous",
                initial=[0, 0, 1, 1],
                shuffle_each_round=False,
                max_rounds=50,
            )
        counters = session.metrics.snapshot()["counters"]
        assert counters["distributed.decisions"] == result.rounds * 4


class TestDecideMatchesPerOptionRebuild:
    def test_random_states(self):
        rng = random.Random(157)
        seen = dict.fromkeys(
            ("unserved", "budget_excluded", "unheard_current", "non_legacy"),
            False,
        )
        for index in range(40):
            p = random_problem(
                rng,
                n_users=rng.randint(1, 14),
                budget=rng.choice([math.inf, 0.2, 0.5]),
                ensure_coverage=index % 4 != 0,
            )
            if index % 2:
                p = random_policies(rng, p)
                seen["non_legacy"] |= any(
                    policy != "legacy" for policy in p.session_policies
                )
            state = AssociationState(
                p, random_initial(rng, p, rng.choice(("partial", "full")))
            )
            for step in range(3 * p.n_users):
                user = step % p.n_users
                current = state.ap_of_user[user]
                neighbors = p.aps_of_user(user)
                seen["unserved"] |= current is None and bool(neighbors)
                seen["unheard_current"] |= (
                    current is not None and bool(neighbors)
                    and current not in neighbors
                )
                seen["budget_excluded"] |= any(
                    state.load_if_joined(user, ap) > p.budget_of(ap) + 1e-12
                    for ap in neighbors
                    if ap != current
                )
                for policy in ("mnu", "mla", "bla"):
                    for enforce in (None, not (policy == "mnu")):
                        got = decide(state, user, policy, enforce_budgets=enforce)
                        want = reference_decide(
                            state, user, policy, enforce_budgets=enforce
                        )
                        assert (got.target, got.improves) == want, (
                            index, step, policy, enforce
                        )
                # walk the state forward so later steps see other maps
                state.move(user, decide(state, user, rng.choice(("mnu", "bla"))).target)
        assert all(seen.values()), seen
