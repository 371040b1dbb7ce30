"""Production == reference, bit for bit, on every array-backed hot path.

The reference contract (docs/architecture.md, "one implementation per
hot loop"): the production solvers run their hot loops on numpy arrays,
and each keeps a scalar reference function beside it that no production
call reaches. The two must be *indistinguishable* — same user→AP maps,
same ``float.hex`` loads, same selection orders, same instrumentation
counters, same error messages. Hypothesis drives 200 random instances
through each pair. Materialization and stitching keep no scalar
reference; they are checked against a declarative restatement of their
contract instead.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import from_selected_sets
from repro.core.bla import solve_bla, solve_bla_reference
from repro.core.candidates import (
    CandidateFamily,
    build_candidates,
    build_family,
    restrict_to_users,
)
from repro.core.errors import CoverageError, ModelError
from repro.core.mcg import greedy_mcg, greedy_mcg_flat
from repro.core.mla import solve_mla, solve_mla_reference
from repro.core.mnu import solve_mnu, solve_mnu_reference
from repro.core.problem import MulticastAssociationProblem, Session
from repro.core.setcover import greedy_set_cover, greedy_set_cover_flat
from repro.engine.shard import stitch_arrays
from repro.obs import collecting

RATES = (6.0, 12.0, 18.0, 24.0, 36.0, 48.0, 54.0)
BUDGETS = (math.inf, 1.5, 0.9, 0.5)

N_EXAMPLES = 200


def run_with_counters(fn):
    """Call ``fn`` under a fresh obs session; return it with its counters."""
    with collecting() as session:
        result = fn()
    return result, dict(session.metrics.counters())


@st.composite
def problems(draw, max_aps=5, max_users=12, budgets=BUDGETS):
    """Random covered instances with ladder link rates."""
    n_aps = draw(st.integers(min_value=1, max_value=max_aps))
    n_users = draw(st.integers(min_value=1, max_value=max_users))
    n_sessions = draw(st.integers(min_value=1, max_value=3))
    budget = draw(st.sampled_from(budgets))
    link = [[0.0] * n_users for _ in range(n_aps)]
    for u in range(n_users):
        n_links = draw(st.integers(min_value=1, max_value=n_aps))
        aps = draw(
            st.permutations(range(n_aps)).map(lambda p: list(p)[:n_links])
        )
        for a in aps:
            link[a][u] = draw(st.sampled_from(RATES))
    sessions = [Session(i, 1.0) for i in range(n_sessions)]
    user_sessions = [
        draw(st.integers(min_value=0, max_value=n_sessions - 1))
        for _ in range(n_users)
    ]
    return MulticastAssociationProblem(link, user_sessions, sessions, budget)


def assert_same_assignment(reference, production):
    assert reference.ap_of_user == production.ap_of_user
    assert [x.hex() for x in reference.loads()] == [
        x.hex() for x in production.loads()
    ]


# -- candidate-set construction -----------------------------------------------


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(problems())
def test_build_family_identical(problem):
    reference = CandidateFamily.from_candidates(
        build_candidates(problem), n_users=problem.n_users, n_aps=problem.n_aps
    )
    family = build_family(problem)
    assert list(reference.ap) == list(family.ap)
    assert list(reference.session) == list(family.session)
    assert [x.hex() for x in reference.tx_rate] == [
        x.hex() for x in family.tx_rate
    ]
    assert [x.hex() for x in reference.cost] == [x.hex() for x in family.cost]
    assert list(reference.offsets) == list(family.offsets)
    assert list(reference.members) == list(family.members)


# -- MCG greedy coverage ------------------------------------------------------


#: Per-AP budgets and carried-in group costs for the MCG differential:
#: with unit-rate sessions a candidate costs 1/54 to 1/6, so some groups
#: start closed (carried cost at or over budget) and others close after a
#: pick or two. A budget of 1/6 is met exactly by one rate-6 pick, which
#: closes the group without overshooting it.
GROUP_BUDGETS = (math.inf, 0.3, 1 / 6, 0.15, 0.05)
CARRIED_COSTS = (0.0, 0.04, 0.1, 0.2)


def masks(size):
    return st.none() | st.lists(st.booleans(), min_size=size, max_size=size)


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(problems(), st.booleans(), st.data())
def test_mcg_flat_matches_scalar(problem, split, data):
    """The flat MCG on a ground subset, a live mask and carried group
    costs — the inputs of iterated MNU and MNU — matches the scalar
    greedy on the candidate list those inputs restrict to."""
    candidates = build_candidates(problem)
    family = build_family(problem)
    ground_mask = data.draw(masks(problem.n_users))
    live = data.draw(masks(len(candidates)))
    budgets = data.draw(
        st.lists(
            st.sampled_from(GROUP_BUDGETS),
            min_size=problem.n_aps,
            max_size=problem.n_aps,
        )
    )
    carried = data.draw(
        st.none()
        | st.lists(
            st.sampled_from(CARRIED_COSTS),
            min_size=problem.n_aps,
            max_size=problem.n_aps,
        )
    )
    ground = set(range(problem.n_users))
    if ground_mask is not None:
        ground = {u for u in ground if ground_mask[u]}
    index_of = {(c.ap, c.session, c.tx_rate): k for k, c in enumerate(candidates)}
    restricted = restrict_to_users(
        [c for k, c in enumerate(candidates) if live is None or live[k]],
        ground,
    )
    scalar, scalar_counters = run_with_counters(
        lambda: greedy_mcg(
            restricted,
            budgets,
            ground,
            split=split,
            initial_group_cost=carried,
        )
    )
    flat, flat_counters = run_with_counters(
        lambda: greedy_mcg_flat(
            family,
            budgets,
            ground=None if ground_mask is None else np.array(ground_mask),
            live=live,
            split=split,
            initial_group_cost=carried,
        )
    )

    def indices(sets):
        return tuple(index_of[(c.ap, c.session, c.tx_rate)] for c in sets)

    assert flat.selected == indices(scalar.selected)
    assert flat.within_budget == indices(scalar.within_budget)
    assert flat.overshooting == indices(scalar.overshooting)
    assert flat.chosen == indices(scalar.chosen)
    assert set(np.flatnonzero(flat.covered).tolist()) == scalar.covered
    assert flat_counters == scalar_counters


# -- set cover ----------------------------------------------------------------


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(problems())
def test_setcover_flat_matches_scalar(problem):
    candidates = build_candidates(problem)
    ground = set(range(problem.n_users))
    scalar, scalar_counters = run_with_counters(
        lambda: greedy_set_cover(candidates, ground)
    )
    family = build_family(problem)
    (chosen, total_cost), flat_counters = run_with_counters(
        lambda: greedy_set_cover_flat(family)
    )
    assert [family.candidate(k) for k in chosen] == list(scalar.selected)
    assert total_cost.hex() == scalar.total_cost.hex()
    assert flat_counters == scalar_counters


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(problems(max_users=8), st.integers(min_value=0, max_value=7))
def test_setcover_coverage_error_parity(problem, isolated):
    """An isolated user raises the same CoverageError from both loops."""
    isolated %= problem.n_users
    link = [
        [
            0.0 if u == isolated else problem.link_rates[a][u]
            for u in range(problem.n_users)
        ]
        for a in range(problem.n_aps)
    ]
    broken = MulticastAssociationProblem(
        link,
        list(problem.user_sessions),
        problem.sessions,
        problem.budgets,
    )
    ground = set(range(broken.n_users))
    with pytest.raises(CoverageError) as scalar_error:
        greedy_set_cover(build_candidates(broken), ground)
    with pytest.raises(CoverageError) as flat_error:
        greedy_set_cover_flat(build_family(broken))
    assert str(flat_error.value) == str(scalar_error.value)


# -- the solvers end to end ---------------------------------------------------


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(problems(), st.booleans())
def test_solve_mnu_equivalence(problem, augment):
    if not all(map(math.isfinite, problem.budgets)):
        return  # MNU needs finite budgets to be meaningful
    reference, reference_counters = run_with_counters(
        lambda: solve_mnu_reference(problem, augment=augment)
    )
    production, production_counters = run_with_counters(
        lambda: solve_mnu(problem, augment=augment)
    )
    assert_same_assignment(reference.assignment, production.assignment)
    assert production_counters == reference_counters


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(problems())
def test_solve_mla_equivalence(problem):
    reference, reference_counters = run_with_counters(
        lambda: solve_mla_reference(problem)
    )
    production, production_counters = run_with_counters(
        lambda: solve_mla(problem)
    )
    assert_same_assignment(reference.assignment, production.assignment)
    assert production_counters == reference_counters


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(problems(max_aps=4, max_users=8), st.booleans())
def test_solve_bla_equivalence(problem, local_search):
    reference, reference_counters = run_with_counters(
        lambda: solve_bla_reference(problem, local_search=local_search)
    )
    production, production_counters = run_with_counters(
        lambda: solve_bla(problem, local_search=local_search)
    )
    assert_same_assignment(reference.assignment, production.assignment)
    assert production_counters == reference_counters


# -- assignment materialization and stitching ---------------------------------


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(problems(), st.randoms(use_true_random=False))
def test_from_selected_sets_equivalence(problem, rng):
    """Each user joins the AP of the first selection holding it at its
    highest link rate, whatever order the selections arrive in."""
    family = build_family(problem)
    chosen = list(range(family.n_candidates))
    rng.shuffle(chosen)
    selections = [
        (c.ap, c.session, c.tx_rate, c.users)
        for c in (family.candidate(k) for k in chosen)
    ]
    expected = []
    for user in range(problem.n_users):
        holding = [i for i, sel in enumerate(selections) if user in sel[3]]
        if not holding:
            expected.append(None)
            continue
        best = max(
            holding,
            key=lambda i: (problem.link_rate(selections[i][0], user), -i),
        )
        expected.append(selections[best][0])
    assignment = from_selected_sets(problem, family, chosen)
    assert list(assignment.ap_of_user) == expected


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(problems(), st.randoms(use_true_random=False))
def test_stitch_equivalence(problem, rng):
    """Stitching reproduces the map the pairs describe, in any order, and
    blames the first conflicting pair of a bad input."""
    assignment = solve_mla(problem).assignment
    pairs = [
        (user, ap)
        for user, ap in enumerate(assignment.ap_of_user)
        if ap is not None
    ]
    rng.shuffle(pairs)

    def stitch(pairs):
        flat = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return stitch_arrays(problem, flat[:, 0], flat[:, 1])

    assert_same_assignment(assignment, stitch(pairs))

    if not pairs or problem.n_aps < 2:
        return
    user, ap = pairs[0]
    other = (ap + 1) % problem.n_aps
    conflicting = pairs + [(user, other)]
    with pytest.raises(ModelError) as error:
        stitch(conflicting)
    assert str(error.value) == (
        f"user {user} assigned by two shards ({ap}, {other})"
    )
