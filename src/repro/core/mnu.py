"""Centralized MNU — maximize the number of served users (paper Section 4.1).

Reduces the instance to Maximum Coverage with Group Budgets (Theorem 1):
ground set = users, one covering set per (AP, session, rate), per-AP group
budgets = the AP's multicast load limit. Runs the budgeted greedy with the
H1/H2 split; an 8-approximation (Theorem 2).

An optional *augmentation* pass (off by default, to match the published
algorithm exactly) greedily re-adds users dropped by the H1/H2 split
wherever they still fit within the real (derived) AP loads; it can only
increase the number of served users and never violates budgets. The
``ablation_h_split`` benchmark quantifies its effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.core import instrument
from repro.core.assignment import Assignment, from_selected_sets
from repro.core.candidates import CandidateFamily, build_candidates, build_family
from repro.core.mcg import FlatMcgResult, greedy_mcg, greedy_mcg_flat
from repro.core.problem import MulticastAssociationProblem


@dataclass(frozen=True)
class MnuCover:
    """The budgeted greedy's result: ``mcg`` holds candidate indices of
    ``family`` (the raw selection and its H1/H2 halves)."""

    family: CandidateFamily
    mcg: FlatMcgResult


@dataclass(frozen=True)
class MnuSolution:
    """An MNU assignment plus the underlying MCG trace (for inspection)."""

    assignment: Assignment
    cover: MnuCover

    @property
    def n_served(self) -> int:
        return self.assignment.n_served


def augment_assignment(
    assignment: Assignment, eligible: Iterable[int] | None = None
) -> Assignment:
    """Greedily serve unserved users where the derived loads still allow it.

    Users are tried in increasing order of their cheapest insertion cost so
    that cheap users (which consume the least budget) go first. ``eligible``
    restricts the pass to a subset of users (the sharded engine passes the
    currently active set); ``None`` considers every unserved user.
    """
    problem = assignment.problem
    ledger = assignment.ledger.copy()
    allowed = None if eligible is None else set(eligible)
    insertions: list[tuple[float, int, int]] = []
    for user in ledger.unserved_users():
        if allowed is not None and user not in allowed:
            continue
        for delta, ap in ledger.best_join_deltas(
            user, problem.aps_of_user(user)
        ):
            insertions.append((delta, user, ap))
    insertions.sort()
    moved = False
    for _, user, ap in insertions:
        if ledger.ap_of(user) is not None:
            continue
        if ledger.load_if_joined(user, ap) <= problem.budget_of(ap) + 1e-12:
            ledger.move(user, ap)
            moved = True
    if instrument.enabled():
        for op, count in ledger.op_counts().items():
            instrument.incr(f"ledger.{op}", count)
    return ledger.to_assignment() if moved else assignment


def mnu_cover(problem: MulticastAssociationProblem) -> MnuCover:
    """MNU's cover step: the Theorem-1 reduction solved by the budgeted
    greedy with the H1/H2 split. The sharded engine's workers stop here
    and materialize both halves straight from the family's arrays."""
    return _cover(problem, _flat_mcg, True)


def solve_mnu(
    problem: MulticastAssociationProblem,
    *,
    split: bool = True,
    augment: bool = False,
) -> MnuSolution:
    """Run Centralized MNU on ``problem`` (budgets taken from the instance).

    Parameters
    ----------
    split:
        apply the H1/H2 budget repair (the paper's algorithm). ``False``
        keeps the raw greedy output, which may violate budgets — only
        meaningful for analysis.
    augment:
        greedily re-add users dropped by the split when they still fit.
    """
    cover = _cover(problem, _flat_mcg, split)
    return _materialize(problem, cover, split=split, augment=augment)


def solve_mnu_reference(
    problem: MulticastAssociationProblem,
    *,
    split: bool = True,
    augment: bool = False,
) -> MnuSolution:
    """Scalar reference for :func:`solve_mnu`: the same solve with the
    greedy run by :func:`greedy_mcg` over :func:`build_candidates`' list.

    Bit-identical to :func:`solve_mnu` — map, loads and counters. The
    differential tests and the ``scalar_vs_vector`` oracle compare the two;
    no production call reaches it.
    """
    cover = _cover(problem, _reference_mcg, split)
    return _materialize(problem, cover, split=split, augment=augment)


# The H1/H2 split's feasibility guarantee (Theorem 2) rests on the paper's
# assumption that no single set costs more than its group's budget. A set
# with cost > budget can never appear in any feasible solution (one
# transmission would already exceed the AP's limit), so both greedy runs
# below drop such sets, which is exact and restores the assumption. Each
# returns the cover and the number of sets it ran over.


def _flat_mcg(
    problem: MulticastAssociationProblem, split: bool
) -> tuple[MnuCover, int]:
    family = build_family(problem)
    arrays = family.arrays()
    live = arrays.cost <= problem.budgets[arrays.ap] + 1e-12
    flat = greedy_mcg_flat(
        family, list(problem.budgets), live=live, split=split
    )
    return MnuCover(family=family, mcg=flat), int(live.sum())


def _reference_mcg(
    problem: MulticastAssociationProblem, split: bool
) -> tuple[MnuCover, int]:
    """The scalar greedy, its picks flattened into a family of their own."""
    candidates = [
        c
        for c in build_candidates(problem)
        if c.cost <= problem.budget_of(c.ap) + 1e-12
    ]
    ground = set(range(problem.n_users))
    result = greedy_mcg(candidates, list(problem.budgets), ground, split=split)
    family = CandidateFamily.from_candidates(
        result.selected, n_users=problem.n_users, n_aps=problem.n_aps
    )
    index = {candidate: k for k, candidate in enumerate(result.selected)}
    covered = np.zeros(problem.n_users, dtype=bool)
    covered[sorted(result.covered)] = True
    flat = FlatMcgResult(
        selected=tuple(range(len(result.selected))),
        within_budget=tuple(index[c] for c in result.within_budget),
        overshooting=tuple(index[c] for c in result.overshooting),
        chosen=tuple(index[c] for c in result.chosen),
        covered=covered,
    )
    return MnuCover(family=family, mcg=flat), len(candidates)


def _cover(
    problem: MulticastAssociationProblem,
    run: Callable[[MulticastAssociationProblem, bool], tuple[MnuCover, int]],
    split: bool,
) -> MnuCover:
    with instrument.span(
        "mnu.solve", n_users=problem.n_users, n_aps=problem.n_aps
    ):
        cover, n_candidates = run(problem, split)
    if instrument.enabled():
        instrument.incr("mnu.solves")
        instrument.incr("mnu.candidates", n_candidates)
    return cover


def _materialize(
    problem: MulticastAssociationProblem,
    cover: MnuCover,
    *,
    split: bool,
    augment: bool,
) -> MnuSolution:
    assignment = from_selected_sets(problem, cover.family, cover.mcg.chosen)
    if augment:
        assignment = augment_assignment(assignment)
    if split:
        assignment.validate(check_budgets=True)
    if instrument.enabled():
        instrument.gauge("mnu.n_served", float(assignment.n_served))
        instrument.gauge("mnu.total_load", assignment.total_load())
        instrument.gauge("mnu.max_load", assignment.max_load())
    return MnuSolution(assignment=assignment, cover=cover)
