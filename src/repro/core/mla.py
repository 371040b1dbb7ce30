"""Centralized MLA — minimize the total multicast load (paper Section 6.1).

Reduces the instance to weighted set cover (Theorem 5): ground set = users,
one set per (AP, session, rate) with cost ``session_rate / rate``, no
groups. Solves with the ``CostSC`` greedy — an ``(ln n + 1)``-approximation
(Theorem 6). Budgets are ignored (the paper's MLA setting assumes all users
can and must be served).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core import instrument
from repro.core.assignment import Assignment, from_selected_sets
from repro.core.candidates import (
    CandidateFamily,
    CandidateSet,
    build_candidates,
    build_family,
)
from repro.core.problem import MulticastAssociationProblem
from repro.core.setcover import greedy_set_cover, greedy_set_cover_flat


@dataclass(frozen=True)
class MlaCover:
    """``CostSC``'s picks: candidate indices of ``family`` in greedy order,
    and their summed (planned) cost."""

    family: CandidateFamily
    chosen: tuple[int, ...]
    total_cost: float

    @property
    def selected(self) -> tuple[CandidateSet, ...]:
        """The picks as classic :class:`CandidateSet` objects."""
        return tuple(self.family.candidate(k) for k in self.chosen)


@dataclass(frozen=True)
class MlaSolution:
    """An MLA assignment plus the set-cover trace."""

    assignment: Assignment
    cover: MlaCover

    @property
    def total_load(self) -> float:
        return self.assignment.total_load()


def mla_cover(problem: MulticastAssociationProblem) -> MlaCover:
    """MLA's cover step: the Theorem-5 reduction solved by ``CostSC``.

    Raises :class:`~repro.core.errors.CoverageError` for isolated users:
    every in-range link yields a candidate, so the users ``CostSC``
    leaves uncovered are exactly the isolated ones. The sharded
    engine's workers stop here and materialize the picks straight from
    the family's arrays.
    """
    return _cover(problem, _flat_cover)


def solve_mla(problem: MulticastAssociationProblem) -> MlaSolution:
    """Run Centralized MLA; raises :class:`CoverageError` for isolated users.

    :func:`mla_cover` followed by the materialize step, which turns the
    selected sets into a range/rate-validated assignment (MLA has no
    budget constraint).
    """
    return _materialize(problem, mla_cover(problem))


def solve_mla_reference(problem: MulticastAssociationProblem) -> MlaSolution:
    """Scalar reference for :func:`solve_mla`: the same solve with the cover
    built from :func:`build_candidates` and :func:`greedy_set_cover`.

    Bit-identical to :func:`solve_mla` — map, loads and counters. The
    differential tests and the ``scalar_vs_vector`` oracle compare the two;
    no production call reaches it.
    """
    return _materialize(problem, _cover(problem, _reference_cover))


def _flat_cover(problem: MulticastAssociationProblem) -> MlaCover:
    family = build_family(problem)
    chosen, total_cost = greedy_set_cover_flat(family)
    return MlaCover(family=family, chosen=tuple(chosen), total_cost=total_cost)


def _reference_cover(problem: MulticastAssociationProblem) -> MlaCover:
    """The scalar cover, its picks flattened into a family of their own."""
    cover = greedy_set_cover(
        build_candidates(problem), set(range(problem.n_users))
    )
    family = CandidateFamily.from_candidates(
        cover.selected, n_users=problem.n_users, n_aps=problem.n_aps
    )
    return MlaCover(
        family=family,
        chosen=tuple(range(len(cover.selected))),
        total_cost=cover.total_cost,
    )


def _cover(
    problem: MulticastAssociationProblem,
    run: Callable[[MulticastAssociationProblem], MlaCover],
) -> MlaCover:
    with instrument.span(
        "mla.solve", n_users=problem.n_users, n_aps=problem.n_aps
    ):
        cover = run(problem)
    if instrument.enabled():
        instrument.incr("mla.solves")
        instrument.incr("mla.cover_sets", len(cover.chosen))
    return cover


def _materialize(
    problem: MulticastAssociationProblem, cover: MlaCover
) -> MlaSolution:
    assignment = from_selected_sets(problem, cover.family, cover.chosen)
    assignment.validate(check_budgets=False)
    if instrument.enabled():
        instrument.gauge("mla.n_served", float(assignment.n_served))
        instrument.gauge("mla.total_load", assignment.total_load())
        instrument.gauge("mla.max_load", assignment.max_load())
    return MlaSolution(assignment=assignment, cover=cover)
