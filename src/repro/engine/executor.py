"""Per-shard solver workers and exact stitching.

The engine runs the paper's centralized solvers shard by shard, in
process and in order, and the functions here stitch the shard results
back into one global :class:`~repro.core.assignment.Assignment`.

The stitching is *exact*: the stitched assignment matches what the
monolithic solver would have produced on the whole instance, objective
value for objective value. The greedy selections themselves decompose over
coverage components for free (a pick in one component never changes
cost-effectiveness, budgets, or coverage in another), but two decisions in
the paper's algorithms are genuinely global:

* **MNU** — the H1/H2 split of Theorem 2 compares the *total* coverage of
  the within-budget and overshooting selections. Each shard therefore
  reports both halves raw, and :func:`stitch_mnu` picks one side globally.
* **BLA** — the B* guess grid, the per-iteration H1/H2 choice inside the
  iterated-MNU loop, the feasibility verdict, the incumbent update and the
  final rebalance guard all compare global quantities. BLA therefore does
  not run here at all: the engine calls the monolithic
  :func:`~repro.core.bla.solve_bla` on the active sub-problem.

MLA has no global decision at all; per-shard ``CostSC`` runs concatenate
into exactly the monolithic cover. Each shard therefore hands back its
*materialized fragment* — its ``(user, AP)`` pairs plus the loads of its
APs — and :func:`stitch_mla` only concatenates: a per-AP load depends on
nothing outside the AP's shard, every AP lies in at most one shard, and
``math.fsum`` is order-independent, so the ``fsum`` of the fragments'
loads is bit-identical to :meth:`~repro.core.assignment.Assignment.
total_load` of the stitched assignment, without building its ledger.

Shard results are plain tuples, so the engine's cache can hold them
without keeping any solver state alive.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from repro.core.assignment import Assignment, from_selected_sets
from repro.core.candidates import CandidateSet
from repro.core.mla import mla_cover
from repro.core.mnu import augment_assignment, solve_mnu
from repro.core.problem import MulticastAssociationProblem
from repro.engine.shard import ShardProblem, stitch_assignment

#: One selected candidate set, flattened for caching:
#: ``(ap, session, tx_rate, cost, users)``.
SetPick = tuple[int, int, float, float, tuple[int, ...]]

#: One shard's materialized MLA result in global indices: its
#: ``(user, AP)`` pairs and the loads of its APs.
MlaFragment = tuple[tuple[tuple[int, int], ...], tuple[float, ...]]


# -- result helpers ----------------------------------------------------------


def _pick(candidate: CandidateSet) -> SetPick:
    return (
        candidate.ap,
        candidate.session,
        candidate.tx_rate,
        candidate.cost,
        tuple(sorted(candidate.users)),
    )


def to_global_picks(
    shard_problem: ShardProblem, picks: Iterable[SetPick]
) -> tuple[SetPick, ...]:
    """Remap local-index set picks onto the parent problem's indices."""
    return tuple(
        (
            shard_problem.global_ap(ap),
            session,
            tx_rate,
            cost,
            tuple(shard_problem.global_user(u) for u in users),
        )
        for ap, session, tx_rate, cost, users in picks
    )


def _covered(picks: Iterable[SetPick]) -> set[int]:
    covered: set[int] = set()
    for _, _, _, _, users in picks:
        covered.update(users)
    return covered


def _selections(
    picks: Iterable[SetPick],
) -> Iterator[tuple[int, int, float, tuple[int, ...]]]:
    return ((ap, session, tx_rate, users) for ap, session, tx_rate, _, users in picks)


# -- shard workers -----------------------------------------------------------


def mnu_shard_raw(
    sub: MulticastAssociationProblem,
) -> tuple[tuple[SetPick, ...], tuple[SetPick, ...]]:
    """Centralized MNU on one shard, returning both split halves raw.

    The H1/H2 choice is deferred to the engine, which makes it globally —
    exactly as the monolithic greedy would.
    """
    solution = solve_mnu(sub, split=True, augment=False)
    return (
        tuple(_pick(c) for c in solution.mcg.within_budget),
        tuple(_pick(c) for c in solution.mcg.overshooting),
    )


def mla_shard_raw(
    sub: MulticastAssociationProblem,
) -> tuple[tuple[int | None, ...], list[float]]:
    """Centralized MLA (``CostSC``) on one shard, materialized.

    Returns the shard's local ``ap_of_user`` and per-AP loads. Like
    :func:`~repro.core.mla.solve_mla` minus its ``mla.*`` gauges: the
    engine publishes one stitched objective, not per-shard ones.
    """
    assignment = from_selected_sets(
        sub,
        (
            (c.ap, c.session, c.tx_rate, c.users)
            for c in mla_cover(sub).selected
        ),
    ).validate(check_budgets=False)
    return assignment.ap_of_user, assignment.loads()


# -- stitching ---------------------------------------------------------------


def stitch_mnu(
    problem: MulticastAssociationProblem,
    shard_raws: Sequence[tuple[tuple[SetPick, ...], tuple[SetPick, ...]]],
    *,
    augment: bool = False,
    eligible: Iterable[int] | None = None,
) -> Assignment:
    """Global H1/H2 choice over per-shard raw MNU selections.

    ``shard_raws`` carry global indices. Theorem 2's split is applied to
    the concatenation: whichever of H1 (within budget) and H2 (overshoot)
    covers more users *in total* wins — the same comparison, on the same
    sets, as the monolithic ``greedy_mcg(split=True)``.
    """
    within: list[SetPick] = []
    overshooting: list[SetPick] = []
    for shard_within, shard_over in shard_raws:
        within.extend(shard_within)
        overshooting.extend(shard_over)
    chosen = (
        within
        if len(_covered(within)) >= len(_covered(overshooting))
        else overshooting
    )
    assignment = from_selected_sets(problem, _selections(chosen))
    if augment:
        assignment = augment_assignment(assignment, eligible=eligible)
    return assignment.validate(check_budgets=True)


def stitch_mla(
    problem: MulticastAssociationProblem,
    fragments: Sequence[MlaFragment],
) -> tuple[Assignment, float]:
    """Concatenate per-shard MLA fragments: ``(assignment, total load)``.

    The total load is ``math.fsum`` over every fragment's AP loads —
    bit-identical to the stitched assignment's ``total_load()``.
    """
    pairs: list[tuple[int, int]] = []
    loads: list[float] = []
    for shard_pairs, shard_loads in fragments:
        pairs.extend(shard_pairs)
        loads.extend(shard_loads)
    return stitch_assignment(problem, pairs), math.fsum(loads)
