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
  reports both halves, and :func:`stitch_mnu` picks one side globally.
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
total_load` of the stitched assignment, without pricing it again.

Both workers speak one format: global pairs as two parallel read-only
int64 arrays, ``users`` (ascending) and ``aps``, materialized per shard
with :func:`~repro.core.assignment.from_selected_sets` straight from the
picked indices of the shard's candidate family — MLA's cover, MNU's two
halves. That is exact for MNU's halves too: a user's AP depends only on
the selected sets that contain it, which all lie in the user's shard, in
the same order as in the monolithic selection. Stitching concatenates
the arrays and scatters them into one int64 map
(:func:`~repro.engine.shard.stitch_arrays`). Shard results are plain
tuples of read-only arrays, so the engine's cache can hold them without
keeping any solver state alive.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.core.assignment import Assignment, from_selected_sets
from repro.core.mla import mla_cover
from repro.core.mnu import augment_assignment, mnu_cover
from repro.core.problem import MulticastAssociationProblem
from repro.engine.shard import ShardProblem, stitch_arrays

#: One shard's assignment in global indices: read-only int64 ``users``
#: (ascending) and the ``aps`` they hold.
Pairs = tuple[np.ndarray, np.ndarray]

#: One shard's materialized MLA result: its pairs and the loads of its APs.
MlaFragment = tuple[Pairs, tuple[float, ...]]


def _stitch_pairs(
    problem: MulticastAssociationProblem, parts: Sequence[Pairs]
) -> Assignment:
    """Concatenate shard pairs and scatter them into one global map."""
    none = np.zeros(0, dtype=np.int64)
    return stitch_arrays(
        problem,
        np.concatenate([none, *(users for users, _ in parts)]),
        np.concatenate([none, *(aps for _, aps in parts)]),
    )


# -- shard workers -----------------------------------------------------------


def mnu_shard_raw(shard_problem: ShardProblem) -> tuple[Pairs, Pairs]:
    """Centralized MNU on one shard: the pairs of both split halves.

    The H1/H2 choice is deferred to the engine, which makes it globally —
    exactly as the monolithic greedy would. Like
    :func:`~repro.core.mnu.solve_mnu` minus its ``mnu.*`` gauges: each
    half is materialized once, straight from the picked indices.
    """
    problem = shard_problem.problem
    cover = mnu_cover(problem)
    within = from_selected_sets(problem, cover.family, cover.mcg.within_budget)
    overshooting = from_selected_sets(
        problem, cover.family, cover.mcg.overshooting
    )
    return (
        shard_problem.global_pairs(within.held_array()),
        shard_problem.global_pairs(overshooting.held_array()),
    )


def mla_shard_raw(shard_problem: ShardProblem) -> MlaFragment:
    """Centralized MLA (``CostSC``) on one shard, materialized.

    Returns the shard's pairs and per-AP loads, priced in bulk without
    a ledger. Like
    :func:`~repro.core.mla.solve_mla` minus its ``mla.*`` gauges: the
    engine publishes one stitched objective, not per-shard ones.
    """
    problem = shard_problem.problem
    cover = mla_cover(problem)
    assignment = from_selected_sets(
        problem, cover.family, cover.chosen
    ).validate(check_budgets=False)
    return (
        shard_problem.global_pairs(assignment.held_array()),
        tuple(assignment.loads()),
    )


# -- stitching ---------------------------------------------------------------


def stitch_mnu(
    problem: MulticastAssociationProblem,
    shard_halves: Sequence[tuple[Pairs, Pairs]],
    *,
    augment: bool = False,
    eligible: Iterable[int] | None = None,
) -> Assignment:
    """Global H1/H2 choice over per-shard MNU halves.

    Theorem 2's split is applied to the concatenation: whichever of H1
    (within budget) and H2 (overshoot) covers more users *in total* wins
    — the same comparison, on the same sets, as the monolithic
    ``greedy_mcg(split=True)``, since a half's pairs are exactly the
    users its selected sets cover.
    """
    within = [shard_within for shard_within, _ in shard_halves]
    overshooting = [shard_over for _, shard_over in shard_halves]
    n_within = sum(users.size for users, _ in within)
    n_overshooting = sum(users.size for users, _ in overshooting)
    chosen = within if n_within >= n_overshooting else overshooting
    assignment = _stitch_pairs(problem, chosen)
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
    assignment = _stitch_pairs(problem, [pairs for pairs, _ in fragments])
    return assignment, math.fsum(
        chain.from_iterable(loads for _, loads in fragments)
    )
