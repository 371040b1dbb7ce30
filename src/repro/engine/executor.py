"""Per-shard solver execution and exact stitching.

Runs the paper's centralized solvers shard-by-shard — serially or on a
``concurrent.futures.ProcessPoolExecutor`` — and stitches the shard results
back into one global :class:`~repro.core.assignment.Assignment`.

The stitching is *exact*: the stitched assignment matches what the
monolithic solver would have produced on the whole instance, objective
value for objective value. The greedy selections themselves decompose over
coverage components for free (a pick in one component never changes
cost-effectiveness, budgets, or coverage in another), but two decisions in
the paper's algorithms are genuinely global, and this module re-applies
them across shards rather than per shard:

* **MNU** — the H1/H2 split of Theorem 2 compares the *total* coverage of
  the within-budget and overshooting selections. Each shard therefore
  reports both halves raw, and the engine picks one side globally.
* **BLA** — the B* guess grid, the per-iteration H1/H2 choice inside the
  iterated-MNU loop, the feasibility verdict, the incumbent update and the
  final rebalance guard all compare global quantities. The engine reruns
  the *whole* Fig.-6 search here, dispatching only the per-shard greedy
  rounds to the backend.

MLA has no global decision at all; per-shard ``CostSC`` runs concatenate
into exactly the monolithic cover.

Worker payloads and results are plain picklable tuples so the process pool
can ship them; every worker is deterministic, which is why the parallel
path provably returns the same stitched assignment as the serial one.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.assignment import Assignment, from_selected_sets
from repro.core.bla import (
    assignment_from_cover,
    max_iterations,
    solve_bla,
)
from repro.core.candidates import CandidateSet, build_candidates, restrict_to_users
from repro.core.errors import CoverageError, SolverError
from repro.core.mcg import greedy_mcg
from repro.core.mla import mla_cover
from repro.core.mnu import augment_assignment, solve_mnu
from repro.core.problem import MulticastAssociationProblem
from repro.engine.shard import Shard, ShardProblem, stitch_assignment
from repro.obs import counters as metrics
from repro.obs import trace as tracing
from repro.obs.remote import instrumented_map

#: One selected candidate set, flattened for pickling/caching:
#: ``(ap, session, tx_rate, cost, users)``.
SetPick = tuple[int, int, float, float, tuple[int, ...]]


# -- execution backends ------------------------------------------------------


class SerialBackend:
    """Run shard tasks in-process, in order — the reference path."""

    parallel = False

    def map(self, fn: Callable, tasks: Sequence) -> list:
        return [fn(task) for task in tasks]

    def close(self) -> None:  # symmetry with ProcessBackend
        return None


class ProcessBackend:
    """Run shard tasks on a ``ProcessPoolExecutor``.

    Results come back in task order, and every worker is a deterministic
    pure function of its payload, so this backend returns exactly what
    :class:`SerialBackend` would — just faster on multi-core hosts.
    """

    parallel = True

    def __init__(self, max_workers: int | None = None) -> None:
        self._pool = ProcessPoolExecutor(max_workers=max_workers)

    def map(self, fn: Callable, tasks: Sequence) -> list:
        return list(self._pool.map(fn, tasks))

    def close(self) -> None:
        self._pool.shutdown()


# -- pickling helpers --------------------------------------------------------


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


# -- shard workers (top-level so the process pool can pickle them) -----------


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


def mla_shard_raw(sub: MulticastAssociationProblem) -> tuple[SetPick, ...]:
    """Centralized MLA (``CostSC``) on one shard; the cover in pick order.

    Only the cover step runs here: :func:`stitch_mla` materializes and
    validates the stitched assignment once, for all shards.
    """
    return tuple(_pick(c) for c in mla_cover(sub).selected)


def bla_shard_federated(
    sub: MulticastAssociationProblem,
) -> tuple[tuple[int | None, ...], float, int]:
    """Full per-shard Centralized BLA (the federated / incremental mode).

    Each shard runs its own B* search. The stitched max-load is the max
    over shard max-loads; it can differ from (and is typically no worse
    than) the monolithic search, whose guess grid spans all shards at once.
    """
    solution = solve_bla(sub)
    return (
        tuple(solution.assignment.ap_of_user),
        solution.b_star,
        solution.iterations,
    )


def bla_round(
    payload: tuple[
        tuple[CandidateSet, ...], int, float, frozenset[int], tuple[float, ...]
    ],
) -> tuple[tuple[SetPick, ...], tuple[SetPick, ...]]:
    """One budgeted-greedy round of the iterated-MNU loop, on one shard.

    ``payload`` is ``(candidates, n_aps, budget, remaining, accumulated)``
    in the shard's local indices; returns the within-budget and
    overshooting halves of the round's selection, in pick order.
    """
    candidates, n_aps, budget, remaining, accumulated = payload
    available = restrict_to_users(candidates, set(remaining))
    result = greedy_mcg(
        available,
        [budget] * n_aps,
        set(remaining),
        split=False,
        initial_group_cost=list(accumulated),
    )
    return (
        tuple(_pick(c) for c in result.within_budget),
        tuple(_pick(c) for c in result.overshooting),
    )


def rebalance_round(
    payload: tuple[MulticastAssociationProblem, tuple[int | None, ...]],
) -> tuple[int | None, ...]:
    """Sequential BLA best-response dynamics on one shard (local indices)."""
    from repro.core.distributed import run_distributed

    sub, initial = payload
    result = run_distributed(
        sub,
        "bla",
        mode="sequential",
        initial=list(initial),
        enforce_budgets=False,
        shuffle_each_round=False,
    )
    return tuple(result.assignment.ap_of_user)


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
    shard_raws: Sequence[tuple[SetPick, ...]],
) -> Assignment:
    """Concatenate per-shard ``CostSC`` covers into the global assignment."""
    selections: list[SetPick] = []
    for shard_selected in shard_raws:
        selections.extend(shard_selected)
    assignment = from_selected_sets(problem, _selections(selections))
    return assignment.validate(check_budgets=False)


# -- the exact sharded BLA search --------------------------------------------


@dataclass(frozen=True)
class ShardedBlaResult:
    """Outcome of the global B* search run over shards."""

    assignment: Assignment
    b_star: float
    iterations: int


def _check_coverable(
    problem: MulticastAssociationProblem, active: Sequence[int]
) -> None:
    isolated = [u for u in active if not problem.aps_of_user(u)]
    if isolated:
        raise CoverageError(isolated)


def solve_sharded_bla(
    problem: MulticastAssociationProblem,
    shards: Sequence[Shard],
    backend: SerialBackend | ProcessBackend,
    *,
    active: Iterable[int] | None = None,
    n_guesses: int = 12,
    refine_steps: int = 12,
    local_search: bool = True,
) -> ShardedBlaResult:
    """Centralized BLA with the per-shard greedy rounds on the backend.

    A faithful port of :func:`repro.core.bla.solve_bla`: same lower bound,
    same geometric guess grid, same bisection, same incumbent rule, same
    rebalance guard — every global comparison is made on global quantities,
    so the stitched result equals the monolithic solver's bit for bit.
    Only the inner budgeted-greedy rounds (the expensive part) fan out
    across shards.
    """
    active_users = (
        sorted(set(active)) if active is not None else list(range(problem.n_users))
    )
    _check_coverable(problem, active_users)
    if n_guesses < 1:
        raise ValueError("need at least one B* guess")
    if not active_users:
        return ShardedBlaResult(
            assignment=Assignment(problem, [None] * problem.n_users),
            b_star=math.inf,
            iterations=0,
        )

    live: list[tuple[Shard, ShardProblem, list[CandidateSet]]] = []
    for shard in shards:
        shard_problem = shard.slice(active_users)
        if shard_problem.problem.n_users == 0:
            continue
        live.append((shard, shard_problem, build_candidates(shard_problem.problem)))
    cap = max_iterations(len(active_users))

    def iterated(b_star: float) -> tuple[list[list[SetPick]], int] | None:
        """The iterated-MNU loop of Fig. 6, with per-shard greedy rounds."""
        remaining = [set(range(sp.problem.n_users)) for _, sp, _ in live]
        accumulated = [[0.0] * sp.problem.n_aps for _, sp, _ in live]
        picked: list[list[SetPick]] = [[] for _ in live]
        iterations = 0
        while any(remaining):
            if iterations >= cap:
                return None
            iterations += 1
            open_shards = [i for i, rem in enumerate(remaining) if rem]
            payloads = [
                (
                    tuple(live[i][2]),
                    live[i][1].problem.n_aps,
                    iterations * b_star,
                    frozenset(remaining[i]),
                    tuple(accumulated[i]),
                )
                for i in open_shards
            ]
            metrics.incr("bla.sharded_rounds")
            rounds = instrumented_map(
                backend,
                bla_round,
                payloads,
                "bla.round",
                iteration=iterations,
            )
            # The per-iteration H1/H2 split, applied globally (Theorem 2):
            h1_cover = sum(len(_covered(w)) for w, _ in rounds)
            h2_cover = sum(len(_covered(o)) for _, o in rounds)
            take_h1 = h1_cover >= h2_cover
            progressed = False
            for i, (shard_within, shard_over) in zip(open_shards, rounds, strict=True):
                chosen = shard_within if take_h1 else shard_over
                picked[i].extend(chosen)
                newly = _covered(chosen)
                for ap, _, _, cost, _ in chosen:
                    accumulated[i][ap] += cost
                remaining[i] -= newly
                progressed = progressed or bool(newly)
            if not progressed:
                return None  # no shard advanced: the guess is infeasible
        return picked, iterations

    def stitched(picked: Sequence[Sequence[SetPick]]) -> Assignment:
        pairs: list[tuple[int, int]] = []
        for (_, shard_problem, _), shard_picked in zip(live, picked, strict=True):
            local = assignment_from_cover(
                shard_problem.problem,
                [
                    CandidateSet(
                        ap=ap,
                        session=session,
                        tx_rate=tx_rate,
                        cost=cost,
                        users=frozenset(users),
                    )
                    for ap, session, tx_rate, cost, users in shard_picked
                ],
            )
            pairs.extend(shard_problem.map_assignment(local.ap_of_user))
        return stitch_assignment(problem, pairs)

    unconstrained = iterated(math.inf)
    if unconstrained is None:  # pragma: no cover - excluded by _check_coverable
        raise SolverError("unconstrained cover failed despite full coverability")
    best_assignment = stitched(unconstrained[0])
    best_iterations = unconstrained[1]
    best_b_star = math.inf
    best_value = best_assignment.max_load()

    lower = max(problem.min_cost_of_user(u) for u in active_users)
    upper = max(best_value, lower * (1 + 1e-9))

    def try_guess(b_star: float) -> bool:
        nonlocal best_assignment, best_b_star, best_value, best_iterations
        metrics.incr("bla.bstar_probes")
        with tracing.span("bla.bstar-probe", b_star=b_star, sharded=True):
            outcome = iterated(b_star)
        if outcome is None:
            return False
        assignment = stitched(outcome[0])
        value = assignment.max_load()
        if value < best_value - 1e-15:
            best_assignment = assignment
            best_value = value
            best_b_star = b_star
            best_iterations = outcome[1]
        return True

    if upper > lower > 0:
        ratio = (upper / lower) ** (1.0 / max(n_guesses - 1, 1))
        feasible_guesses: list[float] = []
        infeasible_guesses: list[float] = []
        for i in range(n_guesses):
            guess = lower * ratio**i
            if try_guess(guess):
                feasible_guesses.append(guess)
            else:
                infeasible_guesses.append(guess)
        low = max(infeasible_guesses, default=lower)
        high = min(feasible_guesses, default=upper)
        for _ in range(refine_steps):
            if high - low <= 1e-9:
                break
            mid = (low + high) / 2
            if try_guess(mid):
                high = mid
            else:
                low = mid

    if local_search:
        payloads = []
        for shard, shard_problem, _ in live:
            initial = tuple(
                None
                if best_assignment.ap_of(user) is None
                else shard.local_ap(best_assignment.ap_of(user))
                for user in shard_problem.users
            )
            payloads.append((shard_problem.problem, initial))
        refined_locals = instrumented_map(
            backend, rebalance_round, payloads, "bla.rebalance"
        )
        pairs = []
        for (_, shard_problem, _), refined in zip(live, refined_locals, strict=True):
            pairs.extend(shard_problem.map_assignment(refined))
        refined_assignment = stitch_assignment(problem, pairs)
        # The monolithic rebalance guard, on the global load vector:
        if (
            refined_assignment.sorted_load_vector()
            <= best_assignment.sorted_load_vector()
        ):
            best_assignment = refined_assignment

    best_assignment.validate(check_budgets=False)
    return ShardedBlaResult(
        assignment=best_assignment,
        b_star=best_b_star,
        iterations=best_iterations,
    )
