"""Differential oracles: independent computation paths must agree.

Four cross-checks, each pitting two implementations of the same
mathematical object against each other:

* :func:`scalar_vs_vector` — the reference contract: every production
  solver, whose hot loops run on numpy arrays, must reproduce its scalar
  reference function (``solve_*_reference``) bit for bit — the user→AP
  map, the per-AP load vector down to ``float.hex``, and the
  instrumentation counters.
* :func:`sharded_vs_monolithic` — the sharded engine's exactness contract:
  stitched solves must equal :func:`~repro.core.mnu.solve_mnu` /
  :func:`~repro.core.bla.solve_bla` / :func:`~repro.core.mla.solve_mla`
  run monolithically, objective value for objective value (and user→AP
  map for the full user set).
* :func:`incremental_vs_cold` — the fingerprint-guarded shard cache must
  be invisible: re-solving through a warm engine across a sequence of
  membership changes must return exactly what a cold, cache-less engine
  returns at every step.
* :func:`sequential_vs_centralized` — one-at-a-time distributed decisions
  must converge (Lemmas 1–2) to a feasible association; the centralized
  objective is recorded alongside for ratio tracking.

Each oracle returns an :class:`OracleReport` whose named
:class:`Discrepancy` entries plug into the same reporting pipeline as the
certificate checker's violations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.assignment import Assignment
from repro.core.bla import solve_bla, solve_bla_reference
from repro.core.distributed import run_distributed
from repro.core.errors import ModelError
from repro.core.mla import solve_mla, solve_mla_reference
from repro.core.mnu import solve_mnu, solve_mnu_reference
from repro.core.problem import MulticastAssociationProblem
from repro.engine import ShardedEngine
from repro.obs import collecting
from repro.verify.certificates import verify_assignment

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Discrepancy:
    """One disagreement between two computation paths."""

    oracle: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle}:{self.code}] {self.message}"


@dataclass(frozen=True)
class OracleReport:
    """The outcome of one oracle run."""

    oracle: str
    discrepancies: tuple[Discrepancy, ...]
    stats: Mapping[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(d.code for d in self.discrepancies)

    def format(self) -> str:
        lines = [f"oracle[{self.oracle}]: {'OK' if self.ok else 'DISAGREED'}"]
        for key, value in self.stats.items():
            lines.append(f"  {key} = {value:.6g}")
        for discrepancy in self.discrepancies:
            lines.append(f"  !! {discrepancy}")
        return "\n".join(lines)


_MONOLITHIC = {
    "mnu": lambda p: solve_mnu(p).assignment,
    "bla": lambda p: solve_bla(p).assignment,
    "mla": lambda p: solve_mla(p).assignment,
}


def _objective_value(objective: str, assignment: Assignment) -> float:
    if objective == "mnu":
        return float(assignment.n_served)
    if objective == "bla":
        return assignment.max_load()
    return assignment.total_load()


def _eligible_objectives(
    problem: MulticastAssociationProblem,
    objectives: Sequence[str],
) -> list[str]:
    """Drop objectives the instance cannot express (infinite-budget MNU)."""
    finite = all(map(math.isfinite, problem.budgets))
    chosen = []
    for objective in objectives:
        if objective not in _MONOLITHIC:
            raise ModelError(f"unknown objective {objective!r}")
        if objective == "mnu" and not finite:
            continue
        chosen.append(objective)
    return chosen


_REFERENCE = {
    "mnu": lambda p: solve_mnu_reference(p).assignment,
    "bla": lambda p: solve_bla_reference(p).assignment,
    "mla": lambda p: solve_mla_reference(p).assignment,
}


def _solve_with_counters(
    solve: Callable[[MulticastAssociationProblem], Assignment],
    problem: MulticastAssociationProblem,
) -> tuple[Assignment, dict[str, float]]:
    """One solve plus the instrumentation counters it emitted."""
    with collecting() as session:
        assignment = solve(problem)
    return assignment, dict(session.metrics.counters())


def scalar_vs_vector(
    problem: MulticastAssociationProblem,
    objectives: Sequence[str] = ("mnu", "bla", "mla"),
) -> OracleReport:
    """Cross-check each production solver against its scalar reference.

    The comparison is exact — user→AP maps must be equal, per-AP loads
    must match on ``float.hex`` (bit identity, not tolerance), and the
    instrumentation counters must agree.
    """
    discrepancies: list[Discrepancy] = []
    stats: dict[str, float] = {}
    for objective in _eligible_objectives(problem, objectives):
        reference, reference_counters = _solve_with_counters(
            _REFERENCE[objective], problem
        )
        production, production_counters = _solve_with_counters(
            _MONOLITHIC[objective], problem
        )
        stats[f"{objective}_value"] = _objective_value(objective, reference)
        if reference.ap_of_user != production.ap_of_user:
            discrepancies.append(
                Discrepancy(
                    "scalar-vs-vector",
                    f"{objective}-map-mismatch",
                    f"production {objective} user→AP map differs from the "
                    "scalar reference",
                )
            )
        reference_hex = [load.hex() for load in reference.loads()]
        production_hex = [load.hex() for load in production.loads()]
        if reference_hex != production_hex:
            first = next(
                index
                for index, (a, b) in enumerate(
                    zip(reference_hex, production_hex)
                )
                if a != b
            )
            discrepancies.append(
                Discrepancy(
                    "scalar-vs-vector",
                    f"{objective}-load-mismatch",
                    f"{objective} load of AP {first} differs bitwise: "
                    f"reference {reference_hex[first]} != production "
                    f"{production_hex[first]}",
                )
            )
        if reference_counters != production_counters:
            names = reference_counters.keys() | production_counters.keys()
            differing = sorted(
                name
                for name in names
                if reference_counters.get(name)
                != production_counters.get(name)
            )
            discrepancies.append(
                Discrepancy(
                    "scalar-vs-vector",
                    f"{objective}-counter-mismatch",
                    f"{objective} instrumentation counters diverge: "
                    f"{', '.join(differing)}",
                )
            )
    return OracleReport("scalar-vs-vector", tuple(discrepancies), stats)


def sharded_vs_monolithic(
    problem: MulticastAssociationProblem,
    objectives: Sequence[str] = ("mnu", "bla", "mla"),
    *,
    max_shard_users: int | None = None,
    tol: float = DEFAULT_TOL,
) -> OracleReport:
    """Cross-check the sharded engine against the monolithic solvers.

    For every objective (MNU, BLA and MLA), the stitched user→AP map and
    the objective value must both match the monolithic solve bit for bit.
    """
    discrepancies: list[Discrepancy] = []
    stats: dict[str, float] = {}
    chosen = _eligible_objectives(problem, objectives)
    engine = ShardedEngine(problem, max_shard_users=max_shard_users)
    stats["n_shards"] = float(engine.plan.n_shards)
    for objective in chosen:
        solution = engine.solve(objective)
        reference = _MONOLITHIC[objective](problem)
        sharded_value = solution.value()
        mono_value = _objective_value(objective, reference)
        stats[f"{objective}_value"] = mono_value
        if abs(sharded_value - mono_value) > tol:
            discrepancies.append(
                Discrepancy(
                    "sharded-vs-monolithic",
                    f"{objective}-value-mismatch",
                    f"sharded {objective} value {sharded_value!r} != "
                    f"monolithic {mono_value!r}",
                )
            )
        if solution.assignment.ap_of_user != reference.ap_of_user:
            discrepancies.append(
                Discrepancy(
                    "sharded-vs-monolithic",
                    f"{objective}-map-mismatch",
                    f"sharded {objective} user→AP map differs from the "
                    "monolithic solver's",
                )
            )
    return OracleReport(
        "sharded-vs-monolithic", tuple(discrepancies), stats
    )


def _default_membership_steps(
    problem: MulticastAssociationProblem, seed: int, n_steps: int
) -> list[frozenset[int]]:
    """A churn-like sequence of active sets: leave-one-out, revisited.

    Each departure dirties exactly the shard owning that user, so on
    every subsequent step the *other* shards answer from the fingerprint
    cache — which is exactly the machinery under test. (Global churn
    would change every shard's fingerprint each step and the warm engine
    would never hit.)
    """
    rng = random.Random(seed)
    everyone = frozenset(range(problem.n_users))
    candidates = list(everyone)
    rng.shuffle(candidates)
    steps: list[frozenset[int]] = [everyone]
    for user in candidates:
        if len(steps) >= n_steps:
            break
        steps.append(everyone - {user})
        steps.append(everyone)  # untouched shards: pure cache hits
    return steps[: max(n_steps, 2)]


def incremental_vs_cold(
    problem: MulticastAssociationProblem,
    steps: Sequence[Iterable[int]] | None = None,
    objectives: Sequence[str] = ("mnu", "mla", "bla"),
    *,
    seed: int = 0,
    n_steps: int = 6,
    tol: float = DEFAULT_TOL,
) -> OracleReport:
    """Warm (cached) engine re-solves must equal cold re-solves, stepwise.

    ``steps`` is a sequence of active-user sets (membership after each
    churn batch); by default a generated full ↔ subset sequence with
    revisits so the fingerprint cache actually serves hits. MNU and MLA
    go through the per-shard cache; BLA is a plain
    :func:`~repro.core.bla.solve_bla` on the active users, uncached, so
    warm == cold holds trivially there.
    """
    if steps is None:
        steps = _default_membership_steps(problem, seed, n_steps)
    step_sets = [frozenset(step) for step in steps]
    discrepancies: list[Discrepancy] = []
    stats: dict[str, float] = {"n_steps": float(len(step_sets))}
    chosen = _eligible_objectives(problem, objectives)
    everyone = frozenset(range(problem.n_users))

    for objective in chosen:
        warm = ShardedEngine(problem, cache=True)
        for index, active in enumerate(step_sets):
            warm_solution = warm.solve(objective, active=active)
            cold_solution = ShardedEngine(problem, cache=False).solve(
                objective, active=active
            )
            warm_value = warm_solution.value()
            cold_value = cold_solution.value()
            if abs(warm_value - cold_value) > tol:
                discrepancies.append(
                    Discrepancy(
                        "incremental-vs-cold",
                        f"{objective}-value-drift",
                        f"step {index}: warm {objective} value "
                        f"{warm_value!r} != cold {cold_value!r}",
                    )
                )
            if (
                warm_solution.assignment.ap_of_user
                != cold_solution.assignment.ap_of_user
            ):
                discrepancies.append(
                    Discrepancy(
                        "incremental-vs-cold",
                        f"{objective}-map-drift",
                        f"step {index}: warm {objective} user→AP map "
                        "differs from a cold re-solve",
                    )
                )
            if active == everyone:
                stats.setdefault(f"{objective}_value", cold_value)
        warm_stats = warm.cache_stats
        stats[f"{objective}_cache_hits"] = float(warm_stats.hits)
        stats[f"{objective}_cache_misses"] = float(warm_stats.misses)
    return OracleReport("incremental-vs-cold", tuple(discrepancies), stats)


def sequential_vs_centralized(
    problem: MulticastAssociationProblem,
    policies: Sequence[str] = ("mnu", "mla", "bla"),
    *,
    seed: int = 0,
    max_rounds: int = 200,
) -> OracleReport:
    """Sequential distributed dynamics must converge to a feasible state.

    The regime of Lemmas 1–2: users decide one at a time, moving only on
    strict improvement, so the dynamics terminate. The oracle asserts
    convergence (no oscillation, no round-cap hit), structural
    feasibility of the quiescent association (budgets for the MNU
    policy), full coverage for the MLA/BLA policies on coverable
    instances, and records the distributed-to-centralized objective ratio
    in ``stats`` for drift tracking.
    """
    discrepancies: list[Discrepancy] = []
    stats: dict[str, float] = {}
    chosen = _eligible_objectives(problem, policies)
    coverable = problem.coverage_feasible()
    for policy in chosen:
        if policy in ("mla", "bla") and not coverable:
            continue  # the full-coverage settings need coverable instances
        result = run_distributed(
            problem,
            policy,
            mode="sequential",
            rng=random.Random(seed),
            max_rounds=max_rounds,
        )
        stats[f"{policy}_rounds"] = float(result.rounds)
        if not result.converged or result.oscillated:
            discrepancies.append(
                Discrepancy(
                    "sequential-vs-centralized",
                    f"{policy}-non-convergence",
                    f"sequential {policy} dynamics did not converge in "
                    f"{max_rounds} rounds (Lemmas 1–2 guarantee it)",
                )
            )
            continue
        assignment = result.assignment
        # Verify against the policy's own setting: the MNU policy enforces
        # budgets, MLA/BLA run unbudgeted but must cover everyone
        # (coverable instances only — which the generator guarantees).
        certificate = verify_assignment(
            problem, assignment, policy, lp_bounds=False
        )
        if not certificate.ok:
            discrepancies.append(
                Discrepancy(
                    "sequential-vs-centralized",
                    f"{policy}-infeasible-fixpoint",
                    f"quiescent {policy} association violates "
                    f"{', '.join(certificate.codes)}",
                )
            )
        distributed_value = _objective_value(policy, assignment)
        centralized_value = _objective_value(
            policy, _MONOLITHIC[policy](problem)
        )
        stats[f"{policy}_distributed"] = distributed_value
        stats[f"{policy}_centralized"] = centralized_value
    return OracleReport(
        "sequential-vs-centralized", tuple(discrepancies), stats
    )


def run_all_oracles(
    problem: MulticastAssociationProblem,
    *,
    seed: int = 0,
    objectives: Sequence[str] = ("mnu", "bla", "mla"),
) -> list[OracleReport]:
    """Every oracle on one instance; the fuzz harness's one-stop call."""
    return [
        scalar_vs_vector(problem, objectives),
        sharded_vs_monolithic(problem, objectives),
        incremental_vs_cold(problem, objectives=objectives, seed=seed),
        sequential_vs_centralized(problem, objectives, seed=seed),
    ]
