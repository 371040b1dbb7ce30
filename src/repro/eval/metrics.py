"""Uniform algorithm invocation and metric extraction.

Every solver in the library is wrapped behind one registry so that the
experiment harness, benchmarks and examples can say "run ``c-mla`` on this
problem" and get back the three metrics the paper reports: total load
(Fig 9), max AP load (Fig 10) and satisfied users (Figs 11/12c).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from repro.core.assignment import Assignment
from repro.core.baselines import (
    solve_least_load,
    solve_least_users,
    solve_random,
)
from repro.core.bla import solve_bla
from repro.core.distributed import run_distributed
from repro.core.mla import solve_mla
from repro.core.mnu import solve_mnu
from repro.core.optimal import (
    solve_bla_optimal,
    solve_mla_optimal,
    solve_mnu_optimal,
)
from repro.core.problem import MulticastAssociationProblem, validate_policy
from repro.core.ssa import solve_ssa
from repro.engine import ShardedEngine
from repro.obs import trace as tracing


@dataclass(frozen=True)
class AlgorithmResult:
    """One (algorithm, instance) evaluation.

    ``runtime_s`` is the wall-clock duration of the solver call alone
    (metric extraction excluded), measured by the ``"algorithm.run"``
    span of :mod:`repro.obs.trace`: when a collector is installed it is
    *exactly* the recorded span's ``wall_s``; otherwise the same clock
    pair measures locally without recording anything.
    """

    algorithm: str
    n_users: int
    n_served: int
    total_load: float
    max_load: float
    runtime_s: float

    @property
    def n_unsatisfied(self) -> int:
        return self.n_users - self.n_served

    @property
    def satisfied_fraction(self) -> float:
        return self.n_served / self.n_users if self.n_users else 1.0


def _metrics(
    name: str, assignment: Assignment, elapsed: float
) -> AlgorithmResult:
    # One read of the priced load vector serves both objectives — no
    # per-AP recompute loop.
    loads = assignment.load_array()
    return AlgorithmResult(
        algorithm=name,
        n_users=assignment.problem.n_users,
        n_served=assignment.n_served,
        total_load=math.fsum(loads.tolist()),
        max_load=float(loads.max()) if loads.size else 0.0,
        runtime_s=elapsed,
    )


Solver = Callable[[MulticastAssociationProblem, random.Random], Assignment]


def _ssa(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return solve_ssa(problem, enforce_budgets=False, rng=rng).assignment


def _ssa_budget(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return solve_ssa(problem, enforce_budgets=True, rng=rng).assignment


def _c_mla(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return solve_mla(problem).assignment


def _c_bla(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return solve_bla(problem).assignment


def _c_mnu(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return solve_mnu(problem).assignment


def _c_mnu_augmented(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return solve_mnu(problem, augment=True).assignment


def _d_mla(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return run_distributed(problem, "mla", rng=rng).assignment


def _d_bla(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return run_distributed(problem, "bla", rng=rng).assignment


def _d_mnu(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return run_distributed(problem, "mnu", rng=rng).assignment


def _random_assoc(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return solve_random(problem, rng=rng).assignment


def _least_users(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return solve_least_users(problem, rng=rng).assignment


def _least_load(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return solve_least_load(problem, rng=rng).assignment


def _engine(
    problem: MulticastAssociationProblem, objective: str
) -> Assignment:
    # One-shot solves: the fingerprint cache only pays off across calls.
    return ShardedEngine(problem, cache=False).solve(objective).assignment


def _e_mla(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return _engine(problem, "mla")


def _e_bla(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return _engine(problem, "bla")


def _e_mnu(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return _engine(problem, "mnu")


def _opt_mla(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return solve_mla_optimal(problem).assignment


def _opt_bla(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return solve_bla_optimal(problem).assignment


def _opt_mnu(
    problem: MulticastAssociationProblem, rng: random.Random
) -> Assignment:
    return solve_mnu_optimal(problem).assignment


#: Registry of every runnable algorithm. ``ssa`` ignores budgets (Figs
#: 9/10/12a/12b); ``ssa-budget`` admits users under per-AP budgets (Figs
#: 11/12c).
ALGORITHMS: dict[str, Solver] = {
    "ssa": _ssa,
    "ssa-budget": _ssa_budget,
    "c-mla": _c_mla,
    "c-bla": _c_bla,
    "c-mnu": _c_mnu,
    "c-mnu+aug": _c_mnu_augmented,
    "d-mla": _d_mla,
    "d-bla": _d_bla,
    "d-mnu": _d_mnu,
    "e-mla": _e_mla,
    "e-bla": _e_bla,
    "e-mnu": _e_mnu,
    "opt-mla": _opt_mla,
    "opt-bla": _opt_bla,
    "opt-mnu": _opt_mnu,
    "random": _random_assoc,
    "least-users": _least_users,
    "least-load": _least_load,
}


def split_policy_suffix(name: str) -> tuple[str, str | None]:
    """Split an ``algo@policy`` registry name into its two halves.

    Plain names pass through as ``(name, None)``. The suffix is
    validated eagerly so a typo like ``c-mla@dsm`` fails loudly instead
    of falling through to the unknown-algorithm branch.
    """
    base, sep, policy = name.partition("@")
    if not sep:
        return name, None
    validate_policy(policy)
    return base, policy


def run_algorithm(
    name: str,
    problem: MulticastAssociationProblem,
    *,
    seed: int = 0,
) -> AlgorithmResult:
    """Run a registered algorithm and extract the paper's metrics.

    ``name`` may carry an ``@policy`` suffix (e.g. ``c-mla@dms``): the
    base solver runs on the problem re-broadcast to that transmission
    policy, and the result reports the full suffixed name.
    """
    base, policy = split_policy_suffix(name)
    if base not in ALGORITHMS:
        raise KeyError(
            f"unknown algorithm {base!r}; choose from {sorted(ALGORITHMS)}"
        )
    if policy is not None:
        problem = problem.with_policies(policy)
    rng = random.Random(seed)
    with tracing.timed("algorithm.run", algorithm=name) as timer:
        assignment = ALGORITHMS[base](problem, rng)
    return _metrics(name, assignment, timer.wall_s)
