"""The ``plan-balance`` workload: serial ``c-bla`` solves over a pool.

One operation is one ``c-bla`` solve through
``repro.eval.metrics.run_algorithm``. The pool holds ``POOL_SIZE``
seeded instances at the paper's density (200 APs on 1.2 km^2) with user
counts spread evenly over 200..400, and the timed phase solves them in
pool order, whole passes only, so each instance is solved equally often.

The warm-up is the reference pass: each instance is solved once through
the same registry solver, its assignment certified, and its objective
(users served, total load, max load) recorded. Every timed solve must
reproduce its instance's objective bit for bit.
"""

from __future__ import annotations

import gc
import math
import random
import sys
import time
from dataclasses import dataclass

from repro.core.problem import MulticastAssociationProblem
from repro.eval import metrics
from repro.scenarios.generator import generate
from repro.verify import verify_assignment

from perfbench.stats import Phase

ALGORITHM = "c-bla"
POOL_SIZE = 16
N_APS = 200
MIN_USERS = 200
MAX_USERS = 400
#: Nominal solves per second on a 2-CPU host; sizes the timed phase so
#: a run measures about ``--seconds``.
OPS_PER_S = 2.4

#: ``(n_served, total_load.hex(), max_load.hex())`` of one solve.
Objective = tuple[int, str, str]


def n_ops(seconds: float) -> int:
    """Timed solves for a run: whole passes over the pool, at least one."""
    passes = max(1, round(seconds * OPS_PER_S / POOL_SIZE))
    return passes * POOL_SIZE


def pool_users(index: int) -> int:
    return MIN_USERS + round((MAX_USERS - MIN_USERS) * index / (POOL_SIZE - 1))


def build_pool(seed: int) -> list[MulticastAssociationProblem]:
    """The seeded instance pool (instance ``i`` has its own sub-seed)."""
    seeds = random.Random(seed)
    return [
        generate(
            n_aps=N_APS, n_users=pool_users(i), seed=seeds.randrange(2**31)
        ).problem()
        for i in range(POOL_SIZE)
    ]


def objective_of(result: metrics.AlgorithmResult) -> Objective:
    return (
        result.n_served,
        float(result.total_load).hex(),
        float(result.max_load).hex(),
    )


def reference_objective(problem: MulticastAssociationProblem) -> Objective:
    """Solve once, certify the assignment, return its objective.

    The objective is derived from the assignment's load vector exactly
    as ``run_algorithm`` derives it, so a timed solve that lands the same
    assignment reproduces it bit for bit.
    """
    assignment = metrics.ALGORITHMS[ALGORITHM](problem, random.Random(0))
    certificate = verify_assignment(problem, assignment, "bla", lp_bounds=False)
    if not certificate.ok:
        raise RuntimeError(
            f"reference solve fails certificate: {certificate.codes}"
        )
    loads = assignment.ledger.load_array()
    return (
        assignment.n_served,
        math.fsum(loads.tolist()).hex(),
        float(loads.max()).hex(),
    )


@dataclass
class Fixture:
    pool: list[MulticastAssociationProblem]
    reference: list[Objective]
    generate_s: float


def setup(seed: int) -> Fixture:
    """Generate the pool and run the certified reference pass."""
    start = time.perf_counter()
    pool = build_pool(seed)
    generate_s = time.perf_counter() - start
    reference = [reference_objective(problem) for problem in pool]
    return Fixture(pool, reference, generate_s)


def check(fixture: Fixture, index: int, result: metrics.AlgorithmResult) -> bool:
    """The timed solve reproduced its instance's reference objective."""
    return objective_of(result) == fixture.reference[index]


def run_phase(fixture: Fixture, n: int) -> Phase:
    """``n`` solves in pool order; a raised or mismatching solve fails."""
    gc.collect()
    latencies: list[float] = []
    failed = 0
    phase_start = time.perf_counter()
    for k in range(n):
        index = k % len(fixture.pool)
        start = time.perf_counter()
        try:
            result = metrics.run_algorithm(ALGORITHM, fixture.pool[index])
        except Exception as exc:  # a raised solve is a failed operation
            latencies.append((time.perf_counter() - start) * 1e3)
            failed += 1
            print(f"solve of instance {index} raised {exc!r}", file=sys.stderr)
            continue
        latencies.append((time.perf_counter() - start) * 1e3)
        failed += not check(fixture, index, result)
    return Phase(latencies, time.perf_counter() - phase_start, failed)
