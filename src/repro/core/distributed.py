"""Distributed association policies (paper Sections 4.2, 5.2, 6.2).

Each user periodically learns, from its neighboring APs, which sessions they
transmit and at what rates, then locally re-decides its association:

* **MNU / MLA policy**: join the neighboring AP that minimizes the *total
  load of the user's neighboring APs* (for MNU, only APs whose budget the
  join respects are eligible). MLA uses the identical rule — the paper's
  Section 6.2 reuses the MNU algorithm with no budgets.
* **BLA policy**: join the neighboring AP that lexicographically minimizes
  the *sorted non-increasing vector* of neighboring-AP loads (footnote 5).

Users only move on strict improvement, which makes one-at-a-time
(*sequential*) dynamics converge (Lemmas 1 and 2: the total load, resp. the
global sorted load vector, strictly decreases with every move and takes
finitely many values). *Simultaneous* dynamics may oscillate — the paper's
Figure 4 two-AP example does — and the engine detects such cycles by state
hashing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Literal, Sequence

from repro.core import instrument
from repro.core.assignment import Assignment
from repro.core.ledger import LoadLedger
from repro.core.problem import MulticastAssociationProblem

Policy = Literal["mnu", "mla", "bla"]

# The protocol's mutable association state *is* the load ledger: users'
# local decisions are gain queries (``load_if_joined`` / ``load_if_left``)
# and every accepted move mutates the shared ledger. The per-policy
# potentials of Lemmas 1 and 2 — the total load and the global sorted load
# vector — are read straight off it.
AssociationState = LoadLedger


@dataclass(frozen=True)
class Decision:
    """A user's locally-best target AP (``None`` = stay unserved)."""

    user: int
    target: int | None
    improves: bool


def decide(
    state: AssociationState,
    user: int,
    policy: Policy,
    *,
    enforce_budgets: bool | None = None,
    epsilon: float = 1e-12,
) -> Decision:
    """The user's local decision from the current (queried) state.

    ``enforce_budgets`` defaults to True for the MNU policy and False for
    MLA/BLA, matching the paper's settings.
    """
    problem = state.problem
    if enforce_budgets is None:
        enforce_budgets = policy == "mnu"
    neighbors = problem.aps_of_user(user)
    if not neighbors:
        return Decision(user=user, target=None, improves=False)
    current = state.ap_of_user[user]

    # The neighbouring loads are read once. Moving to an option changes at
    # most two of them, the current AP's (``load_if_left``) and the
    # target's (``load_if_joined``), so each option's list is the base
    # list with those two entries substituted in place: the same queries
    # in the same positions, hence the same sums and sorted vectors.
    base = [state.load_of(ap) for ap in neighbors]
    # option -> (its slot in ``neighbors``, its load if the user joined)
    joined: dict[int, tuple[int, float]] = {}
    current_slot: int | None = None
    for slot, ap in enumerate(neighbors):
        if ap == current:
            current_slot = slot
            continue
        load = state.load_if_joined(user, ap)
        if enforce_budgets and load > problem.budget_of(ap) + epsilon:
            continue
        joined[ap] = (slot, load)
    if joined and current_slot is not None:
        left = state.load_if_left(user)

    def loads_after(target: int | None) -> list[float]:
        if target == current or target is None:
            return base
        loads = base.copy()
        if current_slot is not None:
            loads[current_slot] = left
        slot, load = joined[target]
        loads[slot] = load
        return loads

    keys: dict[int | None, tuple] = {}

    def score(target: int | None) -> tuple:
        key = keys.get(target)
        if key is not None:
            return key
        loads = loads_after(target)
        # MNU/MLA compare the total, BLA the sorted non-increasing vector
        # (footnote 5). Tie-breaks: stronger signal first (higher link
        # rate), then lower AP index; staying unserved ranks last.
        metric = (
            sum(loads)
            if policy in ("mnu", "mla")
            else tuple(sorted(loads, reverse=True))
        )
        if target is None:
            key = (metric, 0.0, problem.n_aps)
        else:
            key = (metric, -problem.link_rate(target, user), target)
        keys[target] = key
        return key

    if current is None:
        # An unserved user always takes a feasible AP when one exists.
        best = min(joined, key=score, default=None)
        return Decision(user=user, target=best, improves=best is not None)
    best = min([current, *joined], key=score)
    if best == current:
        return Decision(user=user, target=current, improves=False)
    # Strict-improvement rule: only move when the metric genuinely drops.
    current_key = score(current)
    best_key = score(best)
    if policy in ("mnu", "mla"):
        improved = best_key[0] < current_key[0] - epsilon
    else:
        improved = _vector_less(best_key[0], current_key[0], epsilon)
    if not improved:
        return Decision(user=user, target=current, improves=False)
    return Decision(user=user, target=best, improves=True)


def _vector_less(a: tuple[float, ...], b: tuple[float, ...], eps: float) -> bool:
    """Strict lexicographic comparison with tolerance (footnote 5)."""
    for x, y in zip(a, b, strict=True):
        if x < y - eps:
            return True
        if x > y + eps:
            return False
    return False


@dataclass(frozen=True)
class DistributedResult:
    """Outcome of running the distributed dynamics to quiescence."""

    assignment: Assignment
    rounds: int
    moves: int
    converged: bool
    oscillated: bool

    @property
    def n_served(self) -> int:
        return self.assignment.n_served


def run_distributed(
    problem: MulticastAssociationProblem,
    policy: Policy,
    *,
    mode: Literal["sequential", "simultaneous"] = "sequential",
    initial: Sequence[int | None] | None = None,
    rng: random.Random | None = None,
    shuffle_each_round: bool = True,
    max_rounds: int = 200,
    enforce_budgets: bool | None = None,
) -> DistributedResult:
    """Run rounds of local decisions until no user moves (or a cycle/cap).

    ``sequential`` applies each decision before the next user decides (the
    regime of Lemmas 1–2, guaranteed to converge); ``simultaneous`` lets the
    whole round decide on one snapshot and applies all moves together,
    reproducing Figure 4's potential oscillation.
    """
    with instrument.span(
        "distributed.run",
        policy=policy,
        mode=mode,
        n_users=problem.n_users,
    ):
        result, state, decisions = _run_rounds(
            problem,
            policy,
            mode=mode,
            initial=initial,
            rng=rng,
            shuffle_each_round=shuffle_each_round,
            max_rounds=max_rounds,
            enforce_budgets=enforce_budgets,
        )
    if instrument.enabled():
        instrument.incr("distributed.runs")
        instrument.incr("distributed.rounds", result.rounds)
        instrument.incr("distributed.moves", result.moves)
        instrument.incr("distributed.decisions", decisions)
        if result.oscillated:
            instrument.incr("distributed.oscillations")
        for op, count in state.op_counts().items():
            instrument.incr(f"ledger.{op}", count)
    return result


def _run_rounds(
    problem: MulticastAssociationProblem,
    policy: Policy,
    *,
    mode: Literal["sequential", "simultaneous"],
    initial: Sequence[int | None] | None,
    rng: random.Random | None,
    shuffle_each_round: bool,
    max_rounds: int,
    enforce_budgets: bool | None,
) -> tuple[DistributedResult, AssociationState, int]:
    """The decision/move loop behind :func:`run_distributed`; also returns
    the number of decisions made.

    Sequential rounds skip *settled* users. A decision reads only the
    user's own AP and the APs it hears (their loads and what-if loads,
    plus fixed budgets and rates), and only a move changes those. So a
    user who decided to stay would decide to stay again until some move
    leaves or joins an AP it hears, and every such move unsettles that
    AP's hearers. Skipping settled users therefore replays exactly the
    moves, rounds and final map of deciding every user every round.
    Simultaneous rounds decide every user on one snapshot.
    """
    state = AssociationState(problem, initial)
    rng = rng or random.Random(0)
    order = list(range(problem.n_users))
    sequential = mode == "sequential"
    if sequential:
        hearers = [problem.users_of_ap(ap) for ap in range(problem.n_aps)]
        settled: set[int] = set()
    else:
        seen_states = {state.state_key()}
    total_moves = 0
    decisions = 0
    oscillated = False

    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        if shuffle_each_round:
            rng.shuffle(order)
        moved = False
        if sequential:
            for user in order:
                if user in settled:
                    continue
                decisions += 1
                target = decide(
                    state, user, policy, enforce_budgets=enforce_budgets
                ).target
                old = state.ap_of_user[user]
                if target == old:
                    settled.add(user)
                    continue
                state.move(user, target)
                total_moves += 1
                moved = True
                if old is not None:
                    settled.difference_update(hearers[old])
                if target is not None:
                    settled.difference_update(hearers[target])
        else:
            batch = [
                decide(state, user, policy, enforce_budgets=enforce_budgets)
                for user in order
            ]
            decisions += len(batch)
            for decision in batch:
                if decision.target != state.ap_of_user[decision.user]:
                    state.move(decision.user, decision.target)
                    total_moves += 1
                    moved = True
        if not moved:
            return (
                DistributedResult(
                    assignment=state.to_assignment(),
                    rounds=rounds,
                    moves=total_moves,
                    converged=True,
                    oscillated=False,
                ),
                state,
                decisions,
            )
        if not sequential:
            key = state.state_key()
            if key in seen_states:
                oscillated = True
                break
            seen_states.add(key)

    return (
        DistributedResult(
            assignment=state.to_assignment(),
            rounds=rounds,
            moves=total_moves,
            converged=False,
            oscillated=oscillated,
        ),
        state,
        decisions,
    )
