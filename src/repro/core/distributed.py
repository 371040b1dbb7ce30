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

import math
import random
from dataclasses import dataclass
from typing import Any, Literal, Sequence

from repro.core import instrument
from repro.core.assignment import Assignment
from repro.core.ledger import LoadLedger
from repro.core.problem import MulticastAssociationProblem

Policy = Literal["mnu", "mla", "bla"]

#: One join option in a user's view: (AP, slot in the view's loads, the
#: AP's load if the user joined, the user's link rate to it).
JoinOption = tuple[int, int, float, float]

#: The tolerance of the strict-improvement and budget checks.
EPSILON = 1e-12

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
    epsilon: float = EPSILON,
) -> Decision:
    """The user's local decision from the current (queried) state.

    Reads the user's view off the ledger and hands it to :func:`choose`.
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
    # target's (``load_if_joined``), so :func:`choose` substitutes those
    # two entries in place: the same queries in the same positions, hence
    # the same sums and sorted vectors as a full rebuild.
    loads = [state.load_of(ap) for ap in neighbors]
    options: list[JoinOption] = []
    current_slot: int | None = None
    for slot, ap in enumerate(neighbors):
        if ap == current:
            current_slot = slot
            continue
        load = state.load_if_joined(user, ap)
        if enforce_budgets and load > problem.budget_of(ap) + epsilon:
            continue
        options.append((ap, slot, load, problem.link_rate(ap, user)))
    leaving = (
        (current_slot, state.load_if_left(user))
        if options and current_slot is not None
        else None
    )
    target = choose(policy, loads, options, current, leaving, epsilon=epsilon)
    return Decision(user=user, target=target, improves=target != current)


def choose(
    policy: Policy,
    loads: Sequence[float],
    options: Sequence[JoinOption],
    current: int | None,
    leaving: tuple[int, float] | None,
    *,
    epsilon: float = EPSILON,
) -> int | None:
    """The distributed rule on one user's view; returns the AP to be on.

    ``loads`` are the loads of the APs the user hears. Each option is
    ``(ap, slot, load if joined, link rate)``, ``slot`` indexing
    ``loads``. ``current`` is the user's AP (``None`` = unserved);
    ``leaving`` is its ``(slot, load once the user leaves)`` when the user
    hears it, else ``None`` (it may also be ``None`` when there is no
    option). Moving to an option changes at most those two entries.

    MNU/MLA compare the total of the loads after the move, BLA their
    sorted non-increasing vector (footnote 5); ties go to the stronger
    signal (higher link rate), then the lower AP index. An unserved user
    takes the best option, if any. A served user stays unless the best
    of staying and every option is an option that improves the metric by
    more than ``epsilon`` (Lemmas 1 and 2).
    """

    def metric(after: Sequence[float]) -> Any:  # a sum or a sorted vector
        if policy in ("mnu", "mla"):
            return sum(after)
        return tuple(sorted(after, reverse=True))

    def key(option: JoinOption) -> tuple:
        ap, slot, joined, rate = option
        after = list(loads)
        if leaving is not None:
            after[leaving[0]] = leaving[1]
        after[slot] = joined
        return (metric(after), -rate, ap)

    keys = [key(option) for option in options]
    if current is None:
        best = min(keys, default=None)
        return None if best is None else best[2]
    # The best of staying and every option in exact order, so a move that
    # is better only within ``epsilon`` but worse exactly is not taken.
    # Staying wins an exact tie of the metric, which is no improvement.
    stay = metric(loads)
    best_metric, _, best = min([(stay, -math.inf, current), *keys])
    if best == current:
        return current
    if policy in ("mnu", "mla"):
        improved = best_metric < stay - epsilon
    else:
        improved = _vector_less(best_metric, stay, epsilon)
    return best if improved else current


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
