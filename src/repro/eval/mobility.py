"""The churn-vs-cadence eval: re-solve cadence against user speed.

The paper's Figs 9–12 compare centralized and distributed association on
*static* snapshots. This figure family asks the question those figures
cannot: under continuous motion, how often must a centralized controller
re-solve to stay ahead of churn, and what do the distributed policies —
which react every epoch by construction — pay in handovers for keeping
up?

For every speed in a ladder, one seeded motion trace drives all
policies over the identical per-epoch problem sequence:

* ``c-mla/k`` — centralized MLA re-solved every ``k`` epochs; between
  re-solves the association is frozen and users whose held link died
  are dropped (Definition-1 load of a dead link is infinite).
* ``d-mla`` / ``d-bla`` — the paper's distributed policies, warm-started
  from the previous epoch's association each epoch (the regime of
  Lemmas 1–2).

Per (speed, policy) the study records the per-epoch max AP load (read
off each epoch's :class:`~repro.core.assignment.Assignment` ledger —
RPL001), the per-epoch unserved count, the per-epoch handover count and
the cumulative handover airtime under a
:class:`~repro.net.handoff.HandoffCostModel`. All of it serializes
canonically (every float ``float.hex()``-encoded) via :func:`study_bytes`
— same seed, byte-identical figure data.

The small corpus-pin format (:data:`MOBILITY_PIN_KIND`,
:func:`mobility_pin_record` / :func:`replay_mobility_pin`) freezes one
tiny vehicular cell's per-epoch loads and handover counts so
``tests/test_corpus.py`` keeps the whole pipeline bit-stable forever.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, TextIO

from repro.core.assignment import Assignment
from repro.core.distributed import Policy, run_distributed
from repro.core.mla import solve_mla
from repro.core.problem import MulticastAssociationProblem
from repro.net.handoff import HandoffCostModel, account_handovers
from repro.scenarios.generator import SMALL_AREA, generate
from repro.scenarios.motion import Handover, make_motion_model

#: Speeds (m/s) the default ladder sweeps: pedestrian, campus shuttle,
#: urban vehicle.
DEFAULT_SPEEDS: tuple[float, ...] = (1.5, 8.0, 20.0)
#: Centralized re-solve cadences (epochs between solves).
DEFAULT_CADENCES: tuple[int, ...] = (1, 4, 8)
#: Distributed policies compared against the cadence ladder.
DEFAULT_POLICIES: tuple[str, ...] = ("d-mla", "d-bla")


@dataclass(frozen=True)
class PolicySeries:
    """One (speed, policy) trajectory across the trace's epochs."""

    policy: str
    speed_mps: float
    max_load: tuple[float, ...]
    n_unserved: tuple[int, ...]
    handoffs: tuple[int, ...]
    cum_handoff_cost_s: tuple[float, ...]
    n_solves: int

    @property
    def total_handoffs(self) -> int:
        return sum(self.handoffs)

    @property
    def final_cost_s(self) -> float:
        return self.cum_handoff_cost_s[-1] if self.cum_handoff_cost_s else 0.0

    @property
    def mean_max_load(self) -> float:
        if not self.max_load:
            return 0.0
        return math.fsum(self.max_load) / len(self.max_load)


@dataclass(frozen=True)
class MobilityStudy:
    """The full cadence-vs-churn comparison, one cell per (speed, policy)."""

    name: str
    model: str
    seed: int
    epoch_s: float
    n_epochs: int
    n_aps: int
    n_users: int
    n_sessions: int
    speeds: tuple[float, ...]
    cost_model: HandoffCostModel
    series: tuple[PolicySeries, ...]

    def series_for(self, speed: float, policy: str) -> PolicySeries:
        for cell in self.series:
            # Speeds enter as exact ladder parameters, never derived, so
            # identity comparison is well-defined.
            if cell.policy == policy and cell.speed_mps == speed:
                return cell
        raise KeyError(f"no series for speed={speed}, policy={policy}")


def _centralized_cadence(
    problems: Sequence[MulticastAssociationProblem],
    cadence: int,
) -> tuple[list[list[int | None]], int]:
    """Re-solve MLA every ``cadence`` epochs, hold (with drops) between."""
    maps: list[list[int | None]] = []
    held: list[int | None] = []
    n_solves = 0
    for epoch, problem in enumerate(problems):
        if epoch % cadence == 0:
            held = _solve_covered(problem)
            n_solves += 1
        else:
            held = [
                ap
                if ap is not None and problem.in_range(ap, user)
                else None
                for user, ap in enumerate(held)
            ]
        maps.append(list(held))
    return maps, n_solves


def _solve_covered(
    problem: MulticastAssociationProblem,
) -> list[int | None]:
    """Cold MLA on the covered sub-instance, mapped back to all users."""
    covered = [u for u in range(problem.n_users) if problem.aps_of_user(u)]
    full: list[int | None] = [None] * problem.n_users
    if not covered:
        return full
    sub, keep = problem.restricted_to_users(covered)
    assignment = solve_mla(sub).assignment
    for sub_user, ap in enumerate(assignment.ap_of_user):
        full[keep[sub_user]] = ap
    return full


def _distributed_epoch(
    problem: MulticastAssociationProblem,
    policy: Policy,
    previous: Sequence[int | None],
    rng_seed: str,
) -> list[int | None]:
    """One epoch of a distributed policy, warm-started from ``previous``."""
    covered = [u for u in range(problem.n_users) if problem.aps_of_user(u)]
    full: list[int | None] = [None] * problem.n_users
    if not covered:
        return full
    sub, keep = problem.restricted_to_users(covered)
    initial: list[int | None] = []
    for sub_user, user in enumerate(keep):
        held = previous[user]
        if held is not None and not sub.in_range(held, sub_user):
            held = None  # the held link died this epoch
        initial.append(held)
    result = run_distributed(
        sub,
        policy,
        initial=initial,
        rng=random.Random(rng_seed),
        enforce_budgets=False,
    )
    for sub_user, ap in enumerate(result.assignment.ap_of_user):
        full[keep[sub_user]] = ap
    return full


def _series_metrics(
    policy_name: str,
    speed: float,
    problems: Sequence[MulticastAssociationProblem],
    maps: Sequence[Sequence[int | None]],
    cost_model: HandoffCostModel,
    n_solves: int,
) -> PolicySeries:
    """Derive the per-epoch metric trajectory from the association maps."""
    max_loads: list[float] = []
    unserved: list[int] = []
    handoffs: list[int] = []
    cum_cost: list[float] = []
    running_cost = 0.0
    for epoch, (problem, ap_map) in enumerate(zip(problems, maps)):
        assignment = Assignment(problem, list(ap_map))
        loads = assignment.load_array()
        max_loads.append(float(loads.max()) if loads.size else 0.0)
        unserved.append(problem.n_users - assignment.n_served)
        if epoch == 0:
            # Initial association, not churn — no handover charge.
            handoffs.append(0)
            cum_cost.append(0.0)
            continue
        events = [
            Handover(epoch=epoch, user=user, old_ap=old, new_ap=new)
            for user, (old, new) in enumerate(zip(maps[epoch - 1], ap_map))
            if old != new
        ]
        accounting = account_handovers(events, cost_model=cost_model)
        handoffs.append(accounting.n_charged)
        running_cost += accounting.cost_s
        cum_cost.append(running_cost)
    return PolicySeries(
        policy=policy_name,
        speed_mps=speed,
        max_load=tuple(max_loads),
        n_unserved=tuple(unserved),
        handoffs=tuple(handoffs),
        cum_handoff_cost_s=tuple(cum_cost),
        n_solves=n_solves,
    )


def run_mobility_study(
    *,
    n_aps: int = 16,
    n_users: int = 80,
    n_sessions: int = 4,
    n_epochs: int = 24,
    speeds: Sequence[float] = DEFAULT_SPEEDS,
    cadences: Sequence[int] = DEFAULT_CADENCES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    model: str = "vehicular",
    epoch_s: float = 1.0,
    seed: int = 0,
    cost_model: HandoffCostModel | None = None,
    progress: Callable[[str], None] | None = None,
) -> MobilityStudy:
    """Run the cadence-vs-churn comparison across the speed ladder.

    One scenario (fixed APs/sessions, ``seed``-deterministic) hosts every
    speed; per speed, one motion trace drives every policy over the
    identical epoch problems, so differences between cells are purely the
    policy's. Budgets are disabled — the study isolates load-vs-handover
    dynamics from admission control. Deterministic in ``seed``.
    """
    if n_epochs < 1:
        raise ValueError("need at least one epoch")
    if not speeds:
        raise ValueError("need at least one speed")
    for cadence in cadences:
        if cadence < 1:
            raise ValueError("cadences must be positive")
    for policy in policies:
        if policy not in ("d-mla", "d-bla", "d-mnu"):
            raise ValueError(f"unknown distributed policy {policy!r}")
    cost = cost_model if cost_model is not None else HandoffCostModel.full_scan()
    scenario = generate(
        n_aps=n_aps,
        n_users=n_users,
        n_sessions=n_sessions,
        seed=seed,
        area=SMALL_AREA,
        budget=math.inf,
    )
    series: list[PolicySeries] = []
    for speed_index, speed in enumerate(speeds):
        motion = make_motion_model(
            model,
            scenario.area,
            speed_mps=speed,
            epoch_s=epoch_s,
            seed=seed,
        )
        trace = motion.trace(scenario.user_positions, n_epochs)
        problems = [
            scenario.with_user_positions(trace.positions_at(e)).problem()
            for e in range(n_epochs)
        ]
        if progress is not None:
            progress(f"speed {speed} m/s: {n_epochs} epochs built")
        for cadence in cadences:
            maps, n_solves = _centralized_cadence(problems, cadence)
            series.append(
                _series_metrics(
                    f"c-mla/k{cadence}", speed, problems, maps, cost, n_solves
                )
            )
        for policy in policies:
            maps = []
            previous: list[int | None] = [None] * n_users
            for epoch, problem in enumerate(problems):
                previous = _distributed_epoch(
                    problem,
                    policy.removeprefix("d-"),  # type: ignore[arg-type]
                    previous,
                    f"{seed}:{policy}:{speed_index}:{epoch}",
                )
                maps.append(previous)
            series.append(
                _series_metrics(
                    policy, speed, problems, maps, cost, n_epochs
                )
            )
        if progress is not None:
            progress(f"speed {speed} m/s: done")
    return MobilityStudy(
        name="mobility-cadence-vs-churn",
        model=model,
        seed=seed,
        epoch_s=epoch_s,
        n_epochs=n_epochs,
        n_aps=n_aps,
        n_users=n_users,
        n_sessions=n_sessions,
        speeds=tuple(speeds),
        cost_model=cost,
        series=tuple(series),
    )


def study_bytes(study: MobilityStudy) -> bytes:
    """Canonical byte serialization of a study (figure-data identity pin).

    Every float is ``float.hex()``-encoded, keys sorted, JSON compact —
    two same-seed runs must produce the identical byte string.
    """
    payload = {
        "name": study.name,
        "model": study.model,
        "seed": study.seed,
        "epoch_s": float(study.epoch_s).hex(),
        "n_epochs": study.n_epochs,
        "n_aps": study.n_aps,
        "n_users": study.n_users,
        "n_sessions": study.n_sessions,
        "speeds": [float(s).hex() for s in study.speeds],
        "cost_model": {
            "name": study.cost_model.name,
            "scan_window_s": float(study.cost_model.scan_window_s).hex(),
            "management_bytes": study.cost_model.management_bytes,
            "basic_rate_mbps": float(study.cost_model.basic_rate_mbps).hex(),
        },
        "series": [
            {
                "policy": cell.policy,
                "speed_mps": float(cell.speed_mps).hex(),
                "max_load": [float(x).hex() for x in cell.max_load],
                "n_unserved": list(cell.n_unserved),
                "handoffs": list(cell.handoffs),
                "cum_handoff_cost_s": [
                    float(x).hex() for x in cell.cum_handoff_cost_s
                ],
                "n_solves": cell.n_solves,
            }
            for cell in study.series
        ],
    }
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def format_study(study: MobilityStudy) -> str:
    """A human-readable summary table, one row per (speed, policy)."""
    header = (
        f"{study.name}: model={study.model} {study.n_aps} APs x "
        f"{study.n_users} users, {study.n_epochs} epochs of "
        f"{study.epoch_s:g}s, scan={study.cost_model.name}, "
        f"seed={study.seed}"
    )
    lines = [header, ""]
    lines.append(
        f"{'speed m/s':>10} {'policy':<12} {'solves':>6} "
        f"{'mean max load':>14} {'handoffs':>9} {'cost s':>9} "
        f"{'worst unserved':>14}"
    )
    for cell in study.series:
        lines.append(
            f"{cell.speed_mps:>10g} {cell.policy:<12} {cell.n_solves:>6} "
            f"{cell.mean_max_load:>14.4f} {cell.total_handoffs:>9} "
            f"{cell.final_cost_s:>9.3f} {max(cell.n_unserved):>14}"
        )
    return "\n".join(lines)


def write_study_csv(study: MobilityStudy, stream: TextIO) -> None:
    """Per-epoch long-format CSV: one row per (speed, policy, epoch)."""
    stream.write(
        "speed_mps,policy,epoch,max_load,n_unserved,handoffs,"
        "cum_handoff_cost_s\n"
    )
    for cell in study.series:
        for epoch in range(len(cell.max_load)):
            stream.write(
                f"{cell.speed_mps!r},{cell.policy},{epoch},"
                f"{cell.max_load[epoch]!r},{cell.n_unserved[epoch]},"
                f"{cell.handoffs[epoch]},"
                f"{cell.cum_handoff_cost_s[epoch]!r}\n"
            )


# -- corpus pin --------------------------------------------------------------

#: The ``kind`` tag distinguishing mobility pins from fuzz-corpus entries
#: inside ``tests/corpus/*.json``.
MOBILITY_PIN_KIND = "repro-mobility-pin"


def _pin_params(record: Mapping[str, object]) -> dict[str, object]:
    params = record["params"]
    assert isinstance(params, dict)
    return params


def mobility_pin_record(
    *,
    n_aps: int,
    n_users: int,
    n_sessions: int,
    n_epochs: int,
    speed_mps: float,
    cadence: int,
    model: str = "vehicular",
    epoch_s: float = 1.0,
    seed: int = 0,
) -> dict[str, object]:
    """Record a replayable pin of one centralized cell's trajectory.

    Pins the ``c-mla/k{cadence}`` series — per-epoch max loads as
    ``float.hex`` plus per-epoch handover counts — for a single-speed
    study. :func:`replay_mobility_pin` re-runs the pipeline and reports
    every mismatch.
    """
    study = run_mobility_study(
        n_aps=n_aps,
        n_users=n_users,
        n_sessions=n_sessions,
        n_epochs=n_epochs,
        speeds=(speed_mps,),
        cadences=(cadence,),
        policies=(),
        model=model,
        epoch_s=epoch_s,
        seed=seed,
    )
    cell = study.series[0]
    return {
        "kind": MOBILITY_PIN_KIND,
        "version": 1,
        "params": {
            "n_aps": n_aps,
            "n_users": n_users,
            "n_sessions": n_sessions,
            "n_epochs": n_epochs,
            "speed_mps": speed_mps,
            "cadence": cadence,
            "model": model,
            "epoch_s": epoch_s,
            "seed": seed,
        },
        "policy": cell.policy,
        "max_load": [float(x).hex() for x in cell.max_load],
        "handoffs": list(cell.handoffs),
        "cum_handoff_cost_s": [
            float(x).hex() for x in cell.cum_handoff_cost_s
        ],
    }


def replay_mobility_pin(record: Mapping[str, object]) -> list[str]:
    """Re-run a pinned mobility cell; returns human-readable mismatches.

    An empty list means the current pipeline reproduces the pinned
    trajectory bit for bit.
    """
    if record.get("kind") != MOBILITY_PIN_KIND:
        raise ValueError(
            f"not a mobility pin (kind={record.get('kind')!r})"
        )
    params = _pin_params(record)
    fresh = mobility_pin_record(
        n_aps=int(params["n_aps"]),  # type: ignore[call-overload]
        n_users=int(params["n_users"]),  # type: ignore[call-overload]
        n_sessions=int(params["n_sessions"]),  # type: ignore[call-overload]
        n_epochs=int(params["n_epochs"]),  # type: ignore[call-overload]
        speed_mps=float(params["speed_mps"]),  # type: ignore[arg-type]
        cadence=int(params["cadence"]),  # type: ignore[call-overload]
        model=str(params["model"]),
        epoch_s=float(params["epoch_s"]),  # type: ignore[arg-type]
        seed=int(params["seed"]),  # type: ignore[call-overload]
    )
    mismatches: list[str] = []
    for key in ("policy", "max_load", "handoffs", "cum_handoff_cost_s"):
        if fresh[key] != record.get(key):
            mismatches.append(
                f"{key}: pinned {record.get(key)!r} != fresh {fresh[key]!r}"
            )
    return mismatches
