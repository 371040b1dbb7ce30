"""The WLAN simulation harness: scenario in, converged association out.

Wires a :class:`~repro.scenarios.generator.Scenario` into the event kernel:
one :class:`~repro.net.nodes.AccessPoint` per AP, one
:class:`~repro.net.nodes.UserStation` per user running the chosen
distributed policy, an airtime meter, and quiescence detection (stop when no
association has changed for a configurable number of decision periods).

Station decision cycles can be *staggered* (users decide one at a time, the
regime in which the paper proves convergence — Lemmas 1 and 2) or
*simultaneous* (all users share cycle boundaries, which can oscillate as in
the paper's Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Literal

from repro.core.assignment import Assignment
from repro.core.distributed import Policy
from repro.core.problem import MulticastAssociationProblem
from repro.net.events import Simulator
from repro.net.mac import IDEAL_MAC, AirtimeMeter, MacParameters
from repro.net.nodes import AccessPoint, Medium, UserStation
from repro.net.trace import Trace
from repro.scenarios.generator import Scenario

@dataclass(frozen=True)
class WlanConfig:
    """Tunables of the protocol simulation."""

    policy: Policy = "mla"
    mode: Literal["staggered", "simultaneous"] = "staggered"
    decision_period_s: float = 10.0
    scan_window_s: float = 0.05
    query_window_s: float = 0.05
    service_period_s: float = 1.0
    quiescence_periods: float = 2.0
    max_time_s: float = 3_600.0
    mac: MacParameters = IDEAL_MAC
    enforce_budgets: bool | None = None
    trace_enabled: bool = False

    def __post_init__(self) -> None:
        if self.decision_period_s <= 0 or self.max_time_s <= 0:
            raise ValueError("periods must be positive")
        if self.quiescence_periods <= 0:
            raise ValueError("quiescence window must be positive")


@dataclass
class WlanResult:
    """Outcome of a protocol run."""

    assignment: Assignment
    converged: bool
    sim_time_s: float
    handoffs: int
    frames_sent: int
    measured_loads: list[float] = field(default_factory=list)
    rejections: int = 0

    @property
    def n_served(self) -> int:
        return self.assignment.n_served


class WlanSimulation:
    """One scenario's protocol simulation."""

    def __init__(
        self, scenario: Scenario, config: WlanConfig | None = None
    ) -> None:
        self.scenario = scenario
        self.config = config or WlanConfig()
        self.sim = Simulator()
        self.trace = Trace(enabled=self.config.trace_enabled)
        self.medium = Medium(
            self.sim, scenario.model, trace=self.trace
        )
        self.meter = AirtimeMeter(scenario.n_aps)
        self._last_change_s = 0.0
        self._problem: MulticastAssociationProblem | None = None
        #: Every association change: (time, station node id, old AP, new AP).
        self.association_log: list[tuple[float, int, int | None, int | None]] = []

        enforce = self.config.enforce_budgets
        if enforce is None:
            enforce = self.config.policy == "mnu"
        self.aps = [
            AccessPoint(
                node_id=a,
                position=pos,
                medium=self.medium,
                sessions=scenario.sessions,
                budget=scenario.budget,
                enforce_budget=enforce,
                service_period_s=self.config.service_period_s,
                mac=self.config.mac,
                meter=self.meter,
            )
            for a, pos in enumerate(scenario.ap_positions)
        ]
        n_users = scenario.n_users
        self.stations = []
        for u, pos in enumerate(scenario.user_positions):
            if self.config.mode == "staggered":
                offset = (
                    self.config.decision_period_s * (u + 1) / max(n_users + 1, 1)
                )
            else:
                offset = 0.0
            session = scenario.user_sessions[u]
            self.stations.append(
                UserStation(
                    node_id=scenario.n_aps + u,
                    position=pos,
                    medium=self.medium,
                    session=session,
                    stream_rate_mbps=scenario.sessions[session].rate_mbps,
                    policy=self.config.policy,
                    budget_hint=scenario.budget,
                    decision_period_s=self.config.decision_period_s,
                    scan_window_s=self.config.scan_window_s,
                    query_window_s=self.config.query_window_s,
                    start_offset_s=offset,
                    enforce_budgets=self.config.enforce_budgets,
                    on_association_change=self._note_change,
                )
            )

    def _note_change(
        self, station: int, old: int | None, new: int | None, now: float
    ) -> None:
        self._last_change_s = now
        self.association_log.append((now, station, old, new))

    @property
    def problem(self) -> MulticastAssociationProblem:
        if self._problem is None:
            self._problem = self.scenario.problem()
        return self._problem

    def current_assignment(self) -> Assignment:
        ap_of_user = [station.current_ap for station in self.stations]
        return Assignment(self.problem, ap_of_user)

    def run(self) -> WlanResult:
        """Run to quiescence (or the time cap) and collect the outcome."""
        config = self.config
        quiet = config.quiescence_periods * config.decision_period_s
        converged = False
        now = 0.0
        # Let at least one full decision round happen before testing quiet.
        horizon = config.decision_period_s * 2
        while now < config.max_time_s:
            target = min(now + horizon, config.max_time_s)
            self.sim.run(until=target)
            now = self.sim.now
            if (
                now >= config.decision_period_s * 2
                and now - self._last_change_s >= quiet
            ):
                converged = True
                break
        assignment = self.current_assignment()
        window = max(self.sim.now, config.service_period_s)
        return WlanResult(
            assignment=assignment,
            converged=converged,
            sim_time_s=self.sim.now,
            handoffs=sum(s.handoffs for s in self.stations),
            frames_sent=self.medium.frames_sent,
            measured_loads=self.meter.measured_loads(window),
            rejections=sum(ap.rejections for ap in self.aps),
        )


def simulate(
    scenario: Scenario, policy: Policy = "mla", **config_kwargs: Any
) -> WlanResult:
    """Convenience one-shot: build, run, return."""
    config = WlanConfig(policy=policy, **config_kwargs)
    return WlanSimulation(scenario, config).run()
