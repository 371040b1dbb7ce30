"""Trace-driven motion models: random waypoint and vehicular mobility.

:mod:`repro.scenarios.mobility` covers the paper's quasi-static regime —
users relocate in rare, discrete jumps. This module covers the regime the
paper's *distributed* protocols (Figs 9–12) implicitly claim to survive:
**continuous motion**, where users sweep through cells and the best AP
changes every few epochs. Two seeded, fully deterministic models are
provided:

* :class:`RandomWaypoint` — the classic pedestrian model: pick a uniform
  waypoint, walk toward it at a per-leg speed, pause, repeat.
* :class:`VehicularGrid` — a road-grid model in the spirit of the
  wifi-vehicles measurement work: vehicles ride horizontal/vertical lanes
  at constant speed, bounce at the area edge, and occasionally turn onto
  the nearest cross street.

A model emits a :class:`MotionTrace` — per-epoch positions for every user
— whose :meth:`~MotionTrace.trace_bytes` serialization is *byte identical*
for equal seeds (every float is ``float.hex()``-encoded; no formatting
noise). From a trace and a :class:`~repro.scenarios.generator.Scenario`
the derived views are:

* :func:`link_timeseries` — per-epoch, per-user ``(best AP, PHY rate,
  RSSI)`` against the scenario's rate ladder, where *best* means highest
  signal strength (ties to the lowest AP index; under the paper's
  :class:`~repro.radio.propagation.ThresholdPropagation` that is the
  nearest AP, exactly the SSA rule);
* :func:`handover_events` — one :class:`Handover` per (epoch, user) where
  the best AP *changed* — precisely the argmax-change points of the
  signal time-series, including coverage losses (``new_ap is None``) and
  re-entries (``old_ap is None``).

Everything downstream hangs off these: :mod:`repro.net.handoff` prices
the events, the service driver compiles traces into control-plane churn,
and ``repro eval mobility`` sweeps re-solve cadence against speed.
"""

from __future__ import annotations

import json
import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.radio.geometry import Area, Point, xy_array
from repro.scenarios.generator import Scenario

#: The motion-model names :func:`make_motion_model` accepts.
MOTION_MODELS: tuple[str, ...] = ("waypoint", "vehicular")


@dataclass(frozen=True)
class MotionTrace:
    """Per-epoch user positions emitted by one motion model run.

    ``positions[e][u]`` is user ``u``'s position during epoch ``e``;
    epoch 0 is the model's starting state (for :class:`VehicularGrid`
    that is the *lane-snapped* initial placement). Epochs are
    ``epoch_s`` seconds apart.
    """

    model: str
    seed: int
    epoch_s: float
    area: Area
    positions: tuple[tuple[Point, ...], ...]

    @property
    def n_epochs(self) -> int:
        return len(self.positions)

    @property
    def n_users(self) -> int:
        return len(self.positions[0]) if self.positions else 0

    def positions_at(self, epoch: int) -> tuple[Point, ...]:
        return self.positions[epoch]

    def trace_bytes(self) -> bytes:
        """Canonical serialization for byte-identity checks.

        Every float is ``float.hex()``-encoded, keys are sorted and the
        JSON is compact — equal seeds/parameters produce the identical
        byte string on every platform.
        """
        payload = {
            "model": self.model,
            "seed": self.seed,
            "epoch_s": float(self.epoch_s).hex(),
            "area": [
                float(v).hex()
                for v in (
                    self.area.x_min,
                    self.area.y_min,
                    self.area.x_max,
                    self.area.y_max,
                )
            ],
            "positions": [
                [[float(p.x).hex(), float(p.y).hex()] for p in epoch]
                for epoch in self.positions
            ],
        }
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")


class MotionModel(ABC):
    """A seeded generator of deterministic per-epoch position traces."""

    name: str = "motion"

    @abstractmethod
    def trace(self, initial: Sequence[Point], n_epochs: int) -> MotionTrace:
        """``n_epochs`` epochs of positions starting from ``initial``.

        Epoch 0 is the starting state; models may normalize it (clamp
        into the area, snap onto lanes) but draw no random motion for
        it. The same ``initial`` and constructor arguments always yield
        the byte-identical trace.
        """


class RandomWaypoint(MotionModel):
    """Classic random-waypoint motion: walk to a waypoint, pause, repeat.

    Each user independently picks a uniform waypoint in the area and a
    per-leg speed uniform in ``[0.5, 1.5] * speed_mps``, walks straight
    toward it epoch by epoch, pauses ``pause_epochs`` epochs on arrival,
    then picks the next leg. ``speed_mps = 0`` degenerates to a frozen
    placement (useful as the zero-churn control).
    """

    name = "waypoint"

    def __init__(
        self,
        area: Area,
        *,
        speed_mps: float = 1.5,
        epoch_s: float = 1.0,
        pause_epochs: int = 0,
        seed: int = 0,
    ) -> None:
        if speed_mps < 0:
            raise ValueError("speed must be non-negative")
        if epoch_s <= 0:
            raise ValueError("epoch duration must be positive")
        if pause_epochs < 0:
            raise ValueError("pause must be non-negative")
        self._area = area
        self._speed = speed_mps
        self._epoch_s = epoch_s
        self._pause = pause_epochs
        self._seed = seed

    def _leg_speed(self, rng: random.Random) -> float:
        return rng.uniform(0.5 * self._speed, 1.5 * self._speed)

    def _waypoint(self, rng: random.Random) -> Point:
        return Point(
            rng.uniform(self._area.x_min, self._area.x_max),
            rng.uniform(self._area.y_min, self._area.y_max),
        )

    def trace(self, initial: Sequence[Point], n_epochs: int) -> MotionTrace:
        if n_epochs <= 0:
            raise ValueError("need at least one epoch")
        rng = random.Random(self._seed)
        positions = [p.clamped(self._area) for p in initial]
        targets = [self._waypoint(rng) for _ in positions]
        speeds = [self._leg_speed(rng) for _ in positions]
        pauses = [0] * len(positions)
        epochs: list[tuple[Point, ...]] = [tuple(positions)]
        for _ in range(1, n_epochs):
            for u in range(len(positions)):
                if pauses[u] > 0:
                    pauses[u] -= 1
                    continue
                step = speeds[u] * self._epoch_s
                if step <= 0:
                    continue
                here, there = positions[u], targets[u]
                gap = here.distance_to(there)
                if gap <= step:
                    positions[u] = there
                    pauses[u] = self._pause
                    targets[u] = self._waypoint(rng)
                    speeds[u] = self._leg_speed(rng)
                else:
                    positions[u] = Point(
                        here.x + (there.x - here.x) * step / gap,
                        here.y + (there.y - here.y) * step / gap,
                    ).clamped(self._area)
            epochs.append(tuple(positions))
        return MotionTrace(
            model=self.name,
            seed=self._seed,
            epoch_s=self._epoch_s,
            area=self._area,
            positions=tuple(epochs),
        )


def _bounce(coord: float, lo: float, hi: float, direction: int) -> tuple[float, int]:
    """Reflect ``coord`` into ``[lo, hi]`` (triangular fold).

    Position is periodic with period ``2 * span``: the first half-period
    travels forward, the second backward, so the returned direction flips
    exactly when the folded offset lands in the second half — reflections
    beyond one period cancel in pairs.
    """
    span = hi - lo
    if span <= 0:
        return lo, direction
    offset = (coord - lo) % (2.0 * span)
    if offset <= span:
        return lo + offset, direction
    return lo + 2.0 * span - offset, -direction


class VehicularGrid(MotionModel):
    """Road-grid vehicular motion: constant speed along lanes, seeded turns.

    The area is overlaid with horizontal and vertical lanes spaced
    ``lane_pitch_m`` apart. Epoch 0 snaps every user onto the nearest
    lane with a seeded travel axis and direction; each subsequent epoch
    advances the vehicle ``speed_mps * epoch_s`` meters along its lane,
    bouncing at the area edge (speed is constant in magnitude, as in a
    closed road network). After each move the vehicle turns onto the
    nearest cross street with probability ``p_turn``, keeping all
    positions on the grid and inside the area.
    """

    name = "vehicular"

    def __init__(
        self,
        area: Area,
        *,
        speed_mps: float = 12.0,
        lane_pitch_m: float = 150.0,
        p_turn: float = 0.2,
        epoch_s: float = 1.0,
        seed: int = 0,
    ) -> None:
        if speed_mps < 0:
            raise ValueError("speed must be non-negative")
        if lane_pitch_m <= 0:
            raise ValueError("lane pitch must be positive")
        if not 0.0 <= p_turn <= 1.0:
            raise ValueError("p_turn must be a probability")
        if epoch_s <= 0:
            raise ValueError("epoch duration must be positive")
        self._area = area
        self._speed = speed_mps
        self._pitch = lane_pitch_m
        self._p_turn = p_turn
        self._epoch_s = epoch_s
        self._seed = seed

    def _lanes(self, lo: float, hi: float) -> list[float]:
        """Lane coordinates in ``[lo, hi]``, ``pitch`` apart; never empty."""
        lanes = []
        coord = lo
        while coord <= hi:
            lanes.append(coord)
            coord += self._pitch
        if not lanes:  # pragma: no cover - lo <= hi always seeds one lane
            lanes.append((lo + hi) / 2.0)
        return lanes

    @staticmethod
    def _nearest(lanes: Sequence[float], coord: float) -> float:
        return min(lanes, key=lambda lane: (abs(lane - coord), lane))

    def trace(self, initial: Sequence[Point], n_epochs: int) -> MotionTrace:
        if n_epochs <= 0:
            raise ValueError("need at least one epoch")
        rng = random.Random(self._seed)
        x_lanes = self._lanes(self._area.x_min, self._area.x_max)
        y_lanes = self._lanes(self._area.y_min, self._area.y_max)
        # Per-vehicle state: travel axis (0 = along x on a y-lane,
        # 1 = along y on an x-lane), lane coordinate, travel coordinate,
        # direction.
        axes: list[int] = []
        lanes: list[float] = []
        coords: list[float] = []
        dirs: list[int] = []
        for p in initial:
            p = p.clamped(self._area)
            axis = rng.randrange(2)
            axes.append(axis)
            if axis == 0:
                lanes.append(self._nearest(y_lanes, p.y))
                coords.append(p.x)
            else:
                lanes.append(self._nearest(x_lanes, p.x))
                coords.append(p.y)
            dirs.append(rng.choice((-1, 1)))

        def position(u: int) -> Point:
            if axes[u] == 0:
                return Point(coords[u], lanes[u])
            return Point(lanes[u], coords[u])

        epochs: list[tuple[Point, ...]] = [
            tuple(position(u) for u in range(len(initial)))
        ]
        step = self._speed * self._epoch_s
        for _ in range(1, n_epochs):
            for u in range(len(initial)):
                if step <= 0:
                    # A parked vehicle neither moves nor turns; the trace
                    # degenerates to the (lane-snapped) frozen placement.
                    continue
                if axes[u] == 0:
                    lo, hi = self._area.x_min, self._area.x_max
                else:
                    lo, hi = self._area.y_min, self._area.y_max
                coords[u], dirs[u] = _bounce(
                    coords[u] + dirs[u] * step, lo, hi, dirs[u]
                )
                if rng.random() < self._p_turn:
                    # Turn onto the nearest cross street: the travel
                    # coordinate snaps to a perpendicular lane and the
                    # old lane becomes the new travel coordinate.
                    cross = y_lanes if axes[u] == 0 else x_lanes
                    new_lane = self._nearest(cross, coords[u])
                    coords[u], lanes[u] = lanes[u], new_lane
                    axes[u] = 1 - axes[u]
                    dirs[u] = rng.choice((-1, 1))
            epochs.append(tuple(position(u) for u in range(len(initial))))
        return MotionTrace(
            model=self.name,
            seed=self._seed,
            epoch_s=self._epoch_s,
            area=self._area,
            positions=tuple(epochs),
        )


def make_motion_model(
    kind: str,
    area: Area,
    *,
    speed_mps: float,
    epoch_s: float = 1.0,
    seed: int = 0,
    pause_epochs: int = 0,
    lane_pitch_m: float = 150.0,
    p_turn: float = 0.2,
) -> MotionModel:
    """Construct a motion model by name (``"waypoint"`` / ``"vehicular"``)."""
    if kind == "waypoint":
        return RandomWaypoint(
            area,
            speed_mps=speed_mps,
            epoch_s=epoch_s,
            pause_epochs=pause_epochs,
            seed=seed,
        )
    if kind == "vehicular":
        return VehicularGrid(
            area,
            speed_mps=speed_mps,
            lane_pitch_m=lane_pitch_m,
            p_turn=p_turn,
            epoch_s=epoch_s,
            seed=seed,
        )
    raise ValueError(
        f"unknown motion model {kind!r}; choose from {MOTION_MODELS}"
    )


@dataclass(frozen=True)
class LinkSample:
    """One user's radio state during one epoch.

    ``best_ap`` is the highest-signal in-range AP (lowest index on
    ties), ``rate_mbps`` the ladder rate of that link (0.0 when
    uncovered) and ``rssi_dbm`` its signal strength (``-inf`` when
    uncovered).
    """

    best_ap: int | None
    rate_mbps: float
    rssi_dbm: float

    @property
    def covered(self) -> bool:
        return self.best_ap is not None


def link_timeseries(
    trace: MotionTrace, scenario: Scenario
) -> tuple[tuple[LinkSample, ...], ...]:
    """Per-epoch, per-user best-AP/rate/RSSI series for a trace.

    The best AP maximizes the propagation model's signal strength among
    in-range APs (strict comparison, so ties keep the lowest AP index).
    Under :class:`~repro.radio.propagation.ThresholdPropagation` signal
    strength decreases with distance, so this is the nearest-AP (SSA)
    rule quantized onto the paper's Table-1 rate ladder.
    """
    if trace.n_users != scenario.n_users:
        raise ValueError(
            f"trace tracks {trace.n_users} users, "
            f"scenario has {scenario.n_users}"
        )
    model = scenario.model
    ap_xy = xy_array(scenario.ap_positions)
    series: list[tuple[LinkSample, ...]] = []
    for epoch_positions in trace.positions:
        rates = model.rate_matrix(ap_xy, xy_array(epoch_positions))
        samples: list[LinkSample] = []
        for u, user in enumerate(epoch_positions):
            best_ap: int | None = None
            best_rssi = -math.inf
            for ap_index in np.flatnonzero(rates[:, u]).tolist():
                rssi = model.signal_strength(scenario.ap_positions[ap_index], user)
                if rssi > best_rssi:
                    best_rssi = rssi
                    best_ap = ap_index
            samples.append(
                LinkSample(
                    best_ap=best_ap,
                    rate_mbps=0.0 if best_ap is None else float(rates[best_ap, u]),
                    rssi_dbm=best_rssi,
                )
            )
        series.append(tuple(samples))
    return tuple(series)


@dataclass(frozen=True)
class Handover:
    """A best-AP change for one user between consecutive epochs.

    ``old_ap is None`` means the user (re-)entered coverage; ``new_ap is
    None`` means it dropped out. ``epoch`` is the epoch the change takes
    effect (never 0 — epoch 0 is the initial association, not a
    handover).
    """

    epoch: int
    user: int
    old_ap: int | None
    new_ap: int | None


def handover_events(
    trace: MotionTrace,
    scenario: Scenario,
    *,
    series: Sequence[Sequence[LinkSample]] | None = None,
) -> tuple[Handover, ...]:
    """The argmax-change points of the best-AP time-series.

    One event per (epoch >= 1, user) where the best AP differs from the
    previous epoch's, ordered by epoch then user. Pass ``series`` to
    reuse an already-computed :func:`link_timeseries`.
    """
    if series is None:
        series = link_timeseries(trace, scenario)
    events: list[Handover] = []
    for epoch in range(1, len(series)):
        previous, current = series[epoch - 1], series[epoch]
        for user in range(len(current)):
            old, new = previous[user].best_ap, current[user].best_ap
            if old != new:
                events.append(
                    Handover(epoch=epoch, user=user, old_ap=old, new_ap=new)
                )
    return tuple(events)


def motion_scenario_epochs(
    scenario: Scenario, trace: MotionTrace
) -> Iterator[Scenario]:
    """Scenario variants following a motion trace, one per epoch.

    Every yielded scenario shares the APs, sessions and requests of the
    original; only user positions evolve (the mobility-family analogue
    of :func:`repro.scenarios.mobility.scenario_epochs`).
    """
    for epoch in range(trace.n_epochs):
        yield scenario.with_user_positions(trace.positions_at(epoch))
