"""Handoff and service-continuity analysis.

Association *control* means association *changes*, and every change in a
break-before-make WLAN is a short multicast outage. The paper acknowledges
the signalling cost of frequent reassociation (its argument for distributed
over centralized control at scale); this analyzer makes the user-visible
cost measurable from a simulation's association log:

* per-station handoff counts,
* per-station **service continuity** — the fraction of the observation
  window the station was associated (receiving its stream),
* the longest single outage any station suffered.

The second half prices each handover: :class:`HandoffCostModel` charges a
scan window plus the re-association management exchange's airtime (the
airtime itself computed through the LoadLedger kernel helper, RPL001),
with a full active-scan variant and a SyncScan-style reduced-cost
variant, and :func:`account_handovers` aggregates a stream of handover
events into counts and total airtime, surfacing the ``net.handoffs`` /
``net.handoff_cost_s`` counters through the :mod:`repro.core.instrument`
facade (``net`` sits below ``obs`` in the layering DAG).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, Sequence

from repro.core import instrument
from repro.core.ledger import multicast_airtime
from repro.net.mac import DOT11A_MAC, MacParameters, frames_for

if TYPE_CHECKING:
    from repro.net.wlan import WlanSimulation

AssociationLog = Sequence[tuple[float, int, int | None, int | None]]

#: Management payload of one re-association exchange, in bytes: probe
#: request/response + authentication + (re)association request/response
#: frames, sized from 802.11 management-frame formats.
REASSOCIATION_BYTES = 372

#: Full active scan across the 802.11a channel set: a MinChannelTime /
#: MaxChannelTime dwell per channel adds up to hundreds of milliseconds
#: of deafness (the measurement literature SyncScan starts from).
FULL_SCAN_WINDOW_S = 0.35

#: SyncScan-style scan: stations hop to each channel exactly when its
#: APs beacon, so discovery costs one short synchronized listen instead
#: of a blind dwell — an order of magnitude less dead air.
SYNCSCAN_WINDOW_S = 0.03


@dataclass(frozen=True, slots=True)
class StationContinuity:
    """One station's service record over the observation window."""

    station: int
    associated_time_s: float
    window_s: float
    handoffs: int
    longest_outage_s: float

    @property
    def continuity(self) -> float:
        """Fraction of the window spent associated (1.0 = never offline)."""
        if self.window_s <= 0:
            return 0.0
        return self.associated_time_s / self.window_s


@dataclass(frozen=True)
class HandoffReport:
    """Aggregate handoff / continuity statistics for one run."""

    stations: tuple[StationContinuity, ...]

    @property
    def total_handoffs(self) -> int:
        return sum(s.handoffs for s in self.stations)

    @property
    def mean_continuity(self) -> float:
        if not self.stations:
            return 1.0
        return sum(s.continuity for s in self.stations) / len(self.stations)

    @property
    def worst_continuity(self) -> float:
        return min((s.continuity for s in self.stations), default=1.0)

    @property
    def longest_outage_s(self) -> float:
        return max((s.longest_outage_s for s in self.stations), default=0.0)

    def format(self) -> str:
        return (
            f"handoffs={self.total_handoffs}, "
            f"mean continuity={self.mean_continuity:.1%}, "
            f"worst={self.worst_continuity:.1%}, "
            f"longest outage={self.longest_outage_s:.2f}s"
        )


def analyze_handoffs(
    log: AssociationLog,
    *,
    stations: Sequence[int],
    window_s: float,
    final_association: Mapping[int, int | None] | None = None,
) -> HandoffReport:
    """Build a :class:`HandoffReport` from an association log.

    ``stations`` are the node ids to analyze; every station is assumed
    unassociated at t=0. ``window_s`` is the observation horizon (log
    entries beyond it are ignored). ``final_association`` (station ->
    AP), when given, sanity-checks the log replay.
    """
    if window_s <= 0:
        raise ValueError("window must be positive")
    per_station: dict[int, list[tuple[float, int | None, int | None]]] = {
        s: [] for s in stations
    }
    for time, station, old, new in log:
        if time > window_s:
            continue
        if station in per_station:
            per_station[station].append((time, old, new))

    records = []
    for station in stations:
        events = sorted(per_station[station])
        associated = 0.0
        handoffs = 0
        longest_outage = 0.0
        current: int | None = None
        last_ap: int | None = None  # the AP most recently joined
        last_time = 0.0
        outage_start = 0.0
        for time, old, new in events:
            if current is not None:
                associated += time - last_time
            else:
                longest_outage = max(longest_outage, time - outage_start)
            if new is None:
                outage_start = time
            else:
                # A join at another AP than the last one is a handoff,
                # whether it follows directly (old -> new) or after a
                # break-before-make gap (old -> None, then None -> new).
                previous = old if old is not None else last_ap
                if previous is not None and previous != new:
                    handoffs += 1
                last_ap = new
            current = new
            last_time = time
        if current is not None:
            associated += window_s - last_time
        else:
            longest_outage = max(longest_outage, window_s - outage_start)
        if final_association is not None:
            expected = final_association.get(station)
            if expected is not None and current != expected:
                raise ValueError(
                    f"log replay for station {station} ends on AP {current}, "
                    f"but the final association says {expected}"
                )
        records.append(
            StationContinuity(
                station=station,
                associated_time_s=associated,
                window_s=window_s,
                handoffs=handoffs,
                longest_outage_s=longest_outage,
            )
        )
    return HandoffReport(stations=tuple(records))


def report_from_simulation(sim: "WlanSimulation") -> HandoffReport:
    """Convenience: analyze a finished :class:`WlanSimulation`."""
    return analyze_handoffs(
        sim.association_log,
        stations=[station.node_id for station in sim.stations],
        window_s=max(sim.sim.now, 1e-9),
        final_association={
            station.node_id: station.current_ap for station in sim.stations
        },
    )


# -- handover cost accounting -----------------------------------------------


class HandoverEvent(Protocol):
    """Structural shape of one handover (what the accounting consumes).

    :class:`repro.scenarios.motion.Handover` satisfies this; so does any
    object carrying the user and the old/new AP (``None`` = unassociated).
    """

    @property
    def user(self) -> int: ...

    @property
    def old_ap(self) -> int | None: ...

    @property
    def new_ap(self) -> int | None: ...


@dataclass(frozen=True)
class HandoffCostModel:
    """Airtime price of one handover: scan window + re-association.

    A break-before-make handover costs the station (and its stream) a
    scan window of deafness plus the management exchange with the new
    AP, sent at the basic rate. The exchange's airtime is Definition-1
    airtime of the management payload over its one-station "group", so
    it is computed through the load kernel's
    :func:`~repro.core.ledger.multicast_airtime` helper (RPL001), with
    the per-frame MAC overhead added on top.
    """

    name: str
    scan_window_s: float
    management_bytes: int = REASSOCIATION_BYTES
    basic_rate_mbps: float = 6.0
    mac: MacParameters = field(default=DOT11A_MAC)

    def __post_init__(self) -> None:
        if self.scan_window_s < 0:
            raise ValueError("scan window must be non-negative")
        if self.management_bytes <= 0:
            raise ValueError("management payload must be positive")
        if self.basic_rate_mbps <= 0:
            raise ValueError("basic rate must be positive")

    @classmethod
    def full_scan(cls) -> "HandoffCostModel":
        """The legacy active scan: dwell on every channel blind."""
        return cls(name="full-scan", scan_window_s=FULL_SCAN_WINDOW_S)

    @classmethod
    def syncscan(cls) -> "HandoffCostModel":
        """SyncScan-style beacon-synchronized scan (reduced cost)."""
        return cls(name="syncscan", scan_window_s=SYNCSCAN_WINDOW_S)

    @property
    def reassociation_airtime_s(self) -> float:
        """Airtime of the management exchange at the basic rate."""
        payload_mbit = self.management_bytes * 8.0 / 1e6
        transmit_s = multicast_airtime(
            payload_mbit, (self.basic_rate_mbps,)
        )
        n_frames = frames_for(self.management_bytes, self.mac)
        return transmit_s + n_frames * self.mac.per_frame_overhead_s

    @property
    def cost_per_handoff_s(self) -> float:
        """Total dead air one handover charges the station."""
        return self.scan_window_s + self.reassociation_airtime_s


@dataclass(frozen=True)
class HandoffAccounting:
    """Aggregate cost of a handover stream under one cost model.

    ``n_handoffs`` counts AP-to-AP re-associations, ``n_associations``
    coverage (re-)entries (``old_ap is None``) and ``n_drops`` coverage
    losses. Every transition that *ends associated* pays the full scan +
    re-association price (a re-entry scans too); drops cost no airtime.
    """

    cost_model: HandoffCostModel
    n_handoffs: int
    n_associations: int
    n_drops: int
    cost_s: float
    per_user: Mapping[int, int]

    @property
    def n_charged(self) -> int:
        """Transitions that paid the handover price."""
        return self.n_handoffs + self.n_associations


def account_handovers(
    events: Iterable[HandoverEvent],
    *,
    cost_model: HandoffCostModel,
) -> HandoffAccounting:
    """Price a stream of handover events and bump the obs counters.

    Emits ``net.handoffs`` (number of charged transitions) and
    ``net.handoff_cost_s`` (their total airtime) through the
    instrumentation facade — no-ops unless an obs backend is installed.
    """
    n_handoffs = 0
    n_associations = 0
    n_drops = 0
    per_user: dict[int, int] = {}
    for event in events:
        if event.new_ap is None:
            if event.old_ap is not None:
                n_drops += 1
            continue
        if event.old_ap is None:
            n_associations += 1
        else:
            n_handoffs += 1
        per_user[event.user] = per_user.get(event.user, 0) + 1
    n_charged = n_handoffs + n_associations
    cost_s = math.fsum(
        cost_model.cost_per_handoff_s for _ in range(n_charged)
    )
    if instrument.enabled():
        instrument.incr("net.handoffs", n_charged)
        instrument.incr("net.handoff_cost_s", cost_s)
    return HandoffAccounting(
        cost_model=cost_model,
        n_handoffs=n_handoffs,
        n_associations=n_associations,
        n_drops=n_drops,
        cost_s=cost_s,
        per_user=per_user,
    )
