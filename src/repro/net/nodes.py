"""AP and station node implementations plus the wireless medium.

The node state machines implement the paper's distributed protocol:
stations periodically scan (probe), query neighboring APs for their current
multicast sessions and rates (LoadQuery/LoadReport), locally decide via
:mod:`repro.net.policy`, and re-associate when the decision changes. APs
perform admission control (budget enforcement, for MNU), answer queries and
transmit periodic multicast bursts whose airtime an
:class:`~repro.net.mac.AirtimeMeter` integrates.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.core.distributed import Policy
from repro.core.ledger import local_ap_load, multicast_airtime
from repro.core.problem import Session
from repro.net.events import Simulator
from repro.net.mac import IDEAL_MAC, AirtimeMeter, MacParameters, burst_airtime
from repro.net.messages import (
    BROADCAST,
    AssociationRequest,
    AssociationResponse,
    Beacon,
    Directive,
    Disassociation,
    Frame,
    LoadQuery,
    LoadReport,
    MulticastData,
    ProbeRequest,
    ProbeResponse,
    ScanReport,
    SessionInfo,
)
from repro.net.policy import NeighborInfo, decide_local
from repro.net.trace import Trace
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel

class Node:
    """Anything attached to the medium: an id, a position, a handler."""

    def __init__(self, node_id: int, position: Point) -> None:
        self.node_id = node_id
        self.position = position

    def handle(self, frame: Frame) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Medium:
    """The wireless channel: range-checked, delayed frame delivery."""

    def __init__(
        self,
        sim: Simulator,
        model: PropagationModel,
        *,
        delivery_delay_s: float = 1e-4,
        trace: Trace | None = None,
    ) -> None:
        if delivery_delay_s < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.model = model
        self.delivery_delay_s = delivery_delay_s
        self.trace = trace or Trace(enabled=False)
        self._nodes: dict[int, Node] = {}
        self.frames_sent = 0
        self.frames_delivered = 0

    def register(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node

    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    def link_rate(self, a: int, b: int) -> float | None:
        """Max PHY rate between two registered nodes (symmetric)."""
        return self.model.link_rate(
            self._nodes[a].position, self._nodes[b].position
        )

    def in_range(self, a: int, b: int) -> bool:
        return self.link_rate(a, b) is not None

    def send(self, frame: Frame) -> None:
        """Queue a frame for delivery (unicast or broadcast)."""
        self.frames_sent += 1
        self.trace.record(
            self.sim.now, type(frame).__name__, frame.src, f"-> {frame.dst}"
        )
        if frame.dst == BROADCAST:
            for node in self._nodes.values():
                if node.node_id != frame.src and self.in_range(
                    frame.src, node.node_id
                ):
                    self._deliver(node, frame)
        else:
            if frame.dst not in self._nodes:
                return
            if self.in_range(frame.src, frame.dst):
                self._deliver(self._nodes[frame.dst], frame)

    def _deliver(self, node: Node, frame: Frame) -> None:
        self.frames_delivered += 1
        self.sim.schedule(self.delivery_delay_s, node.handle, frame)


class AccessPoint(Node):
    """An AP: membership, admission control, load reports, multicast bursts."""

    def __init__(
        self,
        node_id: int,
        position: Point,
        medium: Medium,
        sessions: Sequence[Session],
        *,
        budget: float = math.inf,
        enforce_budget: bool = False,
        service_period_s: float | None = 1.0,
        mac: MacParameters = IDEAL_MAC,
        meter: AirtimeMeter | None = None,
        beacon_interval_s: float | None = None,
    ) -> None:
        super().__init__(node_id, position)
        self.medium = medium
        self.sessions = tuple(sessions)
        self.budget = budget
        self.enforce_budget = enforce_budget
        self.service_period_s = service_period_s
        self.mac = mac
        self.meter = meter
        # members[session] = {station_id: link_rate}
        self.members: dict[int, dict[int, float]] = {}
        self.rejections = 0
        self.is_down = False
        #: Wired-side hook: a centralized controller, when present,
        #: receives every ScanReport this AP hears (backhaul is free).
        self.on_scan_report: Callable[[int, ScanReport], None] | None = None
        medium.register(self)
        if beacon_interval_s is not None:
            medium.sim.schedule(beacon_interval_s, self._beacon, beacon_interval_s)
        # ``service_period_s=None`` disables the periodic multicast service
        # loop (useful for protocol-only tests).
        if service_period_s is not None:
            medium.sim.schedule(service_period_s, self._serve_multicast)

    # -- load arithmetic -----------------------------------------------------

    def tx_rate(self, session: int) -> float | None:
        members = self.members.get(session)
        if not members:
            return None
        return min(members.values())

    def load(self, *, without: int | None = None) -> float:
        """Current multicast load (optionally as if ``without`` had left).

        Definition 1 over the AP's local group view, delegated to the
        core load kernel (:func:`repro.core.ledger.local_ap_load`) so the
        protocol simulation and the ledger round identically.
        """
        groups = []
        for session, members in self.members.items():
            rates = [
                rate for sid, rate in members.items() if sid != without
            ]
            if rates:
                groups.append((self.sessions[session].rate_mbps, rates))
        return local_ap_load(groups)

    def _load_if_joined(self, session: int, link_rate: float) -> float:
        members = self.members.get(session, {})
        stream = self.sessions[session].rate_mbps
        old = multicast_airtime(stream, members.values()) if members else 0.0
        new = multicast_airtime(stream, [*members.values(), link_rate])
        return self.load() - old + new

    # -- frame handling --------------------------------------------------------

    def fail(self) -> None:
        """Take the AP down: drop all frames, forget members, stop serving.

        Stations discover the outage on their next scan (no probe
        response) and re-associate elsewhere.
        """
        self.is_down = True
        self.members.clear()

    def recover(self) -> None:
        """Bring the AP back up (empty, until stations re-associate)."""
        self.is_down = False

    def handle(self, frame: Frame) -> None:
        if self.is_down:
            return
        if isinstance(frame, ProbeRequest):
            self.medium.send(
                ProbeResponse(src=self.node_id, dst=frame.src, ap_id=self.node_id)
            )
        elif isinstance(frame, LoadQuery):
            self._answer_query(frame.src)
        elif isinstance(frame, AssociationRequest):
            self._admit(frame)
        elif isinstance(frame, Disassociation):
            self._remove(frame.src, frame.session)
        elif isinstance(frame, ScanReport):
            if self.on_scan_report is not None:
                self.on_scan_report(self.node_id, frame)

    def send_directive(self, station: int, target_ap: int) -> None:
        """Relay a controller directive to a station over the air."""
        self.medium.send(
            Directive(src=self.node_id, dst=station, target_ap=target_ap)
        )

    def _answer_query(self, station: int) -> None:
        infos = {
            session: SessionInfo(
                session=session,
                tx_rate_mbps=self.tx_rate(session) or 0.0,
                n_members=len(members),
            )
            for session, members in self.members.items()
            if members
        }
        associated_here = any(
            station in members for members in self.members.values()
        )
        self.medium.send(
            LoadReport(
                src=self.node_id,
                dst=station,
                load=self.load(),
                sessions=infos,
                load_without_querier=(
                    self.load(without=station) if associated_here else None
                ),
            )
        )

    def _admit(self, request: AssociationRequest) -> None:
        link = self.medium.link_rate(self.node_id, request.src)
        if link is None:
            return  # the response could not reach the station anyway
        if self.enforce_budget:
            prospective = self._load_if_joined(request.session, link)
            if prospective > self.budget + 1e-12:
                self.rejections += 1
                self.medium.send(
                    AssociationResponse(
                        src=self.node_id,
                        dst=request.src,
                        accepted=False,
                        reason="budget",
                    )
                )
                return
        self.members.setdefault(request.session, {})[request.src] = link
        self.medium.send(
            AssociationResponse(src=self.node_id, dst=request.src, accepted=True)
        )

    def _remove(self, station: int, session: int) -> None:
        members = self.members.get(session)
        if members and station in members:
            del members[station]
            if not members:
                del self.members[session]

    # -- periodic behaviour -----------------------------------------------------

    def _beacon(self, interval: float) -> None:
        self.medium.send(
            Beacon(src=self.node_id, dst=BROADCAST, ap_id=self.node_id)
        )
        self.medium.sim.schedule(interval, self._beacon, interval)

    def _serve_multicast(self) -> None:
        assert self.service_period_s is not None
        if self.is_down:
            self.medium.sim.schedule(self.service_period_s, self._serve_multicast)
            return
        for session, members in list(self.members.items()):
            if not members:
                continue
            rate = min(members.values())
            airtime = burst_airtime(
                self.sessions[session].rate_mbps,
                rate,
                self.service_period_s,
                self.mac,
            )
            if self.meter is not None:
                self.meter.add(self.node_id, airtime, self.medium.sim.now)
            for station in members:
                self.medium.send(
                    MulticastData(
                        src=self.node_id,
                        dst=station,
                        session=session,
                        tx_rate_mbps=rate,
                        airtime_s=airtime,
                    )
                )
        self.medium.sim.schedule(self.service_period_s, self._serve_multicast)


class UserStation(Node):
    """A station running the distributed association policy."""

    def __init__(
        self,
        node_id: int,
        position: Point,
        medium: Medium,
        session: int,
        stream_rate_mbps: float,
        policy: Policy,
        *,
        budget_hint: float = math.inf,
        decision_period_s: float = 10.0,
        scan_window_s: float = 0.05,
        query_window_s: float = 0.05,
        start_offset_s: float = 0.0,
        enforce_budgets: bool | None = None,
        managed: bool = False,
        on_association_change: Callable[[int, int | None, int | None, float], None]
        | None = None,
    ) -> None:
        super().__init__(node_id, position)
        self.medium = medium
        self.session = session
        self.stream_rate_mbps = stream_rate_mbps
        self.policy = policy
        self.budget_hint = budget_hint
        self.decision_period_s = decision_period_s
        self.scan_window_s = scan_window_s
        self.query_window_s = query_window_s
        self.enforce_budgets = enforce_budgets
        #: Managed stations don't decide locally: they report their scans
        #: toward the controller and obey Directives (centralized control).
        self.managed = managed
        self.on_association_change = on_association_change

        self.current_ap: int | None = None
        #: Re-associations at an AP other than the last one joined; the
        #: break-before-make gap between them does not hide the move.
        self.handoffs = 0
        self._last_ap: int | None = None
        self.bytes_received = 0.0
        self.bursts_received = 0
        self._heard_aps: dict[int, float] = {}
        self._reports: dict[int, LoadReport] = {}
        self._pending_target: int | None = None

        medium.register(self)
        medium.sim.schedule(start_offset_s, self._start_cycle)

    # -- frame handling -----------------------------------------------------

    def handle(self, frame: Frame) -> None:
        if isinstance(frame, ProbeResponse):
            rate = self.medium.link_rate(self.node_id, frame.ap_id)
            if rate is not None:
                self._heard_aps[frame.ap_id] = rate
        elif isinstance(frame, LoadReport):
            self._reports[frame.src] = frame
        elif isinstance(frame, AssociationResponse):
            self._on_association_response(frame)
        elif isinstance(frame, Directive):
            self._obey_directive(frame.target_ap)
        elif isinstance(frame, MulticastData):
            if frame.session == self.session and frame.src == self.current_ap:
                self.bursts_received += 1
                # Payload carried by the burst: airtime x PHY rate (the MAC
                # overhead share is negligible and ignored here).
                self.bytes_received += (
                    frame.airtime_s * frame.tx_rate_mbps * 1e6 / 8.0
                )

    # -- decision cycle --------------------------------------------------------

    def _start_cycle(self) -> None:
        self._heard_aps.clear()
        self._reports.clear()
        self.medium.send(ProbeRequest(src=self.node_id, dst=BROADCAST))
        self.medium.sim.schedule(self.scan_window_s, self._after_scan)

    def _after_scan(self) -> None:
        if self.current_ap is not None and self.current_ap not in self._heard_aps:
            # The AP we believe we're on no longer answers probes: it died
            # or we moved out of range. Drop the stale association.
            self._set_association(None)
        if not self._heard_aps:
            self._finish_cycle()
            return
        if self.managed:
            # Centralized control: report the scan toward the controller
            # (via the current AP, else the strongest heard one) and wait
            # for a Directive instead of deciding locally.
            relay = (
                self.current_ap
                if self.current_ap is not None
                else max(self._heard_aps, key=self._heard_aps.get)
            )
            self.medium.send(
                ScanReport(
                    src=self.node_id,
                    dst=relay,
                    session=self.session,
                    measurements=dict(self._heard_aps),
                )
            )
            self._finish_cycle()
            return
        for ap_id in self._heard_aps:
            self.medium.send(LoadQuery(src=self.node_id, dst=ap_id))
        self.medium.sim.schedule(self.query_window_s, self._after_query)

    def _obey_directive(self, target: int) -> None:
        if target == self.current_ap:
            return
        self._pending_target = target
        if self.current_ap is not None:
            self.medium.send(
                Disassociation(
                    src=self.node_id, dst=self.current_ap, session=self.session
                )
            )
            self._set_association(None)
        self.medium.send(
            AssociationRequest(
                src=self.node_id, dst=target, session=self.session
            )
        )

    def _after_query(self) -> None:
        neighbors = []
        for ap_id, link_rate in self._heard_aps.items():
            report = self._reports.get(ap_id)
            if report is None:
                continue
            neighbors.append(
                NeighborInfo(
                    ap_id=ap_id,
                    link_rate_mbps=link_rate,
                    load=report.load,
                    sessions=report.sessions,
                    budget=self.budget_hint,
                    load_without_me=report.load_without_querier,
                )
            )
        current = self.current_ap if self.current_ap in self._heard_aps else None
        target = decide_local(
            self.policy,
            self.session,
            self.stream_rate_mbps,
            neighbors,
            current,
            enforce_budgets=self.enforce_budgets,
        )
        if target != self.current_ap and target is not None:
            self._pending_target = target
            if self.current_ap is not None:
                self.medium.send(
                    Disassociation(
                        src=self.node_id,
                        dst=self.current_ap,
                        session=self.session,
                    )
                )
                self._set_association(None)
            self.medium.send(
                AssociationRequest(
                    src=self.node_id, dst=target, session=self.session
                )
            )
        self._finish_cycle()

    def _on_association_response(self, frame: AssociationResponse) -> None:
        if frame.src != self._pending_target:
            return
        self._pending_target = None
        if frame.accepted:
            self._set_association(frame.src)

    def _set_association(self, new_ap: int | None) -> None:
        old = self.current_ap
        if old == new_ap:
            return
        self.current_ap = new_ap
        if new_ap is not None:
            if self._last_ap is not None and self._last_ap != new_ap:
                self.handoffs += 1
            self._last_ap = new_ap
        if self.on_association_change is not None:
            self.on_association_change(
                self.node_id, old, new_ap, self.medium.sim.now
            )

    def _finish_cycle(self) -> None:
        self.medium.sim.schedule(self.decision_period_s, self._start_cycle)
