"""Tests for handoff / service-continuity analysis and cost accounting."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import pytest

from repro.core import instrument
from repro.net.handoff import (
    FULL_SCAN_WINDOW_S,
    SYNCSCAN_WINDOW_S,
    HandoffCostModel,
    HandoffReport,
    StationContinuity,
    account_handovers,
    analyze_handoffs,
    report_from_simulation,
)
from repro.net.mac import DOT11A_MAC, frames_for
from repro.net.wlan import WlanConfig, WlanSimulation
from repro.radio.geometry import Area
from repro.scenarios.generator import generate


class TestAnalyzeHandoffs:
    def test_single_association_full_tail(self):
        log = [(2.0, 10, None, 0)]
        report = analyze_handoffs(log, stations=[10], window_s=10.0)
        (s,) = report.stations
        assert s.associated_time_s == pytest.approx(8.0)
        assert s.continuity == pytest.approx(0.8)
        assert s.handoffs == 0
        assert s.longest_outage_s == pytest.approx(2.0)

    def test_handoff_counted(self):
        log = [(1.0, 10, None, 0), (5.0, 10, 0, 1)]
        report = analyze_handoffs(log, stations=[10], window_s=10.0)
        (s,) = report.stations
        assert s.handoffs == 1
        assert s.continuity == pytest.approx(0.9)

    def test_break_before_make_gap(self):
        log = [
            (1.0, 10, None, 0),
            (4.0, 10, 0, None),
            (6.0, 10, None, 1),
        ]
        report = analyze_handoffs(log, stations=[10], window_s=10.0)
        (s,) = report.stations
        assert s.associated_time_s == pytest.approx(3.0 + 4.0)
        assert s.longest_outage_s == pytest.approx(2.0)

    def test_reassociation_elsewhere_after_a_gap_is_a_handoff(self):
        log = [
            (1.0, 10, None, 0),
            (4.0, 10, 0, None),
            (6.0, 10, None, 1),  # 0 -> 1 across the gap: a handoff
            (7.0, 10, 1, None),
            (8.0, 10, None, 1),  # back on the same AP: not a handoff
        ]
        report = analyze_handoffs(log, stations=[10], window_s=10.0)
        assert report.total_handoffs == 1

    def test_never_associated(self):
        report = analyze_handoffs([], stations=[10], window_s=5.0)
        (s,) = report.stations
        assert s.continuity == 0.0
        assert s.longest_outage_s == pytest.approx(5.0)

    def test_events_beyond_window_ignored(self):
        log = [(1.0, 10, None, 0), (50.0, 10, 0, 1)]
        report = analyze_handoffs(log, stations=[10], window_s=10.0)
        assert report.total_handoffs == 0

    def test_final_association_checked(self):
        log = [(1.0, 10, None, 0)]
        with pytest.raises(ValueError):
            analyze_handoffs(
                log,
                stations=[10],
                window_s=5.0,
                final_association={10: 3},
            )

    def test_window_validated(self):
        with pytest.raises(ValueError):
            analyze_handoffs([], stations=[], window_s=0)


class TestReportAggregates:
    def make(self, continuities):
        stations = tuple(
            StationContinuity(
                station=i,
                associated_time_s=c * 10,
                window_s=10,
                handoffs=i,
                longest_outage_s=(1 - c) * 10,
            )
            for i, c in enumerate(continuities)
        )
        return HandoffReport(stations=stations)

    def test_aggregates(self):
        report = self.make([1.0, 0.5])
        assert report.mean_continuity == pytest.approx(0.75)
        assert report.worst_continuity == pytest.approx(0.5)
        assert report.total_handoffs == 1
        assert report.longest_outage_s == pytest.approx(5.0)

    def test_empty(self):
        report = HandoffReport(stations=())
        assert report.mean_continuity == 1.0
        assert report.worst_continuity == 1.0

    def test_format(self):
        assert "continuity" in self.make([1.0]).format()


@dataclass
class _Transition:
    """Minimal object satisfying the HandoverEvent protocol."""

    user: int
    old_ap: int | None
    new_ap: int | None


class TestHandoffCostModel:
    def test_syncscan_is_cheaper_than_full_scan(self):
        full = HandoffCostModel.full_scan()
        sync = HandoffCostModel.syncscan()
        assert sync.cost_per_handoff_s < full.cost_per_handoff_s
        # Only the scan window differs; the management exchange is shared.
        assert (
            float(sync.reassociation_airtime_s).hex()
            == float(full.reassociation_airtime_s).hex()
        )
        delta = full.cost_per_handoff_s - sync.cost_per_handoff_s
        assert delta == pytest.approx(FULL_SCAN_WINDOW_S - SYNCSCAN_WINDOW_S)

    def test_reassociation_airtime_decomposition(self):
        model = HandoffCostModel(
            name="unit", scan_window_s=0.0, management_bytes=372
        )
        expected = (372 * 8.0 / 1e6) / 6.0 + (
            frames_for(372, DOT11A_MAC) * DOT11A_MAC.per_frame_overhead_s
        )
        assert float(model.reassociation_airtime_s).hex() == (
            float(expected).hex()
        )
        assert float(model.cost_per_handoff_s).hex() == (
            float(expected).hex()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            HandoffCostModel(name="bad", scan_window_s=-0.1)
        with pytest.raises(ValueError):
            HandoffCostModel(name="bad", scan_window_s=0.1, management_bytes=0)
        with pytest.raises(ValueError):
            HandoffCostModel(
                name="bad", scan_window_s=0.1, basic_rate_mbps=0.0
            )


class _RecordingBackend:
    """Instrument backend capturing incr() calls for assertion."""

    def __init__(self):
        self.counters: dict[str, float] = {}

    def metrics_enabled(self) -> bool:
        return True

    def incr(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def gauge(self, name: str, value: float) -> None:
        pass

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


class TestAccountHandovers:
    EVENTS = [
        _Transition(user=0, old_ap=1, new_ap=2),  # handoff
        _Transition(user=0, old_ap=2, new_ap=None),  # drop
        _Transition(user=0, old_ap=None, new_ap=1),  # re-association
        _Transition(user=1, old_ap=0, new_ap=3),  # handoff
        _Transition(user=2, old_ap=None, new_ap=None),  # no-op
    ]

    def test_counts_split_by_transition_kind(self):
        accounting = account_handovers(
            self.EVENTS, cost_model=HandoffCostModel.syncscan()
        )
        assert accounting.n_handoffs == 2
        assert accounting.n_associations == 1
        assert accounting.n_drops == 1
        assert accounting.n_charged == 3
        assert accounting.per_user == {0: 2, 1: 1}

    def test_cost_is_charged_per_priced_transition(self):
        model = HandoffCostModel.full_scan()
        accounting = account_handovers(self.EVENTS, cost_model=model)
        assert accounting.cost_s == pytest.approx(
            3 * model.cost_per_handoff_s
        )

    def test_drops_cost_nothing(self):
        accounting = account_handovers(
            [_Transition(user=0, old_ap=1, new_ap=None)],
            cost_model=HandoffCostModel.full_scan(),
        )
        assert accounting.n_charged == 0
        assert float(accounting.cost_s).hex() == float(0.0).hex()

    def test_counters_flow_through_instrument_facade(self):
        backend = _RecordingBackend()
        previous = instrument.install_backend(backend)
        try:
            accounting = account_handovers(
                self.EVENTS, cost_model=HandoffCostModel.syncscan()
            )
        finally:
            instrument.install_backend(previous)
        assert backend.counters["net.handoffs"] == 3
        assert backend.counters["net.handoff_cost_s"] == pytest.approx(
            accounting.cost_s
        )

    def test_no_counters_without_backend(self):
        previous = instrument.install_backend(None)
        try:
            accounting = account_handovers(
                self.EVENTS, cost_model=HandoffCostModel.syncscan()
            )
            assert accounting.n_charged == 3
        finally:
            instrument.install_backend(previous)


class TestFromSimulation:
    def test_protocol_run_has_high_continuity(self):
        scenario = generate(
            n_aps=8, n_users=16, n_sessions=3, seed=2, area=Area.square(500)
        )
        sim = WlanSimulation(
            scenario, WlanConfig(policy="mla", max_time_s=600.0)
        )
        result = sim.run()
        report = report_from_simulation(sim)
        assert len(report.stations) == 16
        # each station misses at most its pre-association ramp-up
        assert report.mean_continuity > 0.8
        assert report.total_handoffs == result.handoffs

    def test_ap_to_ap_moves_are_counted(self):
        scenario = generate(
            n_aps=8, n_users=16, n_sessions=3, seed=2, area=Area.square(500)
        )
        sim = WlanSimulation(
            scenario, WlanConfig(policy="mla", max_time_s=600.0)
        )
        result = sim.run()
        # Stations break before they make: a move shows in the log as
        # A -> None, then None -> B. Count the joins at a new AP.
        last_ap: dict[int, int] = {}
        moves = 0
        for _time, station, _old, new in sorted(
            sim.association_log, key=lambda entry: entry[0]
        ):
            if new is None:
                continue
            if last_ap.get(station, new) != new:
                moves += 1
            last_ap[station] = new
        assert moves > 0
        assert result.handoffs == moves
        assert report_from_simulation(sim).total_handoffs == moves