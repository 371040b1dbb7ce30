"""Event model unit tests: wire parsing, validation, coalescing."""

from __future__ import annotations

import pytest

from repro.service.events import (
    Event,
    EventError,
    coalesce,
    parse_event,
    parse_events,
)


class TestParsing:
    def test_parse_each_kind(self):
        assert parse_event({"kind": "join", "user": 3}) == Event("join", user=3)
        assert parse_event({"kind": "leave", "user": 0}) == Event(
            "leave", user=0
        )
        assert parse_event(
            {"kind": "move", "user": 2, "session": 1}
        ) == Event("move", user=2, session=1)
        assert parse_event(
            {"kind": "rate-change", "session": 0, "rate_mbps": 2}
        ) == Event("rate-change", session=0, rate_mbps=2.0)
        assert parse_event(
            {"kind": "set-policy", "session": 1, "policy": "dms"}
        ) == Event("set-policy", session=1, policy="dms")

    def test_parse_list_and_single(self):
        single = parse_events({"kind": "join", "user": 1})
        assert len(single) == 1
        batch = parse_events(
            [{"kind": "join", "user": 1}, {"kind": "leave", "user": 2}]
        )
        assert [e.kind for e in batch] == ["join", "leave"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "teleport", "user": 1},
            {"kind": "join", "user": "three"},
            {"kind": "join", "user": True},
            {"kind": "join", "user": 1, "extra": 1},
            {"kind": "rate-change", "session": 0, "rate_mbps": "fast"},
            {"kind": "set-policy", "session": 0, "policy": 7},
            "join",
            42,
            {"kind": "rate-change", "session": 0, "rate_mbps": True},
            {"kind": "rate-change", "session": 0, "rate_mbps": 10**400},
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(EventError):
            parse_events(payload)

    def test_wire_roundtrip(self):
        events = [
            Event("join", user=1),
            Event("move", user=2, session=1),
            Event("rate-change", session=0, rate_mbps=1.5),
            Event("set-policy", session=1, policy="hybrid"),
        ]
        assert [parse_event(e.to_wire()) for e in events] == events


class TestValidation:
    def test_in_range_events_pass(self):
        Event("join", user=0).validate(4, 2)
        Event("move", user=3, session=1).validate(4, 2)
        Event("rate-change", session=1, rate_mbps=0.5).validate(4, 2)
        Event("set-policy", session=0, policy="dms").validate(4, 2)

    @pytest.mark.parametrize(
        "event",
        [
            Event("join"),
            Event("join", user=4),
            Event("join", user=-1),
            Event("move", user=0),
            Event("move", user=0, session=2),
            Event("rate-change", session=0),
            Event("rate-change", session=0, rate_mbps=0.0),
            Event("rate-change", session=0, rate_mbps=-1.0),
            Event("rate-change", session=0, rate_mbps=float("inf")),
            Event("rate-change", session=2, rate_mbps=1.0),
            Event("set-policy", session=0),
            Event("set-policy", session=2, policy="dms"),
            Event("set-policy", session=0, policy="unicast"),
        ],
    )
    def test_out_of_range_events_rejected(self, event):
        with pytest.raises(EventError):
            event.validate(4, 2)


class TestCoalescing:
    def test_join_then_leave_collapses(self):
        plan = coalesce([Event("join", user=3), Event("leave", user=3)])
        assert plan.membership == {3: False}
        assert plan.n_events == 2
        assert plan.n_coalesced == 1

    def test_last_move_wins(self):
        plan = coalesce(
            [
                Event("move", user=1, session=0),
                Event("move", user=1, session=2),
                Event("move", user=1, session=1),
            ]
        )
        assert plan.moves == {1: 1}
        assert plan.n_coalesced == 2

    def test_last_rate_wins_per_session(self):
        plan = coalesce(
            [
                Event("rate-change", session=0, rate_mbps=2.0),
                Event("rate-change", session=1, rate_mbps=0.5),
                Event("rate-change", session=0, rate_mbps=1.0),
            ]
        )
        assert plan.rates == {0: 1.0, 1: 0.5}
        assert plan.n_coalesced == 1

    def test_kind_groups_coalesce_independently(self):
        # A move does not supersede a membership event on the same user.
        plan = coalesce(
            [Event("join", user=1), Event("move", user=1, session=0)]
        )
        assert plan.membership == {1: True}
        assert plan.moves == {1: 0}
        assert plan.n_coalesced == 0

    def test_last_policy_wins_per_session(self):
        plan = coalesce(
            [
                Event("set-policy", session=0, policy="dms"),
                Event("set-policy", session=1, policy="hybrid"),
                Event("set-policy", session=0, policy="legacy"),
            ]
        )
        assert plan.policies == {0: "legacy", 1: "hybrid"}
        assert plan.n_coalesced == 1

    def test_empty_plan(self):
        plan = coalesce([])
        assert plan.empty
        assert plan.n_events == 0 and plan.n_coalesced == 0
