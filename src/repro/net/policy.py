"""Local association decisions from *reported* neighbor information.

In the message-passing simulator a station knows only what its
neighboring APs told it (LoadReports) plus its own link measurements.
:func:`decide_local` turns that into the view of
:func:`repro.core.distributed.choose` — the loads it heard, its join
options priced by :func:`load_if_joined`, and its current AP's load
without it — and feeds it into core's rule, the one that
:func:`repro.core.distributed.decide` applies to the ledger. Given truthful
reports the two decide alike, an invariant the tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.distributed import EPSILON, JoinOption, Policy, choose
from repro.core.ledger import multicast_airtime
from repro.net.messages import SessionInfo


@dataclass(frozen=True)
class NeighborInfo:
    """What a station knows about one neighboring AP after a query cycle."""

    ap_id: int
    link_rate_mbps: float
    load: float
    sessions: Mapping[int, SessionInfo] = field(default_factory=dict)
    budget: float = math.inf
    load_without_me: float | None = None


def load_if_joined(
    info: NeighborInfo, session: int, stream_rate_mbps: float
) -> float:
    """The AP's load if this station joined it for ``session``."""
    existing = info.sessions.get(session)
    members = [existing.tx_rate_mbps] if existing else []
    old = multicast_airtime(stream_rate_mbps, members) if members else 0.0
    new = multicast_airtime(
        stream_rate_mbps, [*members, info.link_rate_mbps]
    )
    return info.load - old + new


def decide_local(
    policy: Policy,
    session: int,
    stream_rate_mbps: float,
    neighbors: list[NeighborInfo],
    current_ap: int | None,
    *,
    enforce_budgets: bool | None = None,
) -> int | None:
    """The AP that core's rule picks from these reports; ``None`` when
    the station decides as unassociated and no AP is joinable.

    A station whose current AP did not report decides as unassociated;
    with no reports at all it keeps ``current_ap``.
    """
    if enforce_budgets is None:
        enforce_budgets = policy == "mnu"
    if not neighbors:
        return current_ap
    current: int | None = None
    leaving: tuple[int, float] | None = None
    options: list[JoinOption] = []
    for slot, info in enumerate(neighbors):
        if info.ap_id == current_ap:
            current = current_ap
            left = info.load_without_me
            leaving = (slot, info.load if left is None else left)
            continue
        load = load_if_joined(info, session, stream_rate_mbps)
        if enforce_budgets and load > info.budget + EPSILON:
            continue
        options.append((info.ap_id, slot, load, info.link_rate_mbps))
    loads = [info.load for info in neighbors]
    return choose(policy, loads, options, current, leaving)
