"""Radio/PHY substrate: geometry, rate ladders, propagation, interference."""

from repro.radio.geometry import (
    Area,
    NeighborIndex,
    Point,
    bounding_area,
    iter_grid_positions,
)
from repro.radio.interference import (
    InterferenceMap,
    assign_channels,
    build_conflict_graph,
)
from repro.radio.propagation import (
    LogDistancePropagation,
    PropagationModel,
    ThresholdPropagation,
)
from repro.radio.rates import (
    PAPER_TABLE_1,
    RateStep,
    RateTable,
    dot11a_table,
    dot11b_table,
    dot11g_table,
)
from repro.radio.signal import Measurement, scan, strongest_ap

__all__ = [
    "Area",
    "InterferenceMap",
    "LogDistancePropagation",
    "Measurement",
    "NeighborIndex",
    "PAPER_TABLE_1",
    "Point",
    "PropagationModel",
    "RateStep",
    "RateTable",
    "ThresholdPropagation",
    "assign_channels",
    "bounding_area",
    "build_conflict_graph",
    "dot11a_table",
    "dot11b_table",
    "dot11g_table",
    "iter_grid_positions",
    "scan",
    "strongest_ap",
]
