"""Channel allocation for hexagonal-cell wireless sensor networks.

Statically assigns control channels and statically or dynamically assigns
data channels by coloring interference graphs derived from frequency-reuse
distances on a hexagonal lattice, then evaluates the time-slot latency of
single-channel vs. static vs. dynamic multi-channel operation.
"""

from .coloring import (
    Coloring,
    brute_force_chromatic,
    chromatic_coloring,
    clique_lower_bound,
    data_graph_coloring,
    pattern_coloring,
    verify_coloring,
)
from .dynamic_alloc import (
    AllocationMatrix,
    CycleStructure,
    SuperframeConfig,
    activity_matrix,
    allocate_dynamic,
    cycle_structure,
)
from .evaluate import (
    RequestScenario,
    SchemeReport,
    compare_schemes,
    delay_decrease_percent,
    makespan,
)
from .interference import InterferenceGraph, build_interference_graph
from .lattice import (
    CONTROL_REUSE_METRIC,
    DATA_REUSE_METRIC,
    CellIndex,
    Lattice,
    NeighborhoodPartition,
    build_lattice,
    center_of,
    distance,
    lattice_from_cells,
    lattice_metric,
    neighborhood_sets,
    twelve_cell_lattice,
)
from .spectrum import (
    ChannelPlan,
    LogicalChannel,
    RegulatoryDomain,
    channel_plan,
    default_domain,
    partition_channels,
)
from .static_alloc import StaticAllocation, allocate_static, allocate_static_data

__version__ = "0.1.0"

__all__ = [
    "AllocationMatrix",
    "CellIndex",
    "ChannelPlan",
    "Coloring",
    "CONTROL_REUSE_METRIC",
    "CycleStructure",
    "DATA_REUSE_METRIC",
    "InterferenceGraph",
    "Lattice",
    "LogicalChannel",
    "NeighborhoodPartition",
    "RegulatoryDomain",
    "RequestScenario",
    "SchemeReport",
    "StaticAllocation",
    "SuperframeConfig",
    "activity_matrix",
    "allocate_dynamic",
    "allocate_static",
    "allocate_static_data",
    "brute_force_chromatic",
    "build_interference_graph",
    "build_lattice",
    "center_of",
    "channel_plan",
    "chromatic_coloring",
    "clique_lower_bound",
    "compare_schemes",
    "cycle_structure",
    "data_graph_coloring",
    "default_domain",
    "delay_decrease_percent",
    "distance",
    "lattice_from_cells",
    "lattice_metric",
    "makespan",
    "neighborhood_sets",
    "partition_channels",
    "pattern_coloring",
    "twelve_cell_lattice",
    "verify_coloring",
]
