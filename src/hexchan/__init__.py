"""Channel allocation for hexagonal-cell wireless sensor networks.

Statically assigns control channels and statically or dynamically assigns
data channels by coloring interference graphs derived from frequency-reuse
distances on a hexagonal lattice, then evaluates the time-slot latency of
single-channel vs. static vs. dynamic multi-channel operation.
"""

from .coloring import (
    Coloring,
    chromatic_coloring,
    control_coloring,
    data_graph_coloring,
    pattern_coloring,
)
from .dynamic_alloc import (
    AllocationMatrix,
    CycleStructure,
    SuperframeConfig,
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
from .interference import interference_rows
from .lattice import (
    CONTROL_REUSE_METRIC,
    DATA_REUSE_METRIC,
    CellIndex,
    Lattice,
    build_lattice,
    center_of,
    lattice_from_cells,
    lattice_metric,
)
from .spectrum import (
    ChannelPlan,
    LogicalChannel,
    RegulatoryDomain,
    channel_plan,
    default_domain,
    partition_channels,
)
from .static_alloc import StaticAllocation, allocate_static

__version__ = "0.1.0"

__all__ = [
    "AllocationMatrix",
    "CellIndex",
    "ChannelPlan",
    "Coloring",
    "CONTROL_REUSE_METRIC",
    "CycleStructure",
    "DATA_REUSE_METRIC",
    "Lattice",
    "LogicalChannel",
    "RegulatoryDomain",
    "RequestScenario",
    "SchemeReport",
    "StaticAllocation",
    "SuperframeConfig",
    "allocate_dynamic",
    "allocate_static",
    "build_lattice",
    "center_of",
    "channel_plan",
    "chromatic_coloring",
    "compare_schemes",
    "control_coloring",
    "cycle_structure",
    "data_graph_coloring",
    "default_domain",
    "delay_decrease_percent",
    "interference_rows",
    "lattice_from_cells",
    "lattice_metric",
    "makespan",
    "partition_channels",
    "pattern_coloring",
]
