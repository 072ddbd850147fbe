"""Static channel assignment: one control channel per cell, and the baseline
per-cell data-channel groups shared uniformly across the network.

Control assignments color the metric-16 interference graph (at most 4
colors on any lattice); data groups color the metric-12 graph (at most 3)
and split the data set into equal groups of k_static = |data| // colors,
one group per color class.  Leftover channels stay unassigned rather than
being spread unevenly, and are reported explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import (
    CONTROL,
    DEFAULT_VERTEX_CAP,
    Coloring,
    chromatic_coloring,
    data_graph_coloring,
    pattern_coloring,
)
from .errors import InsufficientSpectrumError
from .interference import build_interference_graph
from .lattice import CONTROL_REUSE_METRIC, DATA_REUSE_METRIC, CellIndex, Lattice
from .spectrum import ChannelPlan, LogicalChannel, partition_channels


@dataclass(frozen=True)
class StaticAllocation:
    """Full static assignment plus the summary numbers reports need.

    ``control`` is None when the allocation was built tolerantly and the
    plan's control set is smaller than the control chromatic number (some
    regulatory tables leave only 2 control channels, fewer than the 4 a
    dense network needs).
    """

    control: dict[CellIndex, LogicalChannel] | None
    data_groups: dict[CellIndex, tuple[LogicalChannel, ...]]
    k_static: int
    chi_control: int
    chi_data: int
    unassigned: tuple[LogicalChannel, ...]


def color_control_graph(lattice: Lattice) -> Coloring:
    """Color the lattice's metric-16 graph: exact up to the solver's vertex
    cap, the closed-form control pattern above it."""
    if len(lattice) <= DEFAULT_VERTEX_CAP:
        return chromatic_coloring(build_interference_graph(lattice, None, CONTROL_REUSE_METRIC))
    return pattern_coloring(lattice, CONTROL)


def color_data_graph(lattice: Lattice) -> Coloring:
    """Minimum coloring of the lattice's metric-12 graph, at any size."""
    return data_graph_coloring(build_interference_graph(lattice, None, DATA_REUSE_METRIC))


def _control_channels(coloring: Coloring, plan: ChannelPlan) -> dict[CellIndex, LogicalChannel]:
    channels = plan.ordered_control()
    if coloring.num_colors > len(channels):
        raise InsufficientSpectrumError(
            f"need {coloring.num_colors} control channels, plan has {len(channels)}"
        )
    return {cell: channels[color] for cell, color in coloring.assignment.items()}


def _data_groups(coloring: Coloring, plan: ChannelPlan) -> tuple[dict[CellIndex, tuple[LogicalChannel, ...]], int]:
    ordered = plan.ordered_data()
    chi = coloring.num_colors
    if chi == 0:
        return {}, 0
    k_static = len(ordered) // chi
    if k_static == 0:
        raise InsufficientSpectrumError(f"need at least {chi} data channels, plan has {len(ordered)}")
    groups, _ = partition_channels(ordered, chi, k_static)
    return {cell: groups[color] for cell, color in coloring.assignment.items()}, k_static


def allocate_control(lattice: Lattice, plan: ChannelPlan) -> dict[CellIndex, LogicalChannel]:
    """Assign one control channel per cell; color class k gets the k-th
    control channel in (phy, code) order."""
    return _control_channels(color_control_graph(lattice), plan)


def allocate_static_data(
    lattice: Lattice, plan: ChannelPlan
) -> tuple[dict[CellIndex, tuple[LogicalChannel, ...]], int]:
    """Per-cell data-channel groups and the uniform group size k_static."""
    return _data_groups(color_data_graph(lattice), plan)


def allocate_static(lattice: Lattice, plan: ChannelPlan, require_control: bool = True) -> StaticAllocation:
    """Control assignment and static data groups in one report-ready record.

    With ``require_control=False`` a control set smaller than the control
    chromatic number yields ``control=None`` instead of an error, so the
    data side can still be reported.
    """
    control_coloring = color_control_graph(lattice)
    data_coloring = color_data_graph(lattice)
    try:
        control = _control_channels(control_coloring, plan)
    except InsufficientSpectrumError:
        if require_control:
            raise
        control = None
    data_groups, k_static = _data_groups(data_coloring, plan)
    ordered = plan.ordered_data()
    unassigned = ordered[k_static * data_coloring.num_colors :] if data_coloring.num_colors else ordered
    return StaticAllocation(
        control=control,
        data_groups=data_groups,
        k_static=k_static,
        chi_control=control_coloring.num_colors,
        chi_data=data_coloring.num_colors,
        unassigned=unassigned,
    )


def static_allocation_csv(lattice: Lattice, alloc: StaticAllocation) -> str:
    """One row per cell: control channel plus its k_static data channels.

    Control columns stay empty when no control assignment exists.
    """
    header = ["i", "j", "control_phy", "control_code"]
    header += [f"data_ch_{k + 1}" for k in range(alloc.k_static)]
    lines = [",".join(header)]
    # The data groups are the chi_data shared groups of ``_data_groups``, so
    # each is rendered once, keyed by identity.
    groups = {id(group): group for group in alloc.data_groups.values()}
    tails = {key: "".join("," + ch.token() for ch in group) for key, group in groups.items()}
    for cell in lattice.cells:
        if alloc.control is None:
            head = f"{cell.i},{cell.j},,"
        else:
            cch = alloc.control[cell]
            head = f"{cell.i},{cell.j},{cch.phy_channel},{cch.code}"
        lines.append(head + tails[id(alloc.data_groups[cell])])
    return "\r\n".join(lines) + "\r\n"
