"""Static channel assignment: one control channel per cell, and the baseline
per-cell data-channel groups shared uniformly across the network.

Both colorings read one metric-12 graph.  Control assignments take
``coloring.control_coloring``, a minimum coloring of the metric-16 graph
(at most 4 colors) on any lattice; data groups color the metric-12 graph
(at most 3) and split the data set into equal groups of k_static =
|data| // colors, one group per color class.  Leftover channels stay
unassigned rather than being spread unevenly, and are reported
explicitly.  Both assignments are
tuples in ``lattice.cells`` order, read off the colorings' label lists.
"""

from __future__ import annotations

from collections import namedtuple

from .coloring import Coloring, control_coloring, data_graph_coloring
from .errors import InsufficientSpectrumError
from .interference import interference_rows
from .lattice import DATA_REUSE_METRIC, Lattice
from .spectrum import ChannelPlan, LogicalChannel, partition_channels


class StaticAllocation(namedtuple("StaticAllocation", "control data_groups k_static chi_control chi_data unassigned")):
    """Full static assignment plus the summary numbers reports need.

    ``control`` and ``data_groups`` hold one entry per cell of
    ``lattice.cells``, in that order.  ``control`` is None when the plan's
    control set is smaller than the control chromatic number ``chi_control``
    (some regulatory tables leave only 2 control channels, fewer than the 4
    a dense network needs), so the data side can still be reported.
    """

    __slots__ = ()


def _static_share(chi_data: int, plan: ChannelPlan) -> int:
    """k_static = |data| // chi_data, the size of each of the chi_data equal
    data groups; 0 for a graph without vertices (chi_data = 0)."""
    if chi_data == 0:
        return 0
    k_static = len(plan.data_set) // chi_data
    if k_static == 0:
        raise InsufficientSpectrumError(f"need at least {chi_data} data channels, plan has {len(plan.data_set)}")
    return k_static


def _data_groups(
    coloring: Coloring, plan: ChannelPlan
) -> tuple[tuple[tuple[LogicalChannel, ...], ...], int, tuple[LogicalChannel, ...]]:
    """Color class c gets the c-th of chi equal data groups; returns the
    group of each vertex, in vertex order, the group size k_static and the
    unassigned tail (every data channel when there are no vertices)."""
    chi = coloring.num_colors
    k_static = _static_share(chi, plan)
    if chi == 0:
        return (), 0, plan.ordered_data()
    groups, unassigned = partition_channels(plan.ordered_data(), chi, k_static)
    return tuple(groups[color] for color in coloring.labels), k_static, unassigned


def allocate_static(lattice: Lattice, plan: ChannelPlan) -> StaticAllocation:
    """Control assignment and static data groups in one report-ready record.

    Control color class c of ``control_coloring`` gets the c-th control
    channel in (phy, code) order.  The metric-12 graph gets a minimum
    coloring at any size.
    """
    data_rows = interference_rows(lattice, DATA_REUSE_METRIC)
    control_colors = control_coloring(lattice, data_rows)
    data_coloring = data_graph_coloring(data_rows, lattice.cells)
    channels = plan.ordered_control()
    control = None
    if control_colors.num_colors <= len(channels):
        control = tuple(channels[color] for color in control_colors.labels)
    data_groups, k_static, unassigned = _data_groups(data_coloring, plan)
    return StaticAllocation(
        control=control,
        data_groups=data_groups,
        k_static=k_static,
        chi_control=control_colors.num_colors,
        chi_data=data_coloring.num_colors,
        unassigned=unassigned,
    )


def static_allocation_csv(lattice: Lattice, alloc: StaticAllocation) -> str:
    """One row per cell: control channel plus its k_static data channels.

    Control columns stay empty when no control assignment exists.
    """
    header = ["i", "j", "control_phy", "control_code"]
    header += [f"data_ch_{k + 1}" for k in range(alloc.k_static)]
    # The data groups are the chi_data shared groups of ``_data_groups``, so
    # each is rendered once, keyed by identity.
    groups = {id(group): group for group in alloc.data_groups}
    tails = {key: "".join("," + ch.token() for ch in group) for key, group in groups.items()}
    cells = lattice.cells
    if alloc.control is None:
        heads = [f"{i},{j},," for i, j in cells]
    else:
        heads = [f"{i},{j},{phy},{code}" for (i, j), (phy, code) in zip(cells, alloc.control)]
    lines = [",".join(header)]
    lines += [head + tails[id(group)] for head, group in zip(heads, alloc.data_groups)]
    return "\r\n".join(lines) + "\r\n"
