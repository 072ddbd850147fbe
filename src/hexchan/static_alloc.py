"""Static channel assignment: one control channel per cell, and the baseline
per-cell data-channel groups shared uniformly across the network.

Control assignments color the metric-16 interference graph (at most 4
colors on any lattice); data groups color the metric-12 graph (at most 3)
and split the data set into equal groups of k_static = |data| // colors,
one group per color class.  Leftover channels stay unassigned rather than
being spread unevenly, and are reported explicitly.  Both assignments are
tuples in ``lattice.cells`` order, read off the colorings' label lists.
"""

from __future__ import annotations

from collections import namedtuple

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
from .lattice import CONTROL_REUSE_METRIC, DATA_REUSE_METRIC, Lattice
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


def _data_groups(coloring: Coloring, plan: ChannelPlan) -> tuple[tuple[tuple[LogicalChannel, ...], ...], int]:
    """Color class c gets the c-th of chi equal data groups; returns the
    group of each vertex, in vertex order, and the group size k_static."""
    ordered = plan.ordered_data()
    chi = coloring.num_colors
    if chi == 0:
        return (), 0
    k_static = len(ordered) // chi
    if k_static == 0:
        raise InsufficientSpectrumError(f"need at least {chi} data channels, plan has {len(ordered)}")
    groups, _ = partition_channels(ordered, chi, k_static)
    return tuple(groups[color] for color in coloring.labels), k_static


def allocate_static_data(
    lattice: Lattice, plan: ChannelPlan
) -> tuple[tuple[tuple[LogicalChannel, ...], ...], int]:
    """Per-cell data-channel groups in lattice order, and the uniform group size k_static."""
    return _data_groups(data_graph_coloring(build_interference_graph(lattice, None, DATA_REUSE_METRIC)), plan)


def allocate_static(lattice: Lattice, plan: ChannelPlan) -> StaticAllocation:
    """Control assignment and static data groups in one report-ready record.

    The metric-16 graph is colored exactly up to the solver's vertex cap and
    by the closed-form control pattern above it; color class c gets the c-th
    control channel in (phy, code) order.  The metric-12 graph gets a
    minimum coloring at any size.
    """
    if len(lattice) <= DEFAULT_VERTEX_CAP:
        control_coloring = chromatic_coloring(build_interference_graph(lattice, None, CONTROL_REUSE_METRIC))
    else:
        control_coloring = pattern_coloring(lattice, CONTROL)
    data_coloring = data_graph_coloring(build_interference_graph(lattice, None, DATA_REUSE_METRIC))
    channels = plan.ordered_control()
    control = None
    if control_coloring.num_colors <= len(channels):
        control = tuple(channels[color] for color in control_coloring.labels)
    data_groups, k_static = _data_groups(data_coloring, plan)
    return StaticAllocation(
        control=control,
        data_groups=data_groups,
        k_static=k_static,
        chi_control=control_coloring.num_colors,
        chi_data=data_coloring.num_colors,
        unassigned=plan.ordered_data()[k_static * data_coloring.num_colors :],
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
