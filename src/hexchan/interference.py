"""Interference graphs over lattice cells.

Vertices are cells; an edge joins two cells whose integer lattice metric is
strictly below the reuse threshold (cells exactly at the reuse distance may
share a channel, so they are not adjacent).

A graph spans every cell of its lattice: its ordered cells plus one
adjacency bitmask per cell position, where bit q of ``rows[p]`` is set iff
vertices p and q are adjacent.  A set of cells (the PANs active in a cycle,
say) is a bitmask of positions too, so subgraphs and connected components
are masks over the rows (``component_masks``), and colorings are label
lists in vertex order.  A build looks up the finite reuse offsets around
each cell, so it is linear in the cell count; ``edge_list_text`` reads the
same offsets with no graph.
"""

from __future__ import annotations

from typing import Iterator

from .lattice import CellIndex, Lattice, interference_offsets


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def component_masks(rows: tuple[int, ...], mask: int) -> list[int]:
    """Connected components of the subgraph induced by ``mask``, as bitmasks,
    ordered by their lowest position (bitmask flood fill).  ``mask`` keeps the
    positions not reached yet: each one reached leaves it as it joins, and
    the fill starts from the lowest position's neighbors."""
    components = []
    while mask:
        comp = mask & -mask
        mask ^= comp
        frontier = rows[comp.bit_length() - 1] & mask
        mask ^= frontier
        comp |= frontier
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = rows[low.bit_length() - 1] & mask
            if grown:
                mask ^= grown
                comp |= grown
                frontier |= grown
        components.append(comp)
    return components


class InterferenceGraph:
    """Undirected simple graph on an ordered tuple of cells.

    ``rows[p]`` is the adjacency bitmask of the cell ``vertices[p]``; the
    rows are symmetric and have no self-loops.  ``len(graph)`` is the vertex
    count.  Graphs are immutable.
    """

    __slots__ = ("vertices", "rows")

    def __init__(self, vertices: tuple[CellIndex, ...], rows: tuple[int, ...]) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"InterferenceGraph.{name} is read-only: graphs are immutable")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> frozenset[tuple[CellIndex, CellIndex]]:
        """Edges as (lower, higher)-position cell pairs, built from the rows
        on each read; no hexchan module reads it."""
        v = self.vertices
        return frozenset((v[p], v[q]) for p, row in enumerate(self.rows) for q in iter_bits(row & -(2 << p)))


def build_interference_graph(lattice: Lattice, metric_threshold: int) -> InterferenceGraph:
    """Graph on every lattice cell, in lattice order.

    Edge iff metric(a, b) < metric_threshold; the strict comparison makes
    cells exactly at the reuse distance channel-compatible.
    """
    if metric_threshold <= 0:
        raise ValueError("metric_threshold must be positive")
    vertices = lattice.cells
    # Cell (i, j) is keyed by the integer i * stride + j; the stride exceeds
    # twice the largest |j| a lookup can reach, so keys never collide.
    offsets = interference_offsets(metric_threshold)
    reach = max((abs(dj) for _, dj in offsets), default=0)
    stride = 2 * (max((abs(j) for _, j in vertices), default=0) + reach) + 1
    keys = [i * stride + j for i, j in vertices]
    position = {key: k for k, key in enumerate(keys)}
    deltas = [di * stride + dj for di, dj in offsets]
    rows = []
    for key in keys:
        row = 0
        for delta in deltas:
            q = position.get(key + delta)
            if q is not None:
                row |= 1 << q
        rows.append(row)
    return InterferenceGraph(vertices, tuple(rows))


def edge_list_text(lattice: Lattice, metric_threshold: int) -> str:
    """Plain-text edge list, one ``i1 j1 i2 j2`` line per edge, read off the
    reuse offsets with no graph built.  Cells are ordered row-major by (j,
    i), so a cell's later neighbors are at the offsets with (dj, di) > (0,
    0), in that order: each edge is printed once, from its earlier cell,
    and the lines are sorted by the two cells' positions."""
    if metric_threshold <= 0:
        raise ValueError("metric_threshold must be positive")
    later = sorted((dj, di) for di, dj in interference_offsets(metric_threshold) if (dj, di) > (0, 0))
    names = {cell: f"{cell[0]} {cell[1]}" for cell in lattice.cells}
    lines = [
        f"{name} {other}"
        for (i, j), name in names.items()
        for dj, di in later
        if (other := names.get((i + di, j + dj))) is not None
    ]
    return "\n".join(lines) + ("\n" if lines else "")
