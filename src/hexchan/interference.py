"""Interference graphs over lattice cells.

Vertices are cells; an edge joins two cells whose integer lattice metric is
strictly below the reuse threshold (cells exactly at the reuse distance may
share a channel, so they are not adjacent).

A graph is its rows: one adjacency bitmask per cell of ``lattice.cells``,
where bit q of ``rows[p]`` is set iff cells p and q are adjacent.  A set of
cells (the PANs active in a cycle, say) is a bitmask of positions too, so
subgraphs and connected components are masks over the rows
(``coloring.two_coloring`` grows a component), and colorings are label
lists in cell order.  ``interference_rows`` looks up the finite reuse
offsets around each cell, so it is linear in the cell count;
``edge_list_text`` reads the same offsets with no rows built.
"""

from __future__ import annotations

from typing import Iterator

from .lattice import Lattice, interference_offsets


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def interference_rows(lattice: Lattice, metric_threshold: int) -> tuple[int, ...]:
    """Adjacency rows of the graph on every lattice cell, in lattice order:
    bit q of ``rows[p]`` is set iff cells p and q of ``lattice.cells``
    interfere.

    Edge iff metric(a, b) < metric_threshold; the strict comparison makes
    cells exactly at the reuse distance channel-compatible.
    """
    if metric_threshold <= 0:
        raise ValueError("metric_threshold must be positive")
    cells = lattice.cells
    # Cell (i, j) is keyed by the integer i * stride + j; the stride exceeds
    # twice the largest |j| a lookup can reach, so keys never collide.
    offsets = interference_offsets(metric_threshold)
    reach = max((abs(dj) for _, dj in offsets), default=0)
    stride = 2 * (max((abs(j) for _, j in cells), default=0) + reach) + 1
    keys = [i * stride + j for i, j in cells]
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
    return tuple(rows)


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
