"""Interference graphs over lattice cells.

Vertices are cells; an edge joins two cells whose integer lattice metric is
strictly below the reuse threshold (cells exactly at the reuse distance may
share a channel, so they are not adjacent).

A graph is its ordered cells plus one adjacency bitmask per cell position:
bit q of ``rows[p]`` is set iff vertices p and q are adjacent.  A set of
positions is a bitmask too, so subgraphs and connected components are
masks over the rows (``component_masks``), and colorings are label lists
in vertex order.  Lattice graphs are built by looking up the finite set of
reuse offsets around each cell, so a build is linear in the number of cells.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .lattice import CellIndex, Lattice, interference_offsets


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def component_masks(rows: tuple[int, ...], mask: int) -> list[int]:
    """Connected components of the subgraph induced by ``mask``, as bitmasks,
    ordered by their lowest position (bitmask flood fill)."""
    components = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = rows[low.bit_length() - 1] & mask & ~comp
            comp |= grown
            frontier |= grown
        mask &= ~comp
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

    def edge_index_pairs(self) -> list[tuple[int, int]]:
        """Edges as (lower, higher) vertex positions, sorted."""
        return [(p, q) for p, row in enumerate(self.rows) for q in iter_bits(row & -(2 << p))]

    @property
    def edges(self) -> frozenset[tuple[CellIndex, CellIndex]]:
        """Edges as (lower, higher)-position cell pairs, built on each read."""
        vertices = self.vertices
        return frozenset((vertices[p], vertices[q]) for p, q in self.edge_index_pairs())


def build_interference_graph(
    lattice: Lattice, active_cells: Iterable[CellIndex] | None, metric_threshold: int
) -> InterferenceGraph:
    """Graph on ``active_cells`` (default: every lattice cell), in lattice order.

    Edge iff metric(a, b) < metric_threshold; the strict comparison makes
    cells exactly at the reuse distance channel-compatible.
    """
    if metric_threshold <= 0:
        raise ValueError("metric_threshold must be positive")
    if active_cells is None:
        vertices = lattice.cells
    else:
        wanted = set(active_cells)
        for c in wanted:
            lattice.require(c)
        vertices = tuple(c for c in lattice.cells if c in wanted)
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


def edge_list_text(graph: InterferenceGraph) -> str:
    """Plain-text edge list, one ``i1 j1 i2 j2`` line per edge."""
    names = [f"{i} {j}" for i, j in graph.vertices]
    lines = [f"{names[p]} {names[q]}" for p, q in graph.edge_index_pairs()]
    return "\n".join(lines) + ("\n" if lines else "")
