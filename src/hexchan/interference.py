"""Interference graphs over lattice cells.

Vertices are cells; an edge joins two cells whose integer lattice metric is
strictly below the reuse threshold (cells exactly at the reuse distance may
share a channel, so they are not adjacent).

A graph stores one adjacency bitmask per vertex position: bit q of
``rows[p]`` is set iff vertices p and q are adjacent.  Every other view
(neighbors, edges, index pairs, subgraphs, components) is derived from those
rows.  Lattice graphs are built by looking up the finite set of reuse
offsets around each cell, so a build is linear in the number of cells.
"""

from __future__ import annotations

from functools import cached_property
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

    Built from an edge collection; the graph itself keeps only the adjacency
    rows.  Instances are treated as immutable.
    """

    def __init__(self, vertices: Iterable[CellIndex], edges: Iterable[tuple[CellIndex, CellIndex]] = ()) -> None:
        vertices = tuple(vertices)
        index = {v: k for k, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertices")
        rows = [0] * len(vertices)
        for a, b in edges:
            if a == b:
                raise ValueError("self-loop")
            if a not in index or b not in index:
                raise ValueError("edge references unknown vertex")
            pa, pb = index[a], index[b]
            rows[pa] |= 1 << pb
            rows[pb] |= 1 << pa
        self.vertices = vertices
        self.rows = tuple(rows)
        self._index = index

    @classmethod
    def from_rows(cls, vertices: tuple[CellIndex, ...], rows: tuple[int, ...]) -> "InterferenceGraph":
        """Graph from symmetric adjacency rows over ``vertices``, unchecked."""
        graph = cls.__new__(cls)
        graph.vertices = vertices
        graph.rows = rows
        return graph

    @cached_property
    def _index(self) -> dict[CellIndex, int]:
        """Position of each vertex; built on first use, since colorings and
        edge lists never need it."""
        return {v: k for k, v in enumerate(self.vertices)}

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InterferenceGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.vertices, self.rows))

    def __repr__(self) -> str:
        return f"InterferenceGraph(vertices={self.vertices!r}, edges={len(self.edges)})"

    def neighbors(self, v: CellIndex) -> frozenset[CellIndex]:
        vertices = self.vertices
        return frozenset(vertices[q] for q in iter_bits(self.rows[self._index[v]]))

    def has_edge(self, a: CellIndex, b: CellIndex) -> bool:
        return bool(self.rows[self._index[a]] >> self._index[b] & 1)

    def vertex_position(self, v: CellIndex) -> int:
        return self._index[v]

    def edge_index_pairs(self) -> list[tuple[int, int]]:
        """Edges as (lower, higher) vertex positions, sorted; solver input."""
        return [(p, q) for p, row in enumerate(self.rows) for q in iter_bits(row & -(2 << p))]

    @cached_property
    def edges(self) -> frozenset[tuple[CellIndex, CellIndex]]:
        """Edges as (lower, higher)-position cell pairs."""
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
    stride = 2 * (max((abs(c.j) for c in vertices), default=0) + reach) + 1
    position = {c.i * stride + c.j: k for k, c in enumerate(vertices)}
    deltas = [di * stride + dj for di, dj in offsets]
    rows = []
    for c in vertices:
        key = c.i * stride + c.j
        row = 0
        for delta in deltas:
            q = position.get(key + delta)
            if q is not None:
                row |= 1 << q
        rows.append(row)
    return InterferenceGraph.from_rows(vertices, tuple(rows))


def subgraph_on(graph: InterferenceGraph, keep: Iterable[CellIndex]) -> InterferenceGraph:
    """Induced subgraph, preserving the parent vertex order."""
    index = graph._index
    keep_set = set(keep)
    unknown = [c for c in keep_set if c not in index]
    if unknown:
        raise ValueError(f"vertices not in graph: {sorted((c.i, c.j) for c in unknown)}")
    kept = sorted(index[c] for c in keep_set)
    local = {p: k for k, p in enumerate(kept)}
    mask = sum(1 << p for p in kept)
    rows = tuple(sum(1 << local[q] for q in iter_bits(graph.rows[p] & mask)) for p in kept)
    return InterferenceGraph.from_rows(tuple(graph.vertices[p] for p in kept), rows)


def connected_components(graph: InterferenceGraph) -> list[tuple[CellIndex, ...]]:
    """Components ordered by their first vertex, each in parent vertex order."""
    vertices = graph.vertices
    full = (1 << len(vertices)) - 1
    return [tuple(vertices[p] for p in iter_bits(comp)) for comp in component_masks(graph.rows, full)]


def edge_list_text(graph: InterferenceGraph) -> str:
    """Plain-text edge list, one ``i1 j1 i2 j2`` line per edge."""
    vertices = graph.vertices
    lines = []
    for p, q in graph.edge_index_pairs():
        a, b = vertices[p], vertices[q]
        lines.append(f"{a.i} {a.j} {b.i} {b.j}")
    return "\n".join(lines) + ("\n" if lines else "")
