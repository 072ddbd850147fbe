"""Vertex coloring: exact minimum coloring, closed-form periodic colorings,
validity checks, and the brute-force oracle used by the tests.

The exact solver is the deterministic Zykov branch and bound in
``_zykov_py``; it refuses graphs above ``DEFAULT_VERTEX_CAP`` vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from . import _zykov_py
from .errors import IncompleteColoringError, SizeLimitError
from .interference import InterferenceGraph, iter_bits
from .lattice import CellIndex, Lattice

# Zykov search is exponential; refuse huge graphs instead of hanging.
DEFAULT_VERTEX_CAP = 64

CONTROL = "control"
DATA = "data"


@dataclass(frozen=True)
class Coloring:
    """A color per vertex; color ids are the contiguous range 0..num_colors-1."""

    assignment: Mapping[CellIndex, int]
    num_colors: int


def _canonical(vertices: tuple[CellIndex, ...], labels: list[int]) -> Coloring:
    """Renumber colors by first appearance in vertex order."""
    remap: dict[int, int] = {}
    assignment = {}
    for v, raw in zip(vertices, labels):
        if raw not in remap:
            remap[raw] = len(remap)
        assignment[v] = remap[raw]
    return Coloring(assignment=assignment, num_colors=len(remap))


def chromatic_coloring(graph: InterferenceGraph, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Coloring:
    """Proper coloring with exactly the chromatic number of colors.

    Deterministic for a given vertex order.  Graphs above ``vertex_cap``
    vertices are refused; use pattern_coloring (lattice graphs) or raise
    the cap explicitly if you can afford the search.
    """
    n = len(graph.vertices)
    if n == 0:
        return Coloring(assignment={}, num_colors=0)
    if n > vertex_cap:
        raise SizeLimitError(
            f"{n} vertices exceeds the exact-solver cap of {vertex_cap}; "
            "use pattern_coloring or pass a larger vertex_cap"
        )
    return _canonical(graph.vertices, _zykov_py.solve(n, graph.edge_index_pairs()))


def clique_lower_bound(graph: InterferenceGraph) -> int:
    """Size of the clique found by the solver's greedy heuristic."""
    return _zykov_py.clique_bound(len(graph.vertices), graph.edge_index_pairs())


def _pattern_label(c: CellIndex, kind: str) -> int:
    a = c.i
    b = (c.j - c.i) // 2
    return (a - b) % 3 if kind == DATA else 2 * (a % 2) + (b % 2)


def pattern_coloring(lattice: Lattice, kind: str) -> Coloring:
    """Closed-form periodic coloring, valid for any lattice size.

    In axial coordinates a = i, b = (j - i) / 2 the data pattern is
    (a - b) mod 3 and the control pattern is 2*(a mod 2) + (b mod 2).
    Every same-color displacement has metric >= 12 (data) resp. >= 16
    (control), so the patterns are proper for the respective reuse
    thresholds while using at most 3 resp. 4 colors.
    """
    if kind not in (CONTROL, DATA):
        raise ValueError(f"kind must be {CONTROL!r} or {DATA!r}")
    return _canonical(lattice.cells, [_pattern_label(c, kind) for c in lattice.cells])


def data_graph_coloring(graph: InterferenceGraph) -> Coloring:
    """Minimum coloring of a metric-12 interference graph of any size, without search.

    The data pattern bounds chi <= 3 on these graphs.  A bipartite graph
    gets its canonical BFS 2-coloring (each component's first vertex takes
    color 0, which fixes the rest); any other graph needs 3 colors and gets
    the data pattern restricted to its cells.
    """
    rows = graph.rows
    side = [-1] * len(rows)
    for start in range(len(rows)):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = [start]
        for p in queue:
            for q in iter_bits(rows[p]):
                if side[q] < 0:
                    side[q] = 1 - side[p]
                    queue.append(q)
                elif side[q] == side[p]:
                    return _canonical(graph.vertices, [_pattern_label(c, DATA) for c in graph.vertices])
    return _canonical(graph.vertices, side)


def verify_coloring(graph: InterferenceGraph, coloring: Coloring) -> bool:
    """True iff no edge joins two same-colored vertices."""
    missing = [v for v in graph.vertices if v not in coloring.assignment]
    if missing:
        raise IncompleteColoringError(
            f"coloring misses {len(missing)} vertices, e.g. ({missing[0].i}, {missing[0].j})"
        )
    return all(coloring.assignment[a] != coloring.assignment[b] for a, b in graph.edges)


BRUTE_FORCE_VERTEX_CAP = 10


def brute_force_chromatic(graph: InterferenceGraph) -> int:
    """Exact chromatic number by exhaustive k-coloring search, k = 1, 2, ...

    Independent of the branch-and-bound path; only for tiny graphs
    (<= 10 vertices), as a test oracle.
    """
    n = len(graph.vertices)
    if n > BRUTE_FORCE_VERTEX_CAP:
        raise SizeLimitError(f"brute force limited to {BRUTE_FORCE_VERTEX_CAP} vertices, got {n}")
    if n == 0:
        return 0
    earlier: list[list[int]] = [[] for _ in range(n)]
    for a, b in graph.edge_index_pairs():
        earlier[b].append(a)

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def extend(v: int) -> bool:
            if v == n:
                return True
            for c in range(k):
                if all(colors[a] != c for a in earlier[v]):
                    colors[v] = c
                    if extend(v + 1):
                        return True
            colors[v] = -1
            return False

        return extend(0)

    for k in itertools.count(1):
        if colorable(k):
            return k
    raise AssertionError("unreachable")


def coloring_csv(coloring: Coloring) -> str:
    """CSV rows ``i,j,color`` in vertex order, with header."""
    lines = ["i,j,color"]
    for cell, color in coloring.assignment.items():
        lines.append(f"{cell.i},{cell.j},{color}")
    return "\r\n".join(lines) + "\r\n"
