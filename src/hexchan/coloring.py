"""Vertex coloring: exact minimum coloring and closed-form periodic colorings.

Every interference graph here needs few colors: the data pattern colors any
metric-12 graph with 3 and the control pattern any metric-16 graph with 4.
Metric-12 graphs are colored without search by ``data_graph_coloring``.
``chromatic_coloring`` colors any graph exactly, one connected component at
a time: each gets the first k-coloring in vertex order for the smallest k
from its greedy clique up, except that a component needing 4 colors on
which the control pattern is proper (any metric-16 graph) gets that
pattern.  It refuses graphs above ``DEFAULT_VERTEX_CAP`` vertices.

A ``Coloring`` is a one-field named tuple: one label per vertex position
of the graph it colors (for ``pattern_coloring``, per cell of
``lattice.cells``), numbered by first appearance.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Sequence

from .errors import SizeLimitError
from .interference import InterferenceGraph, component_masks, iter_bits
from .lattice import CellIndex, Lattice

# The search is exponential in the worst case; refuse huge graphs instead of hanging.
DEFAULT_VERTEX_CAP = 64

CONTROL = "control"
DATA = "data"


class Coloring(namedtuple("Coloring", "labels")):
    """A color per vertex, in vertex order, numbered by first appearance, so
    the color ids are the contiguous range 0..num_colors-1."""

    __slots__ = ()

    @property
    def num_colors(self) -> int:
        return max(self.labels, default=-1) + 1


def _first_appearance(labels: list[int]) -> list[int]:
    """``labels`` renumbered by first appearance."""
    remap: dict[int, int] = {}
    return [remap.setdefault(raw, len(remap)) for raw in labels]


def _two_coloring(rows: Sequence[int], mask: int) -> dict[int, int] | None:
    """BFS 2-coloring of the subgraph induced by ``mask``, or None if it has
    an odd cycle.  Each component's lowest position takes color 0."""
    side: dict[int, int] = {}
    for start in iter_bits(mask):
        if start in side:
            continue
        side[start] = 0
        queue = [start]
        for p in queue:
            for q in iter_bits(rows[p] & mask):
                s = side.get(q)
                if s is None:
                    side[q] = 1 - side[p]
                    queue.append(q)
                elif s == side[p]:
                    return None
    return side


def _greedy_clique(rows: Sequence[int], mask: int) -> int:
    """Largest clique grown greedily from each vertex of ``mask`` (always
    adding the candidate with the most candidate neighbors); a lower bound
    on the chromatic number."""
    best = 0
    for seed in iter_bits(mask):
        size = 1
        cand = rows[seed] & mask
        while cand:
            u = max(iter_bits(cand), key=lambda w: (rows[w] & cand).bit_count())
            size += 1
            cand &= rows[u] & ~(1 << u)
        best = max(best, size)
    return best


def _k_coloring(adj: list[int], k: int) -> list[int] | None:
    """First proper k-coloring in vertex order, or None.

    ``adj[v]`` is the bitmask of v's neighbors.  Colors are tried lowest
    first, and a new color is only ever the next unused one, so labels come
    out numbered by first appearance.  Two prunings cut only dead branches,
    so the result is the same as without them:

    - each vertex keeps a bitmask of the colors still open to it, and a
      vertex left with one color takes it from its neighbors' masks, so a
      forced chain such as a strip of triangles needs no backtracking;
    - whether the vertices from v on can be colored depends only on the
      colors of the earlier vertices with a neighbor among them (colors no
      earlier vertex uses can be swapped), so a combination of those that
      failed once is not tried again.
    """
    n = len(adj)
    boundary = [[u for u in range(v) if adj[u] >> v] for v in range(n)]
    failed: set[tuple[int, ...]] = set()
    # One frame per colored vertex: [open colors of all vertices before it
    # was colored, colors used before it, its colors still to try, memo key].
    frames: list[list] = []
    domains, used = [(1 << k) - 1] * n, 0
    while len(frames) < n:
        v = len(frames)
        key = (v, *[domains[u] for u in boundary[v]])
        frames.append([domains, used, 0 if key in failed else domains[v] & ((2 << used) - 1), key])
        domains = None
        while domains is None:
            if not frames:
                return None
            frame = frames[-1]
            before, used_before, todo, key = frame
            if not todo:
                failed.add(key)
                frames.pop()
                continue
            color = todo & -todo
            frame[2] = todo ^ color
            domains = _settle(adj, before, len(frames) - 1, color)
            used = max(used_before, color.bit_length())
    return [d.bit_length() - 1 for d in domains]


def _settle(adj: list[int], domains: list[int], v: int, color: int) -> list[int] | None:
    """Copy of ``domains`` with vertex v given the one-bit ``color``, after
    every vertex left with one open color has taken it from its neighbors;
    None if some vertex is left with none."""
    domains = domains.copy()
    domains[v] = color
    forced = [v]
    for u in forced:
        bit = domains[u]
        for w in iter_bits(adj[u]):
            if domains[w] & bit:
                domains[w] ^= bit
                if not domains[w]:
                    return None
                if domains[w] & (domains[w] - 1) == 0:
                    forced.append(w)
    return domains


def _component_labels(rows: Sequence[int], comp: int, cells: Sequence[CellIndex]) -> list[int]:
    """Minimum coloring of the connected component ``comp``, as labels of
    its positions in ascending order.

    A bipartite component needs no branch of its own: its first 2-coloring
    in vertex order gives its lowest position color 0, which fixes the
    rest, and the forced-color pruning of ``_k_coloring`` finds it without
    backtracking.
    """
    positions = list(iter_bits(comp))
    local = {p: r for r, p in enumerate(positions)}
    adj = [sum(1 << local[q] for q in iter_bits(rows[p] & comp)) for p in positions]
    pattern = [_pattern_label(cells[p], CONTROL) for p in positions]
    for k in itertools.count(_greedy_clique(rows, comp)):
        if k == 4 and all(pattern[v] != pattern[w] for v in range(len(adj)) for w in iter_bits(adj[v])):
            return _first_appearance(pattern)
        labels = _k_coloring(adj, k)
        if labels is not None:
            return labels
    raise AssertionError("unreachable")


def chromatic_coloring(graph: InterferenceGraph, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Coloring:
    """Proper coloring with exactly the chromatic number of colors.

    Each connected component is colored on its own, with the first
    k-coloring in vertex order for the smallest k from its greedy clique
    up; on a bipartite component that is its BFS 2-coloring.  Once 3 colors
    are ruled out, a component on which the control pattern is proper gets
    the pattern instead of a 4-coloring search; on metric-16 graphs that
    search can take seconds at 64 vertices.  Deterministic for a given
    vertex order.  Graphs above ``vertex_cap`` vertices are refused; use
    data_graph_coloring or pattern_coloring for lattice graphs, or raise
    the cap explicitly if you can afford the search.
    """
    n = len(graph.vertices)
    if n > vertex_cap:
        raise SizeLimitError(
            f"{n} vertices exceeds the exact-solver cap of {vertex_cap}; "
            "use pattern_coloring or pass a larger vertex_cap"
        )
    # Each component numbers its colors by first appearance, so the merged
    # labels are numbered that way too.
    labels = [0] * n
    for comp in component_masks(graph.rows, (1 << n) - 1):
        for p, label in zip(iter_bits(comp), _component_labels(graph.rows, comp, graph.vertices)):
            labels[p] = label
    return Coloring(tuple(labels))


def _pattern_label(c: CellIndex, kind: str) -> int:
    a, j = c
    b = (j - a) // 2
    return (a - b) % 3 if kind == DATA else 2 * (a % 2) + (b % 2)


def pattern_coloring(lattice: Lattice, kind: str) -> Coloring:
    """Closed-form periodic coloring of ``lattice.cells``, valid for any lattice size.

    In axial coordinates a = i, b = (j - i) / 2 the data pattern is
    (a - b) mod 3 and the control pattern is 2*(a mod 2) + (b mod 2).
    Every same-color displacement has metric >= 12 (data) resp. >= 16
    (control), so the patterns are proper for the respective reuse
    thresholds while using at most 3 resp. 4 colors.
    """
    if kind not in (CONTROL, DATA):
        raise ValueError(f"kind must be {CONTROL!r} or {DATA!r}")
    return Coloring(tuple(_first_appearance([_pattern_label(c, kind) for c in lattice.cells])))


def data_labels(rows: Sequence[int], mask: int, cells: Sequence[CellIndex]) -> list[int]:
    """Minimum coloring of the metric-12 graph induced by ``mask``, without search.

    ``rows`` are adjacency bitmasks and ``cells[p]`` is the cell at position
    p.  Returns one label per position of ``mask``, ascending, numbered by
    first appearance.  The data pattern bounds chi <= 3 on these graphs.  A
    bipartite graph gets its canonical BFS 2-coloring (each component's
    first position takes color 0, which fixes the rest); any other graph
    needs 3 colors and gets the data pattern restricted to its cells.
    """
    side = _two_coloring(rows, mask)
    if side is None:
        return _first_appearance([_pattern_label(cells[p], DATA) for p in iter_bits(mask)])
    return [side[p] for p in iter_bits(mask)]


def data_graph_coloring(graph: InterferenceGraph) -> Coloring:
    """Minimum coloring of a metric-12 interference graph of any size; see ``data_labels``."""
    return Coloring(tuple(data_labels(graph.rows, (1 << len(graph.vertices)) - 1, graph.vertices)))
