"""Vertex coloring: exact minimum coloring and closed-form periodic colorings.

A graph is its adjacency rows (``interference_rows``) on the cells they
index.  Every interference graph here needs few colors: the data pattern
colors any metric-12 graph with 3 and the control pattern any metric-16
graph with 4.  Metric-12 graphs are colored without search by
``data_graph_coloring``.  ``chromatic_coloring`` colors any graph exactly,
one connected component at a time: each gets the first k-coloring in vertex
order for the smallest k from its greedy clique up, except that a component
needing 4 colors on which the control pattern is proper (any metric-16
graph) gets that pattern.  The pattern is checked first; where it is proper
the clique sweep stops at 4, and a component with a 4-clique takes the
pattern with no search state built.  It refuses graphs above
``DEFAULT_VERTEX_CAP`` vertices; ``control_coloring``, the static control
rule, is the one caller that knows the cap and takes the pattern above it.

``two_coloring`` is the one component walk: it grows the component of a
mask's lowest position by BFS layers, which are also its 2-coloring.
``data_graph_coloring``, ``chromatic_coloring`` (which keeps only the
component) and the dynamic allocation step through components with it.

A ``Coloring`` is a one-field named tuple: one label per vertex position
of the graph it colors (for ``pattern_coloring`` and ``control_coloring``,
per cell of ``lattice.cells``), numbered by first appearance.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Sequence

from .errors import SizeLimitError
from .interference import interference_rows, iter_bits
from .lattice import CONTROL_REUSE_METRIC, CellIndex, Lattice

# The search is exponential in the worst case.  The cap bounds vertices, not
# time: below it, graphs denser than metric 16 (where the control pattern
# cannot stand in at 4 colors) can take seconds, e.g. 12 s at 55 vertices
# of a metric-28 graph.
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


def _greedy_clique(rows: Sequence[int], mask: int, enough: int | None = None) -> int:
    """Largest clique grown greedily from each vertex of ``mask`` (always
    adding the candidate with the most candidate neighbors); a lower bound
    on the chromatic number.  The sweep stops as soon as a clique of
    ``enough`` vertices is found."""
    best = 0
    for seed in iter_bits(mask):
        size = 1
        cand = rows[seed] & mask
        while cand:
            u = max(iter_bits(cand), key=lambda w: (rows[w] & cand).bit_count())
            size += 1
            cand &= rows[u] & ~(1 << u)
        if size > best:
            best = size
            if best == enough:
                break
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

    The control pattern is checked first, with one bitmask per pattern
    color: it is proper iff no color class reaches into itself.  A proper
    pattern is a 4-coloring, so no clique has more than 4 vertices and the
    clique sweep stops once it finds 4; the pattern is then optimal and no
    search state is built.  Otherwise the search tries k from the clique
    bound up, and a proper pattern still stands in for the k = 4 search.

    A bipartite component needs no branch of its own: its first 2-coloring
    in vertex order gives its lowest position color 0, which fixes the
    rest, and the forced-color pruning of ``_k_coloring`` finds it without
    backtracking.
    """
    positions = list(iter_bits(comp))
    pattern = [_pattern_label(cells[p], CONTROL) for p in positions]
    classes = [0, 0, 0, 0]
    reach = [0, 0, 0, 0]
    for p, label in zip(positions, pattern):
        classes[label] |= 1 << p
        reach[label] |= rows[p]
    proper = not any(map(int.__and__, classes, reach))
    clique = _greedy_clique(rows, comp, 4 if proper else None)
    if not (proper and clique == 4):
        local = {p: r for r, p in enumerate(positions)}
        adj = [sum(1 << local[q] for q in iter_bits(rows[p] & comp)) for p in positions]
        for k in range(clique, 4) if proper else itertools.count(clique):
            labels = _k_coloring(adj, k)
            if labels is not None:
                return labels
    return _first_appearance(pattern)


def chromatic_coloring(
    rows: Sequence[int], cells: Sequence[CellIndex], vertex_cap: int = DEFAULT_VERTEX_CAP
) -> Coloring:
    """Proper coloring with exactly the chromatic number of colors.

    Each connected component, as ``two_coloring`` grows it, is colored on
    its own, with the first k-coloring in vertex order for the smallest k
    from its greedy clique up; on a bipartite component that is its BFS
    2-coloring.  Once 3 colors are ruled out, a component on which the
    control pattern is proper gets the pattern instead of a 4-coloring
    search; on metric-16 graphs that search can take seconds at 64 vertices.
    The pattern is checked before anything else: where it is proper, the
    greedy clique sweep stops at 4 (a proper 4-coloring bounds every clique
    by 4), and a component whose clique reaches 4 gets the pattern without a
    search, as every full window with N >= 2 does.  Deterministic for a
    given vertex order.  Graphs above ``vertex_cap`` vertices are refused;
    use data_graph_coloring or control_coloring for lattice graphs, or raise
    the cap explicitly if you can afford the search.  The cap bounds
    vertices, not time: below it, a graph denser than metric 16 can take
    seconds (up to 12 s measured on 55-vertex metric-28 graphs).
    """
    n = len(rows)
    if n > vertex_cap:
        raise SizeLimitError(
            f"{n} vertices exceeds the exact-solver cap of {vertex_cap}; "
            "use pattern_coloring or pass a larger vertex_cap"
        )
    # Each component numbers its colors by first appearance, so the merged
    # labels are numbered that way too.
    labels = [0] * n
    rest = (1 << n) - 1
    while rest:
        comp = two_coloring(rows, rest)[0]
        rest ^= comp
        for p, label in zip(iter_bits(comp), _component_labels(rows, comp, cells)):
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


def control_coloring(lattice: Lattice) -> Coloring:
    """The static control coloring of ``lattice.cells``: the metric-16
    graph colored exactly (``chromatic_coloring``) up to
    ``DEFAULT_VERTEX_CAP`` cells, and the closed-form control pattern,
    proper but not always minimal, above it."""
    if len(lattice) > DEFAULT_VERTEX_CAP:
        return pattern_coloring(lattice, CONTROL)
    return chromatic_coloring(interference_rows(lattice, CONTROL_REUSE_METRIC), lattice.cells)


def two_coloring(rows: Sequence[int], mask: int) -> tuple[int, list[int] | None]:
    """The component of the lowest position of ``mask`` in the graph it
    induces (``rows`` are adjacency bitmasks) and its BFS 2-coloring, the
    position masks [even layers, odd layers], or None if an edge joins two
    positions of one layer (an odd cycle; every edge joins a layer to
    itself or the next, so no other edge stays inside a class)."""
    # ``side`` gathers the layers of the current layer's parity, so the
    # current layer's rows meet it only inside that layer.
    first = mask & -mask
    mask ^= first
    layer = rows[first.bit_length() - 1] & mask
    side, other, clash = first, 0, 0
    while layer:
        mask ^= layer
        side, other = other | layer, side
        grown = 0
        while layer:
            low = layer & -layer
            layer ^= low
            grown |= rows[low.bit_length() - 1]
        clash |= grown & side
        layer = grown & mask
    if clash:
        return side | other, None
    return side | other, [side, other] if side & first else [other, side]


def data_pattern_classes(mask: int, cells: Sequence[CellIndex]) -> list[int]:
    """The data pattern on the cells at the positions of ``mask`` as color
    classes (chi <= 3), position masks numbered by first appearance."""
    classes: dict[int, int] = {}  # label -> positions, in order of first appearance
    for p in iter_bits(mask):
        label = _pattern_label(cells[p], DATA)
        classes[label] = classes.get(label, 0) | 1 << p
    return list(classes.values())


def data_graph_coloring(rows: Sequence[int], cells: Sequence[CellIndex]) -> Coloring:
    """Minimum coloring of a metric-12 interference graph of any size,
    without search: each component's ``two_coloring``, or, if one has an
    odd cycle, the data pattern on ``cells`` (chi <= 3)."""
    labels = [0] * len(rows)
    rest = (1 << len(labels)) - 1
    while rest:
        comp, classes = two_coloring(rows, rest)
        if classes is None:
            return Coloring(tuple(_first_appearance([_pattern_label(c, DATA) for c in cells])))
        rest ^= comp
        for p in iter_bits(classes[1]):
            labels[p] = 1
    return Coloring(tuple(labels))
