"""Vertex coloring: exact minimum coloring and closed-form periodic colorings.

A graph is its adjacency rows (``interference_rows``) on the cells they
index.  Every interference graph here needs few colors: the data pattern
colors any metric-12 graph with 3 and the control pattern any metric-16
graph with 4.  Metric-12 graphs are colored without search by
``data_graph_coloring``.  ``chromatic_coloring`` colors any graph of any
size exactly, one connected component at a time:

- a bipartite component gets its 2-coloring;
- a component with a vertex whose neighborhood is not bipartite (a K4 or an
  odd wheel) needs 4 colors, and takes the control pattern, with no search,
  where the pattern is proper (any metric-16 graph);
- any other gets the first k-coloring in vertex order for the smallest k
  from 3 up, and a proper pattern stands in for the k = 4 search.

The search is bounded by ``SEARCH_BUDGET`` units of work per call, not by
time.  Past it a component takes the pattern where the pattern is proper,
and otherwise ``SizeLimitError`` is raised.  ``control_coloring``, the
static control rule, colors the metric-16 graph that way, or takes the
pattern outright where the metric-12 graph alone proves it exact.

``two_coloring`` is the one component walk: it grows the component of a
mask's lowest position by BFS layers, which are also its 2-coloring.
``data_graph_coloring``, ``chromatic_coloring`` and the dynamic allocation
step through components with it, and the odd-wheel scan through each
vertex's neighborhood.

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

# Work bound of the exact search in one chromatic_coloring call, in units of
# one vertex pair or one domain entry: a searched component of n vertices
# costs n * n for its local adjacency, each k-coloring search of it n * n for
# its boundary lists and n per _settle call for its domain copy.  So the
# live domain lists never hold more entries than this.
SEARCH_BUDGET = 1 << 22

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


def _spend(budget: list[int], units: int) -> None:
    """Take ``units`` from the work left in ``budget[0]``; SizeLimitError
    once it runs out."""
    budget[0] -= units
    if budget[0] < 0:
        raise SizeLimitError(f"the exact coloring search ran past its budget of {SEARCH_BUDGET} units")


def _k_coloring(adj: list[int], k: int, budget: list[int]) -> list[int] | None:
    """First proper k-coloring in vertex order, or None; each step is paid
    from ``budget`` (``_spend``).

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
    _spend(budget, n * n)
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
            _spend(budget, n)
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


def _component_labels(rows: Sequence[int], comp: int, cells: Sequence[CellIndex], budget: list[int]) -> list[int]:
    """Minimum coloring, within the budget, of the connected non-bipartite
    component ``comp``, as labels of its positions in ascending order.

    The control pattern is checked with one bitmask per pattern color: it
    is proper iff no color class reaches into itself.  A vertex whose
    neighborhood is not bipartite (a K4, an odd wheel) proves that 3
    colors do not do, so the search starts at 4; where the pattern is
    proper too, it is optimal and no search state is built.  Otherwise the
    search tries k from there up, and a proper pattern stands in for the
    k = 4 search and past the budget.
    """
    positions = list(iter_bits(comp))
    pattern = [_pattern_label(cells[p], CONTROL) for p in positions]
    classes = [0, 0, 0, 0]
    reach = [0, 0, 0, 0]
    for p, label in zip(positions, pattern):
        classes[label] |= 1 << p
        reach[label] |= rows[p]
    proper = not any(map(int.__and__, classes, reach))
    first = 4 if any(_odd_neighborhood(rows, rows[p]) for p in positions) else 3
    if not (proper and first == 4):
        try:
            _spend(budget, len(positions) ** 2)
            local = {p: r for r, p in enumerate(positions)}
            adj = [sum(1 << local[q] for q in iter_bits(rows[p] & comp)) for p in positions]
            for k in range(first, 4) if proper else itertools.count(first):
                labels = _k_coloring(adj, k, budget)
                if labels is not None:
                    return labels
        except SizeLimitError:
            if not proper:
                raise
    return _first_appearance(pattern)


def _odd_neighborhood(rows: Sequence[int], around: int) -> bool:
    """Whether the graph the positions of ``around`` induce has an odd cycle."""
    while around:
        part, classes = two_coloring(rows, around)
        if classes is None:
            return True
        around ^= part
    return False


def chromatic_coloring(rows: Sequence[int], cells: Sequence[CellIndex]) -> Coloring:
    """Proper coloring with the chromatic number of colors, within the search budget.

    Each connected component, as ``two_coloring`` grows it, is colored on
    its own: a bipartite one with its 2-coloring, the lowest position at 0,
    any other by ``_component_labels``.  Deterministic for a given vertex
    order.  Past ``SEARCH_BUDGET`` units of search work a component takes
    the control pattern where it is proper, which colors any metric-16
    graph with 4 colors but not always with the fewest; a graph on which it
    is improper raises SizeLimitError.
    """
    # Each component numbers its colors by first appearance, so the merged
    # labels are numbered that way too.
    labels = [0] * len(rows)
    rest = (1 << len(rows)) - 1
    budget = [SEARCH_BUDGET]
    while rest:
        comp, classes = two_coloring(rows, rest)
        rest ^= comp
        if classes is not None:
            for p in iter_bits(classes[1]):
                labels[p] = 1
            continue
        for p, label in zip(iter_bits(comp), _component_labels(rows, comp, cells, budget)):
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


def control_coloring(lattice: Lattice, data_rows: Sequence[int]) -> Coloring:
    """The static control coloring of ``lattice.cells``: the metric-16
    graph colored exactly (``chromatic_coloring``), given the metric-12
    rows ``data_rows``.

    Data edges are control edges, and the tips of a diamond (two data
    triangles on one edge) are at metric 12, so a diamond is a K4 of the
    metric-16 graph.  If the data graph is connected and holds one, the
    metric-16 graph is one component that takes the control pattern, so
    the pattern is returned without building the metric-16 rows.
    """
    everything = (1 << len(data_rows)) - 1
    diamond = any((row & data_rows[q]).bit_count() > 1 for row in data_rows for q in iter_bits(row))
    if diamond and two_coloring(data_rows, everything)[0] == everything:
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
