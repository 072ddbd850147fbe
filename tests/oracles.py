"""Test oracles and fixtures, kept apart from the code they check.

They read adjacency from ``graph.rows`` or from ``lattice_metric`` alone.
None of them calls a graph builder or a coloring or allocation function
of ``hexchan``, so they share no code with what they check.
"""

import itertools
import math

from hexchan import CellIndex, lattice_from_cells, lattice_metric


def twelve_cell_lattice(radius_r=1.0, origin=(0.0, 0.0)):
    """Canonical 12-cell deployment: a 3-column by 4-row parity-valid block,
    the cells of ``configs/reference-12pan.json``."""
    cells = [CellIndex(i, j) for i in (0, 1, 2) for j in range(i % 2, 8, 2)]
    return lattice_from_cells(cells, radius_r=radius_r, origin=origin)


def distance(lattice, a, b):
    """Euclidean center distance, R * sqrt(3 * metric) / 2."""
    lattice.require(a)
    lattice.require(b)
    return lattice.radius_r * math.sqrt(3.0 * lattice_metric(a, b)) / 2.0


def neighborhood_sets(lattice, c, metric_threshold):
    """``(E, F, G)``: the lattice cells strictly beyond, exactly at and
    strictly inside ``metric_threshold`` of ``c``.  The three sets
    partition the lattice; G holds ``c`` itself when the threshold is
    positive.  Thresholds 16 and 12 give the control and data reuse
    neighborhoods."""
    lattice.require(c)
    e, f, g = set(), set(), set()
    for other in lattice.cells:
        m = lattice_metric(c, other)
        (e if m > metric_threshold else f if m == metric_threshold else g).add(other)
    return frozenset(e), frozenset(f), frozenset(g)


def boundary_f_offsets(metric_threshold):
    """All parity-valid (di, dj) displacements at exactly the given metric,
    sorted, by enumeration over the window that holds them."""
    bound = math.isqrt(metric_threshold)
    origin = CellIndex(0, 0)
    return tuple(
        (di, dj)
        for di in range(-bound, bound + 1)
        for dj in range(-bound, bound + 1)
        if (di + dj) % 2 == 0 and lattice_metric(CellIndex(di, dj), origin) == metric_threshold
    )


def scanned_edge_list_text(lattice, metric_threshold):
    """The ``i1 j1 i2 j2`` edge-list text of ``lattice`` by a scan of every
    pair p < q of its cells in lattice order: a line per pair closer than
    ``metric_threshold``, ordered by p, then q."""
    cells = lattice.cells
    lines = [
        f"{a.i} {a.j} {b.i} {b.j}"
        for p, a in enumerate(cells)
        for b in cells[p + 1 :]
        if lattice_metric(a, b) < metric_threshold
    ]
    return "".join(line + "\n" for line in lines)


def verify_coloring(graph, coloring):
    """True iff no two adjacent vertices share a label."""
    labels = coloring.labels
    n = len(graph.rows)
    return all(labels[p] != labels[q] for p in range(n) for q in range(n) if graph.rows[p] >> q & 1)


def brute_force_chromatic(graph):
    """Exact chromatic number by exhaustive k-coloring search, k = 0, 1, ...
    Exponential: for graphs of a dozen vertices or fewer."""
    n = len(graph.rows)
    earlier = [[q for q in range(p) if graph.rows[p] >> q & 1] for p in range(n)]

    def colorable(k):
        colors = [-1] * n

        def extend(v):
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

    return next(k for k in itertools.count() if colorable(k))


def is_active(config, cycle, sd_min):
    """Whether the PAN's active period covers elementary cycle ``cycle``:
    the cycle starts at ``cycle * sd_min``, inside [phase, phase + SD)
    modulo BI."""
    return (cycle * sd_min - config.phase) % config.bi < config.sd
