import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import neighborhood_sets, scanned_edge_list_text

from hexchan.interference import build_interference_graph, component_masks, edge_list_text, iter_bits
from hexchan.lattice import (
    CONTROL_REUSE_METRIC,
    DATA_REUSE_METRIC,
    CellIndex,
    build_lattice,
    lattice_from_cells,
    lattice_metric,
)

C = CellIndex


def cluster_cells(i=0, j=0):
    """The 7-cell data-reuse cluster: a center and its six hex neighbors."""
    return [C(i, j), C(i, j + 2), C(i, j - 2), C(i + 1, j + 1), C(i + 1, j - 1), C(i - 1, j + 1), C(i - 1, j - 1)]


def neighbors(graph, v):
    """Cells sharing an edge with ``v``, read from the edge set."""
    return {b if a == v else a for a, b in graph.edges if v in (a, b)}


def test_single_cell_has_no_edges():
    g = build_interference_graph(lattice_from_cells([C(0, 0)], 1.0), CONTROL_REUSE_METRIC)
    assert len(g) == 1
    assert not g.edges


def test_no_edge_at_exact_reuse_distance():
    g = build_interference_graph(lattice_from_cells([C(0, 0), C(0, 4)], 1.0), CONTROL_REUSE_METRIC)
    assert lattice_metric(C(0, 0), C(0, 4)) == 16
    assert not g.edges


def test_cluster_graph_shape():
    # oracle: enumerate all 21 pairs of the 7-cell cluster with the metric
    cells = cluster_cells()
    g = build_interference_graph(lattice_from_cells(cells, 1.0), DATA_REUSE_METRIC)
    assert len(g.edges) == 12
    center = C(0, 0)
    assert len(neighbors(g, center)) == 6
    ring = [c for c in cells if c != center]
    for c in ring:
        assert len(neighbors(g, c)) == 3  # center + two ring neighbors
    # opposite ring cells sit at metric >= 12 and are non-adjacent
    assert C(0, -2) not in neighbors(g, C(0, 2))
    assert C(-1, -1) not in neighbors(g, C(1, 1))


def test_threshold_monotonicity():
    lat = build_lattice(3, 1.0)
    g12 = build_interference_graph(lat, DATA_REUSE_METRIC)
    g16 = build_interference_graph(lat, CONTROL_REUSE_METRIC)
    assert g12.edges <= g16.edges


def test_data_neighborhood_matches_g_set():
    lat = build_lattice(4, 1.0)
    g = build_interference_graph(lat, DATA_REUSE_METRIC)
    for cell in (C(0, 0), C(1, 1), C(-1, -1)):
        _, _, g_set = neighborhood_sets(lat, cell, DATA_REUSE_METRIC)
        assert neighbors(g, cell) == g_set - {cell}
        assert len(neighbors(g, cell)) == 6


def test_connected_components_split():
    lat = lattice_from_cells([C(0, 0), C(1, 1), C(4, 4), C(3, -3)], 1.0)
    g = build_interference_graph(lat, DATA_REUSE_METRIC)
    comps = [[g.vertices[p] for p in iter_bits(comp)] for comp in component_masks(g.rows, (1 << len(g)) - 1)]
    assert sorted(sorted((c.i, c.j) for c in comp) for comp in comps) == [
        [(0, 0), (1, 1)],
        [(3, -3)],
        [(4, 4)],
    ]


def test_edge_list_text_format():
    lattice = lattice_from_cells([C(0, 0), C(1, 1), C(2, 0)], 1.0)
    g = build_interference_graph(lattice, DATA_REUSE_METRIC)
    text = edge_list_text(lattice, DATA_REUSE_METRIC)
    lines = text.strip().splitlines()
    assert len(lines) == len(g.edges)
    for line in lines:
        i1, j1, i2, j2 = (int(tok) for tok in line.split())
        assert lattice_metric(C(i1, j1), C(i2, j2)) < DATA_REUSE_METRIC


@pytest.mark.parametrize("threshold", [1, 4, 12, 16, 28, 49])
def test_offset_build_matches_pair_scan(threshold):
    rng = random.Random(threshold)
    lat = build_lattice(5, 1.0)
    cells = rng.sample(lat.cells, 40)
    g = build_interference_graph(lattice_from_cells(cells, 1.0), threshold)
    scanned = {
        frozenset((a, b)) for k, a in enumerate(cells) for b in cells[k + 1 :] if lattice_metric(a, b) < threshold
    }
    assert {frozenset(e) for e in g.edges} == scanned
    assert g.vertices == tuple(c for c in lat.cells if c in set(cells))


@st.composite
def sparse_cell_lists(draw):
    """Up to 120 parity-valid cells, drawn in a box whose half-width sets
    how sparse they are: from a packed block to mostly isolated cells."""
    half = draw(st.integers(1, 24))
    size = draw(st.integers(0, 120))
    coords = st.tuples(st.integers(-half, half), st.integers(-half, half))
    return [C(i, 2 * h + i % 2) for i, h in draw(st.lists(coords, min_size=size, max_size=size))]


@settings(max_examples=150, deadline=None)
@given(sparse_cell_lists(), st.sampled_from([1, 4, 12, 16, 28, 49]))
def test_edge_list_text_matches_the_pair_scan(cells, threshold):
    # Byte equality, so a cell's later neighbors must come in position order
    # and each edge once.
    lattice = lattice_from_cells(cells, 1.0)
    assert edge_list_text(lattice, threshold) == scanned_edge_list_text(lattice, threshold)


@pytest.mark.parametrize("threshold", [0, -12])
def test_edge_list_text_rejects_a_threshold_below_one(threshold):
    with pytest.raises(ValueError, match="metric_threshold must be positive"):
        edge_list_text(build_lattice(1, 1.0), threshold)
