import random

import pytest

from hexchan.coloring import (
    CONTROL,
    DATA,
    brute_force_chromatic,
    chromatic_coloring,
    clique_lower_bound,
    coloring_csv,
    pattern_coloring,
    verify_coloring,
)
from hexchan.errors import IncompleteColoringError, SizeLimitError
from hexchan.interference import InterferenceGraph, build_interference_graph
from hexchan.lattice import (
    CONTROL_REUSE_METRIC,
    DATA_REUSE_METRIC,
    CellIndex,
    build_lattice,
    lattice_metric,
    twelve_cell_lattice,
)

C = CellIndex


def graph_on_indices(n, index_edges):
    """Graph on n placeholder cells; vertex k is the cell (2k, 0)."""
    verts = tuple(C(2 * k, 0) for k in range(n))
    edges = frozenset((verts[a], verts[b]) for a, b in index_edges)
    return InterferenceGraph(vertices=verts, edges=edges)


def complete_graph(n):
    return graph_on_indices(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def random_graph(rng, n, p):
    return graph_on_indices(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])


def cluster_graph():
    lat = build_lattice(3, 1.0)
    cells = [C(0, 0), C(0, 2), C(0, -2), C(1, 1), C(1, -1), C(-1, 1), C(-1, -1)]
    return build_interference_graph(lat, cells, DATA_REUSE_METRIC)


def test_complete_graph_needs_n_colors():
    for n in (1, 2, 3, 4, 6):
        col = chromatic_coloring(complete_graph(n))
        assert col.num_colors == n


def test_fixture_chromatic_numbers():
    lat = twelve_cell_lattice()
    g16 = build_interference_graph(lat, None, CONTROL_REUSE_METRIC)
    g12 = build_interference_graph(lat, None, DATA_REUSE_METRIC)
    assert chromatic_coloring(g16).num_colors == 4
    assert chromatic_coloring(g12).num_colors == 3


def test_cluster_graph_is_three_chromatic():
    g = cluster_graph()
    col = chromatic_coloring(g)
    assert col.num_colors == 3
    assert verify_coloring(g, col)
    assert brute_force_chromatic(g) == 3


def test_edgeless_graph_one_color():
    col = chromatic_coloring(graph_on_indices(5, []))
    assert col.num_colors == 1


def test_empty_graph_zero_colors():
    col = chromatic_coloring(graph_on_indices(0, []))
    assert col.num_colors == 0
    assert col.assignment == {}


def test_vertex_cap_enforced():
    with pytest.raises(SizeLimitError):
        chromatic_coloring(graph_on_indices(65, []), vertex_cap=64)
    # raising the cap lets the same graph through
    assert chromatic_coloring(graph_on_indices(65, []), vertex_cap=70).num_colors == 1


def test_canonical_color_numbering():
    g = complete_graph(3)
    col = chromatic_coloring(g)
    # colors are numbered by first appearance in vertex order
    assert [col.assignment[v] for v in g.vertices] == [0, 1, 2]


def test_determinism():
    rng = random.Random(7)
    g = random_graph(rng, 9, 0.5)
    assert chromatic_coloring(g) == chromatic_coloring(g)


def test_brute_force_known_values():
    assert brute_force_chromatic(complete_graph(4)) == 4
    cycle6 = graph_on_indices(6, [(k, (k + 1) % 6) for k in range(6)])
    assert brute_force_chromatic(cycle6) == 2
    cycle5 = graph_on_indices(5, [(k, (k + 1) % 5) for k in range(5)])
    assert brute_force_chromatic(cycle5) == 3
    assert brute_force_chromatic(graph_on_indices(0, [])) == 0


def test_brute_force_size_limit():
    with pytest.raises(SizeLimitError):
        brute_force_chromatic(graph_on_indices(11, []))


def test_solver_agrees_with_brute_force():
    rng = random.Random(20260809)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9))
        col = chromatic_coloring(g)
        assert verify_coloring(g, col)
        assert col.num_colors == brute_force_chromatic(g)


def test_clique_bound_never_exceeds_chromatic():
    rng = random.Random(99)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), 0.5)
        assert clique_lower_bound(g) <= chromatic_coloring(g).num_colors


def test_verify_coloring_rejects_conflicts():
    g = complete_graph(2)
    from hexchan.coloring import Coloring

    bad = Coloring(assignment={v: 0 for v in g.vertices}, num_colors=1)
    assert not verify_coloring(g, bad)


def test_verify_coloring_missing_vertex():
    g = complete_graph(2)
    from hexchan.coloring import Coloring

    partial = Coloring(assignment={g.vertices[0]: 0}, num_colors=1)
    with pytest.raises(IncompleteColoringError):
        verify_coloring(g, partial)


@pytest.mark.parametrize("n", range(1, 7))
def test_pattern_colorings_proper_and_bounded(n):
    lat = build_lattice(n, 1.0)
    for kind, threshold, bound in ((CONTROL, CONTROL_REUSE_METRIC, 4), (DATA, DATA_REUSE_METRIC, 3)):
        col = pattern_coloring(lat, kind)
        assert col.num_colors <= bound
        g = build_interference_graph(lat, None, threshold)
        assert verify_coloring(g, col)


@pytest.mark.parametrize(
    "kind,threshold", [(CONTROL, CONTROL_REUSE_METRIC), (DATA, DATA_REUSE_METRIC)]
)
def test_pattern_same_color_pairs_at_reuse_distance(kind, threshold):
    # oracle: enumerate same-color pairs on the N=4 lattice and check the
    # smallest metric among them is exactly the reuse threshold
    lat = build_lattice(4, 1.0)
    col = pattern_coloring(lat, kind)
    same = [
        lattice_metric(a, b)
        for k, a in enumerate(lat.cells)
        for b in lat.cells[k + 1 :]
        if col.assignment[a] == col.assignment[b]
    ]
    assert min(same) == threshold


def test_pattern_specific_cells():
    lat = build_lattice(6, 1.0)
    col = pattern_coloring(lat, DATA)
    # metric((0,0),(0,6)) = 36 >= 12: same color is fine, and the pattern
    # does reuse it there
    assert col.assignment[C(0, 0)] == col.assignment[C(0, 6)]
    control = pattern_coloring(lat, CONTROL)
    assert control.assignment[C(0, 0)] == control.assignment[C(0, 4)]
    assert lattice_metric(C(0, 0), C(0, 4)) == 16


def test_pattern_single_cell():
    lat = build_lattice(0, 1.0)
    assert pattern_coloring(lat, DATA).num_colors == 1
    assert pattern_coloring(lat, CONTROL).num_colors == 1


def test_pattern_rejects_unknown_kind():
    with pytest.raises(ValueError):
        pattern_coloring(build_lattice(1, 1.0), "beacon")


def test_coloring_csv_format():
    g = cluster_graph()
    text = coloring_csv(chromatic_coloring(g))
    lines = text.strip().splitlines()
    assert lines[0] == "i,j,color"
    assert len(lines) == 8

