import itertools
import random
import time

import pytest
from conftest import graph_from_edges, lattice_graph
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_chromatic, components, twelve_cell_lattice, verify_coloring

from hexchan import coloring
from hexchan.coloring import (
    CONTROL,
    DATA,
    Coloring,
    _first_appearance,
    _k_coloring,
    _pattern_label,
    chromatic_coloring,
    control_coloring,
    data_graph_coloring,
    pattern_coloring,
    two_coloring,
)
from hexchan.errors import SizeLimitError
from hexchan.interference import interference_rows, iter_bits
from hexchan.lattice import (
    CONTROL_REUSE_METRIC,
    DATA_REUSE_METRIC,
    CellIndex,
    build_lattice,
    lattice_from_cells,
    lattice_metric,
)

C = CellIndex


def graph_on_indices(n, index_edges):
    """``(cells, rows)`` of a graph on n placeholder cells; vertex k is the
    cell (2k, 0)."""
    verts = [C(2 * k, 0) for k in range(n)]
    return graph_from_edges(verts, [(verts[a], verts[b]) for a, b in index_edges])


def complete_graph(n):
    return graph_on_indices(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def random_graph(rng, n, p):
    return graph_on_indices(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])


def cluster_graph():
    cells = [C(0, 0), C(0, 2), C(0, -2), C(1, 1), C(1, -1), C(-1, 1), C(-1, -1)]
    return lattice_graph(cells, DATA_REUSE_METRIC)


def test_complete_graph_needs_n_colors():
    for n in (1, 2, 3, 4, 6):
        cells, rows = complete_graph(n)
        assert chromatic_coloring(rows, cells).num_colors == n


def test_fixture_chromatic_numbers():
    lat = twelve_cell_lattice()
    assert chromatic_coloring(interference_rows(lat, CONTROL_REUSE_METRIC), lat.cells).num_colors == 4
    assert chromatic_coloring(interference_rows(lat, DATA_REUSE_METRIC), lat.cells).num_colors == 3


def test_cluster_graph_is_three_chromatic():
    cells, rows = cluster_graph()
    col = chromatic_coloring(rows, cells)
    assert col.num_colors == 3
    assert verify_coloring(rows, col)
    assert brute_force_chromatic(rows) == 3


def test_edgeless_graph_one_color():
    cells, rows = graph_on_indices(5, [])
    assert chromatic_coloring(rows, cells).num_colors == 1


def test_empty_graph_zero_colors():
    col = chromatic_coloring((), ())
    assert col.num_colors == 0
    assert col.labels == ()


def test_any_size_is_colored_and_the_search_budget_is_enforced(monkeypatch):
    # no vertex count is refused; only search work is bounded
    cells, rows = graph_on_indices(65, [])
    assert chromatic_coloring(rows, cells).num_colors == 1
    # the control pattern is improper on a K6, so past the budget nothing
    # stands in for the search
    monkeypatch.setattr(coloring, "SEARCH_BUDGET", 35)
    cells, rows = complete_graph(6)
    with pytest.raises(SizeLimitError):
        chromatic_coloring(rows, cells)


def test_canonical_color_numbering():
    cells, rows = complete_graph(3)
    # colors are numbered by first appearance in vertex order
    assert chromatic_coloring(rows, cells).labels == (0, 1, 2)


def test_determinism():
    rng = random.Random(7)
    cells, rows = random_graph(rng, 9, 0.5)
    assert chromatic_coloring(rows, cells) == chromatic_coloring(rows, cells)


def test_brute_force_known_values():
    assert brute_force_chromatic(complete_graph(4)[1]) == 4
    cycle6 = graph_on_indices(6, [(k, (k + 1) % 6) for k in range(6)])
    assert brute_force_chromatic(cycle6[1]) == 2
    cycle5 = graph_on_indices(5, [(k, (k + 1) % 5) for k in range(5)])
    assert brute_force_chromatic(cycle5[1]) == 3
    assert brute_force_chromatic(()) == 0


def test_solver_agrees_with_brute_force():
    rng = random.Random(20260809)
    for _ in range(200):
        cells, rows = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9))
        col = chromatic_coloring(rows, cells)
        assert verify_coloring(rows, col)
        assert col.num_colors == brute_force_chromatic(rows)


def first_coloring_by_enumeration(rows, k):
    """Lexicographically first proper coloring with colors 0..k-1 numbered by
    first appearance, by enumerating every label tuple in order."""
    n = len(rows)
    edges = [(p, q) for p in range(n) for q in range(p + 1, n) if rows[p] >> q & 1]
    for labels in itertools.product(range(k), repeat=n):
        if any(c > max(labels[:v], default=-1) + 1 for v, c in enumerate(labels)):
            continue
        if all(labels[a] != labels[b] for a, b in edges):
            return list(labels)
    return None


def test_solver_returns_first_coloring_in_vertex_order():
    # the search's prunings cut only dead branches, so on a connected
    # non-bipartite graph the result is the first chi-coloring
    rng = random.Random(31)
    checked = 0
    while checked < 60:
        cells, rows = random_graph(rng, rng.randint(3, 8), rng.uniform(0.3, 0.8))
        if len(components(rows, (1 << len(rows)) - 1)) != 1 or brute_force_chromatic(rows) < 3:
            continue
        col = chromatic_coloring(rows, cells)
        assert list(col.labels) == first_coloring_by_enumeration(rows, col.num_colors)
        checked += 1


def control_graph(cells):
    return lattice_graph(cells, CONTROL_REUSE_METRIC)


# A rhombus of four cells: every pair is at metric 4 or 12, a K4 of the
# metric-16 graph.
RHOMBUS = [C(0, 0), C(1, 1), C(0, 2), C(1, 3)]


def zigzag_tail(length):
    """A path of the metric-16 graph hanging off the rhombus at (1, 3):
    steps alternate (2, 0) and (1, 3), both at metric 12."""
    cells = []
    i, j = 1, 3
    for k in range(length):
        i, j = (i + 2, j) if k % 2 == 0 else (i + 1, j + 3)
        cells.append(C(i, j))
    return cells


def triangle_strip(length):
    # consecutive cells at metric 4, every other one at metric 12: a strip of
    # triangles with a single 3-coloring, which first-fit in lattice order
    # does not find without look-ahead
    return [C(k, k % 2) for k in range(length)]


# A 64-cell sparse list whose metric-16 graph is one K4-free component that
# still needs 4 colors: it holds an odd wheel, which proves it.
FOUR_CHROMATIC_WITHOUT_K4 = [
    (-12, -2), (-12, 2), (-11, -1), (-11, 5), (-10, 0), (-10, 4), (-10, 6), (-8, 2), (-8, 4),
    (-7, 3), (-7, 7), (-6, 6), (-6, 8), (-5, -3), (-5, -1), (-5, 1), (-5, 3), (-5, 5), (-4, -4),
    (-4, 4), (-3, 3), (-2, -2), (-2, 0), (-2, 4), (-2, 6), (-1, -1), (-1, 7), (0, -2), (0, 8),
    (1, -3), (1, 7), (2, -4), (2, -2), (3, -5), (3, 7), (4, 6), (5, -7), (5, -5), (5, -3), (5, -1),
    (5, 1), (5, 5), (7, -5), (7, -3), (7, -1), (7, 3), (8, -4), (8, 4), (9, -5), (9, 3), (9, 7),
    (10, -8), (10, -2), (10, 0), (10, 6), (11, -7), (11, -1), (11, 3), (12, -8), (12, -4), (12, 0),
    (12, 2), (12, 4), (12, 6),
]


@pytest.mark.parametrize(
    "cells, chi",
    [
        (RHOMBUS + [C(0, 8 + 4 * k) for k in range(60)], 4),
        (RHOMBUS + zigzag_tail(60), 4),
        (zigzag_tail(60) + [C(-1, 1), C(-2, 0), C(-2, 2), C(-3, 1)], 4),
        (triangle_strip(64), 3),
        ([C(i, j) for i, j in FOUR_CHROMATIC_WITHOUT_K4], 4),
    ],
    ids=["isolated-plus-k4", "k4-plus-zigzag", "zigzag-and-separate-k4", "triangle-strip", "four-chromatic-without-k4"],
)
def test_solver_is_fast_at_64_vertices(cells, chi):
    cells, rows = control_graph(cells)
    assert 60 <= len(rows) <= 64
    start = time.perf_counter()
    col = chromatic_coloring(rows, cells)
    assert time.perf_counter() - start < 1.0
    assert col.num_colors == chi
    assert verify_coloring(rows, col)


def test_bipartite_control_components_get_their_two_coloring():
    # a connected bipartite component gets its BFS 2-coloring with the
    # lowest position at 0, its only 2-coloring numbered by first appearance
    rng = random.Random(17)
    subsets = [
        rng.sample(build_lattice(n, 1.0).cells, rng.randint(30, 64)) for n in (6, 9) for _ in range(40)
    ]
    subsets.append([C(0, 4 * k) for k in range(64)])
    subsets.append([C(8 * k, 2 * s) for k in range(32) for s in range(2)])
    checked = set()
    for subset in subsets:
        cells, rows = control_graph(subset)
        col = chromatic_coloring(rows, cells)
        for comp in components(rows, (1 << len(rows)) - 1):
            # data_graph_coloring gives a bipartite graph of any metric its
            # BFS 2-coloring, the lowest position at 0; any other graph gets
            # the data pattern, which has 3 colors or is not proper here
            sub_cells = [cells[p] for p in iter_bits(comp)]
            edges = [(cells[p], cells[q]) for p in iter_bits(comp) for q in iter_bits(rows[p] & comp)]
            _, sub_rows = graph_from_edges(sub_cells, edges)
            bfs = data_graph_coloring(sub_rows, sub_cells)
            if bfs.num_colors > 2 or not verify_coloring(sub_rows, bfs):
                continue
            assert [col.labels[p] for p in iter_bits(comp)] == list(bfs.labels)
            checked.add(comp.bit_count())
    # singletons, pairs and larger trees or even cycles all occur
    assert {1, 2} < checked and max(checked) > 2


@pytest.mark.parametrize("threshold", [DATA_REUSE_METRIC, CONTROL_REUSE_METRIC])
def test_two_coloring_grows_and_colors_the_component_of_the_lowest_position(threshold):
    # random masks over random subsets of small windows; the component and
    # its odd cycles are checked against the oracles, which share no code
    # with two_coloring
    rng = random.Random(threshold)
    odd_seen = set()
    for _ in range(200):
        window = build_lattice(rng.randint(1, 3), 1.0)
        cells, rows = lattice_graph(rng.sample(window.cells, rng.randint(1, len(window))), threshold)
        mask = sum(1 << p for p in range(len(rows)) if rng.random() < 0.6) or 1 << rng.randrange(len(rows))
        low = (mask & -mask).bit_length() - 1
        comp, classes = two_coloring(rows, mask)
        assert comp == components(rows, mask)[0]
        positions = list(iter_bits(comp))
        edges = [(cells[p], cells[q]) for p in positions for q in iter_bits(rows[p] & comp) if p < q]
        odd = brute_force_chromatic(graph_from_edges([cells[p] for p in positions], edges)[1]) > 2
        assert (classes is None) == odd
        odd_seen.add(odd)
        if classes is not None:
            first, second = classes
            assert first | second == comp and not first & second
            assert first >> low & 1
            assert not any(rows[p] & side for side in classes for p in iter_bits(side))
    assert odd_seen == {False, True}


def has_k4(rows, comp):
    """Whether four pairwise adjacent positions of ``comp`` exist, by
    enumeration."""
    positions = [p for p in range(len(rows)) if comp >> p & 1]
    return any(
        all(rows[a] >> b & 1 for a, b in itertools.combinations(quad, 2))
        for quad in itertools.combinations(positions, 4)
        if all(rows[quad[0]] >> q & 1 for q in quad[1:])
    )


def test_four_chromatic_control_components_take_the_pattern():
    # a metric-16 component with a K4 needs 4 colors; it gets the control
    # pattern 2*(i mod 2) + ((j - i)/2 mod 2), numbered by first appearance
    rng = random.Random(5)
    window = build_lattice(6, 1.0)
    checked = 0
    for _ in range(20):
        cells, rows = control_graph(rng.sample(window.cells, 64))
        col = chromatic_coloring(rows, cells)
        for comp in components(rows, (1 << len(rows)) - 1):
            comp_cells = [cells[p] for p in iter_bits(comp)]
            if not has_k4(rows, comp):
                continue
            first = {}
            for c in comp_cells:
                first.setdefault(2 * (c.i % 2) + (c.j - c.i) // 2 % 2, len(first))
            assert [col.labels[p] for p in iter_bits(comp)] == [
                first[2 * (c.i % 2) + (c.j - c.i) // 2 % 2] for c in comp_cells
            ]
            checked += 1
    assert checked


def reference_component_labels(rows, comp, cells):
    """The search-first rule: the search from k = 1 up, without a budget,
    with the control pattern checked over every local edge when k reaches
    4."""
    positions = list(iter_bits(comp))
    local = {p: r for r, p in enumerate(positions)}
    adj = [sum(1 << local[q] for q in iter_bits(rows[p] & comp)) for p in positions]
    pattern = [_pattern_label(cells[p], CONTROL) for p in positions]
    for k in itertools.count(1):
        if k == 4 and all(pattern[v] != pattern[w] for v in range(len(adj)) for w in iter_bits(adj[v])):
            return _first_appearance(pattern)
        labels = _k_coloring(adj, k, [float("inf")])
        if labels is not None:
            return labels


def reference_chromatic_labels(rows, cells):
    labels = [0] * len(rows)
    for comp in components(rows, (1 << len(rows)) - 1):
        for p, label in zip(iter_bits(comp), reference_component_labels(rows, comp, cells)):
            labels[p] = label
    return tuple(labels)


@st.composite
def lattice_graphs(draw):
    """``(cells, rows)`` of the interference graph of a subset of a window
    N <= 5, at metric 12, 16 or 28.  At 28 the search runs up to 7 colors,
    and ruling out 6 on 40 or more cells can take seconds, so those subsets
    keep at most 25 cells."""
    window = build_lattice(draw(st.integers(0, 5)), 1.0)
    threshold = draw(st.sampled_from((DATA_REUSE_METRIC, CONTROL_REUSE_METRIC, 28)))
    if threshold < 28 and draw(st.booleans()):
        cells = list(window.cells)
    else:
        top = 25 if threshold == 28 else len(window.cells)
        cells = draw(st.lists(st.sampled_from(window.cells), min_size=1, max_size=top, unique=True))
    return lattice_graph(cells, threshold)


@st.composite
def cell_graphs(draw):
    """``(cells, rows)`` of a random graph on at most 12 cells of the N = 3
    window, edges drawn regardless of distance: the control pattern is often
    improper on it, and cliques of 5 or more occur."""
    cells = draw(st.lists(st.sampled_from(build_lattice(3, 1.0).cells), min_size=1, max_size=12, unique=True))
    pairs = [(a, b) for k, a in enumerate(cells) for b in cells[k + 1 :]]
    density = draw(st.sampled_from((0.3, 0.6, 0.9)))
    flags = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(cells, [pair for pair, flag in zip(pairs, flags) if flag < density])


@settings(max_examples=150, deadline=None)
@given(st.one_of(lattice_graphs(), cell_graphs()))
def test_pattern_first_gives_the_labels_of_the_search_first_rule(g):
    cells, rows = g
    assert chromatic_coloring(rows, cells).labels == reference_chromatic_labels(rows, cells)


def refuse_to_search(adj, k, budget):
    raise AssertionError(f"searched for a {k}-coloring of {len(adj)} vertices")


@pytest.mark.parametrize("n", range(2, 6))
def test_full_windows_take_the_pattern_without_a_search(monkeypatch, n):
    # cells (0, 0), (1, 1), (2, 0) and (1, -1) form a K4 from N = 2 on, and
    # the control pattern is proper on every metric-16 graph
    monkeypatch.setattr(coloring, "_k_coloring", refuse_to_search)
    lattice = build_lattice(n, 1.0)
    col = chromatic_coloring(interference_rows(lattice, CONTROL_REUSE_METRIC), lattice.cells)
    assert col == pattern_coloring(lattice, CONTROL)
    assert col.num_colors == 4


def counted_searches(monkeypatch):
    calls = []

    def counting(adj, k, budget):
        calls.append(k)
        return _k_coloring(adj, k, budget)

    monkeypatch.setattr(coloring, "_k_coloring", counting)
    return calls


def test_the_n1_window_still_searches(monkeypatch):
    # no cell's neighborhood holds an odd cycle, so the search starts at 3
    # and finds a 3-coloring, fewer colors than the pattern's 4
    calls = counted_searches(monkeypatch)
    lattice = build_lattice(1, 1.0)
    col = chromatic_coloring(interference_rows(lattice, CONTROL_REUSE_METRIC), lattice.cells)
    assert col.num_colors == 3
    assert calls == [3]


def test_a_graph_with_a_k5_gets_five_colors(monkeypatch):
    # a K5 vertex's neighborhood is a K4, not bipartite, so the search starts
    # at 4; the pattern has 4 colors, so it is improper on a K5 and the
    # search goes on to 5
    calls = counted_searches(monkeypatch)
    cells = build_lattice(2, 1.0).cells[:6]
    clique = [(a, b) for k, a in enumerate(cells[:5]) for b in cells[k + 1 : 5]]
    _, rows = graph_from_edges(cells, clique + [(cells[4], cells[5])])
    col = chromatic_coloring(rows, cells)
    assert col.num_colors == 5
    assert calls == [4, 5]


# (0, 0) and the induced 7-cycle of its control neighbors around it: an odd
# wheel, so 4 colors, though it holds no K4.
ODD_WHEEL = [C(-1, -3), C(1, -3), C(-2, 0), C(0, 0), C(2, 0), C(-1, 1), C(0, 2), C(1, 3)]


@pytest.mark.parametrize(
    "cells", [ODD_WHEEL, [C(i, j) for i, j in FOUR_CHROMATIC_WITHOUT_K4]], ids=["8-cell-wheel", "64-cell"]
)
def test_an_odd_wheel_takes_the_pattern_without_a_search(monkeypatch, cells):
    monkeypatch.setattr(coloring, "_k_coloring", refuse_to_search)
    cells, rows = control_graph(cells)
    assert not has_k4(rows, (1 << len(rows)) - 1)
    col = chromatic_coloring(rows, cells)
    assert col.num_colors == 4
    assert list(col.labels) == _first_appearance([_pattern_label(c, CONTROL) for c in cells])
    if len(rows) <= 10:
        assert brute_force_chromatic(rows) == 4


def test_a_66_cell_triangle_strip_gets_3_control_colors():
    # one K4-free component without an odd wheel: the search finds 3 colors
    lattice = lattice_from_cells(triangle_strip(66), 1.0)
    col = control_coloring(lattice, interference_rows(lattice, DATA_REUSE_METRIC))
    assert col.num_colors == 3
    assert verify_coloring(interference_rows(lattice, CONTROL_REUSE_METRIC), col)


def test_past_the_search_budget_a_lattice_component_takes_the_pattern(monkeypatch):
    # the 66-cell strip needs a search for its 3-coloring; a budget below
    # 66 * 66 refuses it, and the proper control pattern stands in
    monkeypatch.setattr(coloring, "SEARCH_BUDGET", 66 * 66 - 1)
    cells, rows = control_graph(triangle_strip(66))
    col = chromatic_coloring(rows, cells)
    assert col.num_colors == 4
    assert list(col.labels) == _first_appearance([_pattern_label(c, CONTROL) for c in cells])


def test_a_search_the_budget_cannot_finish_is_not_started(monkeypatch):
    # a search that finds a coloring of n vertices settles every one of
    # them, so it costs at least 3 n^2 units; 3 * 1183^2 exceeds the budget,
    # so the 1 183-cell strip takes the proper pattern with no search at all
    monkeypatch.setattr(coloring, "_k_coloring", refuse_to_search)
    cells, rows = control_graph(triangle_strip(1183))
    col = chromatic_coloring(rows, cells)
    assert list(col.labels) == _first_appearance([_pattern_label(c, CONTROL) for c in cells])


@pytest.mark.parametrize("budget, colors", [(3 * 66 * 66, 3), (3 * 66 * 66 - 1, 4)])
def test_no_search_that_could_finish_is_refused(monkeypatch, budget, colors):
    # the strip's search colors each cell once, so it costs exactly 3 n^2,
    # the bound below which a search is not started
    monkeypatch.setattr(coloring, "SEARCH_BUDGET", budget)
    cells, rows = control_graph(triangle_strip(66))
    assert chromatic_coloring(rows, cells).num_colors == colors


def test_a_search_not_started_leaves_the_budget_to_later_components():
    # the 1 183-cell strip comes first in lattice order and spends nothing,
    # so the far-away 66-cell strip is still searched and gets its 3 colors
    small = [C(k, 100 + k % 2) for k in range(66)]
    cells, rows = control_graph(triangle_strip(1183) + small)
    col = chromatic_coloring(rows, cells)
    alone_cells, alone_rows = control_graph(small)
    position = {cell: p for p, cell in enumerate(cells)}
    labels = [col.labels[position[cell]] for cell in alone_cells]
    assert labels == list(chromatic_coloring(alone_rows, alone_cells).labels)
    assert len(set(labels)) == 3 and col.num_colors == 4


def induced_rows(rows, comp):
    positions = [p for p in range(len(rows)) if comp >> p & 1]
    return tuple(sum(1 << r for r, q in enumerate(positions) if rows[p] >> q & 1) for p in positions)


@st.composite
def control_lattices(draw):
    """A full window N <= 9 or a random subset of one, so up to 181 cells."""
    window = build_lattice(draw(st.integers(0, 9)), 1.0)
    if draw(st.booleans()):
        return window
    size = draw(st.integers(1, len(window)))
    return lattice_from_cells(draw(st.permutations(window.cells))[:size], 1.0)


@settings(max_examples=80, deadline=None)
@given(control_lattices())
def test_control_coloring_gives_the_exact_labels_of_the_metric_16_graph(lattice):
    # whichever path control_coloring takes, its labels are those of the
    # per-component rule on the metric-16 rows, and every small component
    # gets exactly its chromatic number
    rows = interference_rows(lattice, CONTROL_REUSE_METRIC)
    col = control_coloring(lattice, interference_rows(lattice, DATA_REUSE_METRIC))
    assert col == chromatic_coloring(rows, lattice.cells)
    assert verify_coloring(rows, col) and col.num_colors <= 4
    for comp in components(rows, (1 << len(rows)) - 1):
        if comp.bit_count() <= 10:
            used = {col.labels[p] for p in iter_bits(comp)}
            assert len(used) == brute_force_chromatic(induced_rows(rows, comp))


def test_verify_coloring_rejects_conflicts():
    _, rows = complete_graph(2)
    bad = Coloring(labels=(0, 0))
    assert not verify_coloring(rows, bad)


@pytest.mark.parametrize("n", range(1, 7))
def test_pattern_colorings_proper_and_bounded(n):
    lat = build_lattice(n, 1.0)
    for kind, threshold, bound in ((CONTROL, CONTROL_REUSE_METRIC, 4), (DATA, DATA_REUSE_METRIC, 3)):
        col = pattern_coloring(lat, kind)
        assert col.num_colors <= bound
        assert verify_coloring(interference_rows(lat, threshold), col)


@pytest.mark.parametrize(
    "kind,threshold", [(CONTROL, CONTROL_REUSE_METRIC), (DATA, DATA_REUSE_METRIC)]
)
def test_pattern_same_color_pairs_at_reuse_distance(kind, threshold):
    # oracle: enumerate same-color pairs on the N=4 lattice and check the
    # smallest metric among them is exactly the reuse threshold
    lat = build_lattice(4, 1.0)
    col = pattern_coloring(lat, kind)
    labels = col.labels
    same = [
        lattice_metric(a, b)
        for k, a in enumerate(lat.cells)
        for m, b in enumerate(lat.cells[k + 1 :], k + 1)
        if labels[k] == labels[m]
    ]
    assert min(same) == threshold


def test_pattern_specific_cells():
    lat = build_lattice(6, 1.0)
    data = dict(zip(lat.cells, pattern_coloring(lat, DATA).labels))
    # metric((0,0),(0,6)) = 36 >= 12: same color is fine, and the pattern
    # does reuse it there
    assert data[C(0, 0)] == data[C(0, 6)]
    control = dict(zip(lat.cells, pattern_coloring(lat, CONTROL).labels))
    assert control[C(0, 0)] == control[C(0, 4)]
    assert lattice_metric(C(0, 0), C(0, 4)) == 16


def test_pattern_single_cell():
    lat = build_lattice(0, 1.0)
    assert pattern_coloring(lat, DATA).num_colors == 1
    assert pattern_coloring(lat, CONTROL).num_colors == 1


def test_pattern_rejects_unknown_kind():
    with pytest.raises(ValueError):
        pattern_coloring(build_lattice(1, 1.0), "beacon")

