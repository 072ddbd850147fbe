import pytest
from conftest import graph_from_edges
from oracles import brute_force_chromatic, edge_set, twelve_cell_lattice

from hexchan import static_alloc
from hexchan import coloring
from hexchan.coloring import data_graph_coloring, pattern_coloring
from hexchan.config import load_config
from hexchan.errors import InsufficientSpectrumError
from hexchan.interference import interference_rows
from hexchan.lattice import (
    CONTROL_REUSE_METRIC,
    DATA_REUSE_METRIC,
    CellIndex,
    build_lattice,
    lattice_from_cells,
    lattice_metric,
)
from hexchan.spectrum import (
    EUROPE,
    JAPAN,
    US,
    LogicalChannel,
    RegulatoryDomain,
    channel_plan,
    default_domain,
)
from hexchan.static_alloc import allocate_static, static_allocation_csv

C = CellIndex
LC = LogicalChannel


@pytest.fixture
def europe_plan():
    return channel_plan(default_domain(EUROPE))


def control_by_cell(lat, plan):
    """The control channel ``allocate_static`` gives each cell, or None
    when the plan has too few control channels."""
    control = allocate_static(lat, plan).control
    return None if control is None else dict(zip(lat.cells, control))


def test_control_on_fixture_uses_all_four_channels(europe_plan):
    lat = twelve_cell_lattice()
    control = control_by_cell(lat, europe_plan)
    assert set(control.values()) == europe_plan.control_set
    for a in lat.cells:
        for b in lat.cells:
            if a != b and lattice_metric(a, b) < CONTROL_REUSE_METRIC:
                assert control[a] != control[b]


def test_control_single_cell(europe_plan):
    lat = build_lattice(0, 1.0)
    control = control_by_cell(lat, europe_plan)
    assert len(set(control.values())) == 1


def test_control_two_adjacent_cells(europe_plan):
    lat = lattice_from_cells([C(0, 0), C(1, 1)], 1.0)
    control = control_by_cell(lat, europe_plan)
    assert control[C(0, 0)] != control[C(1, 1)]


def test_control_insufficient_spectrum():
    lat = twelve_cell_lattice()
    domain = RegulatoryDomain("Tiny", frozenset({LC(4, 7), LC(4, 8), LC(0, 1), LC(1, 1), LC(2, 1), LC(3, 2)}))
    plan = channel_plan(domain)
    assert len(plan.control_set) == 2  # fixture needs 4
    assert control_by_cell(lat, plan) is None
    assert allocate_static(lat, plan).chi_control == 4


def test_static_data_fixture_europe(europe_plan):
    lat = twelve_cell_lattice()
    alloc = allocate_static(lat, europe_plan)
    assert alloc.k_static == 4
    assert len(alloc.data_groups) == len(lat)
    assert all(len(g) == 4 for g in alloc.data_groups)
    assert alloc.chi_data == 3
    assert len(alloc.unassigned) == 2


def test_static_data_k_by_domain():
    lat = twelve_cell_lattice()
    assert allocate_static(lat, channel_plan(default_domain(JAPAN))).k_static == 6
    assert allocate_static(lat, channel_plan(default_domain(US))).k_static == 8
    assert allocate_static(lat, channel_plan(default_domain(US), us_data_card=28)).k_static == 9


def test_static_data_single_cell(europe_plan):
    lat = build_lattice(0, 1.0)
    alloc = allocate_static(lat, europe_plan)
    assert alloc.k_static == 14
    assert set(alloc.data_groups[lat.cells.index(C(0, 0))]) == europe_plan.data_set


def test_static_data_insufficient_spectrum():
    lat = twelve_cell_lattice()
    domain = RegulatoryDomain("Tiny", frozenset({LC(4, 7), LC(4, 8), LC(7, 7), LC(7, 8), LC(0, 1), LC(1, 1)}))
    plan = channel_plan(domain)
    assert len(plan.data_set) == 2  # chi is 3, so no full group fits
    with pytest.raises(InsufficientSpectrumError):
        allocate_static(lat, plan)


def test_reuse_happens_at_exact_reuse_distance(europe_plan):
    # some pair at metric exactly 16 must share a control channel on N >= 4
    lat = build_lattice(4, 1.0)
    control = control_by_cell(lat, europe_plan)
    shared = [
        (a, b)
        for k, a in enumerate(lat.cells)
        for b in lat.cells[k + 1 :]
        if control[a] == control[b] and lattice_metric(a, b) == CONTROL_REUSE_METRIC
    ]
    assert shared


def test_disjointness_on_interference_edges(europe_plan):
    lat = build_lattice(3, 1.0)
    alloc = allocate_static(lat, europe_plan)
    control = dict(zip(lat.cells, alloc.control))
    data_groups = dict(zip(lat.cells, alloc.data_groups))
    for a, b in edge_set(interference_rows(lat, CONTROL_REUSE_METRIC), lat.cells):
        assert control[a] != control[b]
    for a, b in edge_set(interference_rows(lat, DATA_REUSE_METRIC), lat.cells):
        assert not (set(data_groups[a]) & set(data_groups[b]))


@pytest.mark.parametrize("name", [US, EUROPE, JAPAN])
def test_channel_accounting(name):
    lat = twelve_cell_lattice()
    plan = channel_plan(default_domain(name))
    alloc = allocate_static(lat, plan)
    assert alloc.k_static * alloc.chi_data + len(alloc.unassigned) == len(plan.data_set)
    # control channels never leak into data groups
    for group in alloc.data_groups:
        assert not (set(group) & plan.control_set)


def test_large_lattice_uses_pattern(europe_plan):
    # the N = 6 window (85 cells) takes the control pattern without building
    # metric-16 rows; the allocation must still be proper
    lat = build_lattice(6, 1.0)
    alloc = allocate_static(lat, europe_plan)
    assert alloc.chi_control <= 4
    assert alloc.chi_data <= 3
    control = dict(zip(lat.cells, alloc.control))
    for a, b in edge_set(interference_rows(lat, CONTROL_REUSE_METRIC), lat.cells):
        assert control[a] != control[b]


def test_tolerant_static_when_control_set_too_small():
    # Japan's default table leaves 2 control channels, fewer than the 4
    # a dense network needs; the data side must still come out
    lat = twelve_cell_lattice()
    plan = channel_plan(default_domain(JAPAN))
    assert len(plan.control_set) == 2
    alloc = allocate_static(lat, plan)
    assert alloc.control is None
    assert alloc.chi_control == 4
    assert alloc.k_static == 6
    text = static_allocation_csv(lat, alloc)
    assert ",,," in text.splitlines()[1] or text.splitlines()[1].split(",")[2] == ""


def test_static_csv_round_trip(europe_plan):
    lat = twelve_cell_lattice()
    alloc = allocate_static(lat, europe_plan)
    text = static_allocation_csv(lat, alloc)
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["i", "j", "control_phy", "control_code"]
    assert len(header) == 4 + alloc.k_static
    assert len(lines) == 1 + len(lat)
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(header)


def refuse_to_color(rows, cells):
    raise AssertionError(f"colored a {len(rows)}-vertex graph by search")


def test_allocate_static_solves_each_lattice_coloring_once(monkeypatch, reference_config_path):
    cfg = load_config(reference_config_path)
    colored = []

    def counting(solve):
        def wrapped(rows, *args, **kwargs):
            colored.append((solve.__name__, len(rows)))
            return solve(rows, *args, **kwargs)

        return wrapped

    # the fixture's metric-12 graph is connected and holds a diamond, so
    # control_coloring takes the control pattern and no exact search runs
    monkeypatch.setattr(coloring, "pattern_coloring", counting(pattern_coloring))
    monkeypatch.setattr(coloring, "chromatic_coloring", refuse_to_color)
    monkeypatch.setattr(static_alloc, "data_graph_coloring", counting(data_graph_coloring))
    alloc = allocate_static(cfg.lattice, cfg.plan())
    assert colored == [("pattern_coloring", 12), ("data_graph_coloring", 12)]
    assert (alloc.chi_control, alloc.chi_data) == (4, 3)


def spaced_line(count):
    # (0, 4k): neighbors sit at metric exactly 16, so neither graph has an edge
    return [C(0, 4 * k) for k in range(count)]


def spaced_clusters(count):
    """Isolated cells, pairs, triangles and rhombi 4 columns apart, cycling
    so that components of every data chromatic number 1..3 and control
    chromatic number 1..4 occur; ``count`` cells in total."""
    shapes = [[(0, 0)], [(0, 0), (1, 1)], [(0, 0), (1, 1), (0, 2)], [(0, 0), (1, 1), (0, 2), (1, 3)]]
    cells = []
    for k in range(count):
        for di, dj in shapes[k % len(shapes)]:
            cells.append(C(4 * k + di, dj))
            if len(cells) == count:
                return cells
    return cells


def spaced_paths(count):
    """3-cell paths (8k, 0), (8k + 2, 0), (8k + 3, 1) of the metric-16 graph,
    out of reach of each other; ``count`` cells in total."""
    return [C(8 * k + di, dj) for k in range(count) for di, dj in ((0, 0), (2, 0), (3, 1))][:count]


def per_component_chi(cells, threshold):
    """Largest chromatic number over the components of the metric graph,
    found by union of pairs and brute force on each (tiny) component."""
    parent = {c: c for c in cells}

    def root(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for k, a in enumerate(cells):
        for b in cells[k + 1 :]:
            if lattice_metric(a, b) < threshold:
                parent[root(a)] = root(b)
    components = {}
    for c in cells:
        components.setdefault(root(c), []).append(c)
    chi = 0
    for comp in components.values():
        edges = [(a, b) for k, a in enumerate(comp) for b in comp[k + 1 :] if lattice_metric(a, b) < threshold]
        chi = max(chi, brute_force_chromatic(graph_from_edges(comp, edges)[1]))
    return chi


@pytest.mark.parametrize("count", [60, 64, 65, 80])
@pytest.mark.parametrize("layout", [spaced_line, spaced_clusters, spaced_paths])
@pytest.mark.parametrize("domain", [US, JAPAN])
def test_sparse_static_has_no_size_cliff(layout, count, domain):
    cells = layout(count)
    lat = lattice_from_cells(cells, 1.0)
    plan = channel_plan(default_domain(domain))
    alloc = allocate_static(lat, plan)
    chi_data = per_component_chi(cells, DATA_REUSE_METRIC)
    assert alloc.chi_data == chi_data
    assert alloc.k_static == len(plan.data_set) // chi_data
    assert alloc.chi_control == per_component_chi(cells, CONTROL_REUSE_METRIC)
    data_groups = dict(zip(lat.cells, alloc.data_groups))
    for a, b in edge_set(interference_rows(lat, DATA_REUSE_METRIC), lat.cells):
        assert not set(data_groups[a]) & set(data_groups[b])


def test_sparse_65_cell_line_gets_whole_data_set():
    alloc = allocate_static(lattice_from_cells(spaced_line(65), 1.0), channel_plan(default_domain(US)))
    assert (alloc.chi_control, alloc.chi_data, alloc.k_static) == (1, 1, 24)
