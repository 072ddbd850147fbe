import pytest

from hexchan import static_alloc
from hexchan.coloring import chromatic_coloring
from hexchan.config import load_config
from hexchan.errors import InsufficientSpectrumError
from hexchan.interference import build_interference_graph
from hexchan.lattice import (
    CONTROL_REUSE_METRIC,
    DATA_REUSE_METRIC,
    CellIndex,
    build_lattice,
    lattice_from_cells,
    lattice_metric,
    twelve_cell_lattice,
)
from hexchan.spectrum import (
    EUROPE,
    JAPAN,
    US,
    RegulatoryDomain,
    channel_plan,
    channels_from_pairs,
    default_domain,
)
from hexchan.static_alloc import (
    allocate_control,
    allocate_static,
    allocate_static_data,
    static_allocation_csv,
)

C = CellIndex


@pytest.fixture
def europe_plan():
    return channel_plan(default_domain(EUROPE))


def test_control_on_fixture_uses_all_four_channels(europe_plan):
    lat = twelve_cell_lattice()
    control = allocate_control(lat, europe_plan)
    assert set(control.values()) == europe_plan.control_set
    for a in lat.cells:
        for b in lat.cells:
            if a != b and lattice_metric(a, b) < CONTROL_REUSE_METRIC:
                assert control[a] != control[b]


def test_control_single_cell(europe_plan):
    lat = build_lattice(0, 1.0)
    control = allocate_control(lat, europe_plan)
    assert len(set(control.values())) == 1


def test_control_two_adjacent_cells(europe_plan):
    lat = lattice_from_cells([C(0, 0), C(1, 1)], 1.0)
    control = allocate_control(lat, europe_plan)
    assert control[C(0, 0)] != control[C(1, 1)]


def test_control_insufficient_spectrum():
    lat = twelve_cell_lattice()
    domain = RegulatoryDomain("Tiny", channels_from_pairs([(4, 7), (4, 8), (0, 1), (1, 1), (2, 1), (3, 2)]))
    plan = channel_plan(domain)
    assert len(plan.control_set) == 2  # fixture needs 4
    with pytest.raises(InsufficientSpectrumError):
        allocate_control(lat, plan)


def test_static_data_fixture_europe(europe_plan):
    lat = twelve_cell_lattice()
    groups, k = allocate_static_data(lat, europe_plan)
    assert k == 4
    assert all(len(g) == 4 for g in groups.values())
    alloc = allocate_static(lat, europe_plan)
    assert alloc.chi_data == 3
    assert len(alloc.unassigned) == 2


def test_static_data_k_by_domain():
    lat = twelve_cell_lattice()
    _, k_japan = allocate_static_data(lat, channel_plan(default_domain(JAPAN)))
    assert k_japan == 6
    _, k_us = allocate_static_data(lat, channel_plan(default_domain(US)))
    assert k_us == 8
    _, k_us28 = allocate_static_data(lat, channel_plan(default_domain(US), us_data_card=28))
    assert k_us28 == 9


def test_static_data_single_cell(europe_plan):
    lat = build_lattice(0, 1.0)
    groups, k = allocate_static_data(lat, europe_plan)
    assert k == 14
    assert set(groups[C(0, 0)]) == europe_plan.data_set


def test_static_data_insufficient_spectrum():
    lat = twelve_cell_lattice()
    domain = RegulatoryDomain("Tiny", channels_from_pairs([(4, 7), (4, 8), (7, 7), (7, 8), (0, 1), (1, 1)]))
    plan = channel_plan(domain)
    assert len(plan.data_set) == 2  # chi is 3, so no full group fits
    with pytest.raises(InsufficientSpectrumError):
        allocate_static_data(lat, plan)


def test_reuse_happens_at_exact_reuse_distance(europe_plan):
    # some pair at metric exactly 16 must share a control channel on N >= 4
    lat = build_lattice(4, 1.0)
    control = allocate_control(lat, europe_plan)
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
    g16 = build_interference_graph(lat, None, CONTROL_REUSE_METRIC)
    for a, b in g16.edges:
        assert alloc.control[a] != alloc.control[b]
    g12 = build_interference_graph(lat, None, DATA_REUSE_METRIC)
    for a, b in g12.edges:
        assert not (set(alloc.data_groups[a]) & set(alloc.data_groups[b]))


@pytest.mark.parametrize("name", [US, EUROPE, JAPAN])
def test_channel_accounting(name):
    lat = twelve_cell_lattice()
    plan = channel_plan(default_domain(name))
    alloc = allocate_static(lat, plan, require_control=False)
    assert alloc.k_static * alloc.chi_data + len(alloc.unassigned) == len(plan.data_set)
    # control channels never leak into data groups
    for group in alloc.data_groups.values():
        assert not (set(group) & plan.control_set)


def test_large_lattice_uses_pattern(europe_plan):
    # 85 cells exceeds the exact-solver cap; allocation must still be proper
    lat = build_lattice(6, 1.0)
    alloc = allocate_static(lat, europe_plan)
    assert alloc.chi_control <= 4
    assert alloc.chi_data <= 3
    g16 = build_interference_graph(lat, None, CONTROL_REUSE_METRIC)
    for a, b in g16.edges:
        assert alloc.control[a] != alloc.control[b]


def test_tolerant_static_when_control_set_too_small():
    # Japan's default table leaves 2 control channels, fewer than the 4
    # a dense network needs; the data side must still come out
    lat = twelve_cell_lattice()
    plan = channel_plan(default_domain(JAPAN))
    with pytest.raises(InsufficientSpectrumError):
        allocate_static(lat, plan)
    alloc = allocate_static(lat, plan, require_control=False)
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


def test_allocate_static_solves_each_lattice_coloring_once(monkeypatch, reference_config_path):
    cfg = load_config(reference_config_path)
    solved = []

    def counting(graph, *args, **kwargs):
        solved.append(len(graph))
        return chromatic_coloring(graph, *args, **kwargs)

    monkeypatch.setattr(static_alloc, "chromatic_coloring", counting)
    alloc = allocate_static(cfg.lattice, cfg.plan(), require_control=False)
    assert solved == [12, 12]
    assert (alloc.chi_control, alloc.chi_data) == (4, 3)
