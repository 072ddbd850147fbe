"""The package's records: named tuples, plus the slotted ``Lattice``.

Pins what building them from tuples and slots could change silently:
channel order and hashing, the length of a lattice and of its graph rows,
the edge set the rows hold, lattice equality, and that no field of any
record can be assigned.
"""

import pytest
from oracles import edge_set

from hexchan import (
    AllocationMatrix,
    CellIndex,
    ChannelPlan,
    Coloring,
    CycleStructure,
    Lattice,
    LogicalChannel,
    RegulatoryDomain,
    RequestScenario,
    SchemeReport,
    StaticAllocation,
    allocate_dynamic,
    allocate_static,
    build_lattice,
    compare_schemes,
    cycle_structure,
    data_graph_coloring,
    interference_rows,
    lattice_from_cells,
)
from hexchan.config import ScenarioConfig, load_config

C = CellIndex
LC = LogicalChannel


def test_logical_channels_sort_by_phy_then_code():
    channels = [LC(7, 1), LC(4, 8), LC(15, 1), LC(4, 7), LC(0, 2)]
    assert sorted(channels) == [LC(0, 2), LC(4, 7), LC(4, 8), LC(7, 1), LC(15, 1)]
    assert LC(4, 8) < LC(7, 1) and LC(4, 7) < LC(4, 8)


def test_logical_channel_equals_and_hashes_like_its_pair():
    assert LC(4, 7) == (4, 7) and hash(LC(4, 7)) == hash((4, 7))
    assert (4, 7) in {LC(4, 7)} and LC(4, 7) in {(4, 7)}
    assert LC(4, 7) != LC(4, 8)
    assert LC(4, 7).phy_channel == 4 and LC(4, 7).code == 7
    assert LC(phy_channel=4, code=7) == LC(4, 7)


def test_lengths_of_lattice_and_graph_are_their_cell_counts():
    lat = build_lattice(2, 1.0)
    assert len(lat) == len(lat.cells) == 13
    assert len(interference_rows(lat, 16)) == 13
    assert len(interference_rows(lattice_from_cells([C(0, 0), C(1, 1), C(2, 0)], 1.0), 12)) == 3


def test_graph_edges_are_lower_higher_position_cell_pairs():
    # The N = 1 window holds (-1, -1), (1, -1), (0, 0), (-1, 1), (1, 1) in
    # that order; each edge lists its lower-position cell first.
    lattice = build_lattice(1, 1.0)
    pairs = [
        ((-1, -1), (-1, 1)), ((-1, -1), (0, 0)), ((-1, -1), (1, -1)), ((-1, 1), (1, 1)),
        ((0, 0), (-1, 1)), ((0, 0), (1, 1)), ((1, -1), (0, 0)), ((1, -1), (1, 1)),
    ]
    assert edge_set(interference_rows(lattice, 16), lattice.cells) == frozenset((C(*a), C(*b)) for a, b in pairs)


def test_lattice_equality_is_on_radius_origin_and_cells():
    lat = build_lattice(1, 2.0, origin=(1.0, -1.0))
    same = lattice_from_cells(reversed(lat.cells), 2.0, origin=(1.0, -1.0))
    assert same is not lat and same == lat and hash(same) == hash(lat)
    assert lat != build_lattice(1, 1.0, origin=(1.0, -1.0))
    assert lat != build_lattice(1, 2.0)
    assert lat != build_lattice(2, 2.0, origin=(1.0, -1.0))
    assert lat != lat.cells and lat.members == frozenset(lat.cells)
    assert C(0, 0) in lat and (1, 1) in lat and C(2, 0) not in lat


def test_lattice_keeps_its_checks():
    with pytest.raises(ValueError):
        Lattice(0.0, (0.0, 0.0), (C(0, 0),))
    with pytest.raises(ValueError):
        Lattice(1.0, (0.0, 0.0), (C(0, 0), C(0, 0)))
    # cells out of row-major order would misplace the edge list's lines
    with pytest.raises(ValueError, match="row-major"):
        Lattice(1.0, (0.0, 0.0), tuple(reversed(build_lattice(1, 1.0).cells)))
    with pytest.raises(ValueError, match="row-major"):
        Lattice(1.0, (0.0, 0.0), (C(1, -1), C(-1, -1)))


def every_record(reference_config_path):
    """One instance of each of the package's records, from the reference config."""
    cfg = load_config(reference_config_path)
    plan = cfg.plan()
    configs = cfg.superframes
    return [
        cfg,
        cfg.lattice,
        cfg.domain,
        plan,
        next(iter(plan.data_set)),
        data_graph_coloring(interference_rows(cfg.lattice, 12), cfg.lattice.cells),
        allocate_static(cfg.lattice, plan),
        cycle_structure(configs),
        allocate_dynamic(cfg.lattice, configs, plan),
        cfg.request_scenario(),
        compare_schemes(cfg.lattice, configs, plan, cfg.request_scenario())[0],
    ]


def test_no_field_of_a_record_can_be_assigned(reference_config_path):
    records = every_record(reference_config_path)
    assert {type(record) for record in records} == {
        ScenarioConfig, Lattice, RegulatoryDomain, ChannelPlan, LogicalChannel, Coloring,
        StaticAllocation, CycleStructure, AllocationMatrix, RequestScenario, SchemeReport,
    }
    for record in records:
        fields = getattr(record, "_fields", None) or record.__slots__
        for name in fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.extra = 0


def test_tuple_records_equal_plain_tuples_and_replace_fields():
    structure = CycleStructure(16, 1, 16)
    assert structure == (16, 1, 16) and structure._replace(u_cycles=8) == (16, 1, 8)
    coloring = Coloring((0, 1, 0))
    assert coloring == ((0, 1, 0),) and coloring.num_colors == 2 and Coloring(()).num_colors == 0
    assert RegulatoryDomain("lab", frozenset({LC(4, 7)})).name == "lab"
