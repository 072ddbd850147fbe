import csv
import json
import random

import pytest
from conftest import lattice_graph, roadmap_config
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import components, is_active, verify_coloring

from hexchan.cli import main
from hexchan.coloring import chromatic_coloring, data_graph_coloring
from hexchan.config import load_config
from hexchan.dynamic_alloc import (
    SuperframeConfig,
    activity_csv,
    allocate_dynamic,
    allocation_csv,
    allocation_json_doc,
    cycle_structure,
)
from hexchan.errors import InsufficientSpectrumError, InvalidSuperframeError, NotInLatticeError
from hexchan.interference import interference_rows, iter_bits
from hexchan.lattice import DATA_REUSE_METRIC, CellIndex, build_lattice, lattice_from_cells, lattice_metric
from hexchan.spectrum import EUROPE, channel_plan, default_domain
from hexchan.static_alloc import allocate_static

C = CellIndex
SF = SuperframeConfig


@pytest.fixture
def europe_plan():
    return channel_plan(default_domain(EUROPE))


@pytest.fixture
def reference(reference_config_path):
    cfg = load_config(reference_config_path)
    return cfg.lattice, cfg.superframes, cfg.plan()


def test_superframe_config_is_a_tuple_record():
    cfg = SF(pan_cell=CellIndex(0, 0), so=1, bo=4)
    assert cfg == (CellIndex(0, 0), 1, 4, 0) == SF(CellIndex(0, 0), 1, 4, 0)
    assert hash(cfg) == hash(((0, 0), 1, 4, 0))
    assert (cfg.sd, cfg.bi, cfg.phase) == (2, 16, 0)
    assert repr(cfg) == "SuperframeConfig(pan_cell=CellIndex(i=0, j=0), so=1, bo=4, phase=0)"
    with pytest.raises(AttributeError):
        cfg.so = 2


def test_superframe_validation():
    with pytest.raises(InvalidSuperframeError):
        SF(pan_cell=C(0, 0), so=3, bo=2)
    with pytest.raises(InvalidSuperframeError):
        SF(pan_cell=C(0, 0), so=-1, bo=2)
    for so, bo in [(0, 15), (0, 40), (15, 15)]:
        with pytest.raises(InvalidSuperframeError, match="0..14"):
            SF(pan_cell=C(0, 0), so=so, bo=bo)
    cfg = SF(pan_cell=C(0, 0), so=2, bo=5)
    assert cfg.sd == 4 and cfg.bi == 32
    assert SF(pan_cell=C(0, 0), so=14, bo=14).bi == 1 << 14


def test_cycle_structure_single_pan():
    cs = cycle_structure([SF(pan_cell=C(0, 0), so=0, bo=0)])
    assert (cs.bi_maj, cs.sd_min, cs.u_cycles) == (1, 1, 1)


def test_cycle_structure_mixed():
    cs = cycle_structure([SF(pan_cell=C(0, 0), so=1, bo=3), SF(pan_cell=C(1, 1), so=0, bo=5)])
    assert (cs.bi_maj, cs.sd_min, cs.u_cycles) == (32, 1, 32)


def test_cycle_structure_reference_scenario(reference):
    _, configs, _ = reference
    cs = cycle_structure(configs)
    assert (cs.bi_maj, cs.sd_min, cs.u_cycles) == (32, 1, 32)


def granted(configs):
    """Per PAN and cycle, whether ``allocate_dynamic`` grants the PAN any
    channel, on a lattice of the PANs' cells with the Europe plan: the grant
    columns transposed into one row per PAN."""
    lattice = lattice_from_cells([cfg.pan_cell for cfg in configs], 1.0)
    alloc = allocate_dynamic(lattice, configs, channel_plan(default_domain(EUROPE)))
    return tuple(zip(*(tuple(grant != () for grant in column) for column in alloc.per_cycle_grants)))


def test_activity_always_on_when_so_equals_bo():
    cfgs = [SF(pan_cell=C(0, 0), so=2, bo=2), SF(pan_cell=C(1, 1), so=0, bo=3)]
    act = granted(cfgs)
    assert all(act[0])
    assert act[0] == tuple(is_active(cfgs[0], t, cycle_structure(cfgs).sd_min) for t in range(len(act[0])))


def test_activity_pattern_so1_bo2():
    # SD=2, BI=4 with sd_min=1: active in cycles {0,1,4,5} out of 8
    cfgs = [SF(pan_cell=C(0, 0), so=1, bo=2), SF(pan_cell=C(1, 1), so=0, bo=3)]
    cs = cycle_structure(cfgs)
    assert cs.sd_min == 1 and cs.u_cycles == 8
    act = granted(cfgs)
    assert [t for t in range(8) if act[0][t]] == [0, 1, 4, 5]
    assert [t for t in range(8) if is_active(cfgs[0], t, cs.sd_min)] == [0, 1, 4, 5]


def test_activity_row_sums():
    rng = random.Random(11)
    lat = build_lattice(3, 1.0)
    cells = rng.sample(lat.cells, 6)
    cfgs = []
    for cell in cells:
        bo = rng.randint(0, 5)
        cfgs.append(SF(pan_cell=cell, so=rng.randint(0, bo), bo=bo, phase=rng.randint(0, 7)))
    cs = cycle_structure(cfgs)
    act = granted(cfgs)
    for k, cfg in enumerate(cfgs):
        expected = (cfg.sd // cs.sd_min) * (cs.bi_maj // cfg.bi)
        assert sum(act[k]) == expected
        assert sum(is_active(cfg, t, cs.sd_min) for t in range(cs.u_cycles)) == expected


def test_grants_tiled_past_the_major_cycle_match_is_active():
    # the grant rows repeat with the major cycle; cover cycle counts that cut a period
    rng = random.Random(5)
    cfgs = []
    for cell in build_lattice(2, 1.0).cells:
        bo = rng.randint(0, 6)
        cfgs.append(SF(pan_cell=cell, so=rng.randint(0, bo), bo=bo, phase=rng.randint(0, 70)))
    cs = cycle_structure(cfgs)
    act = granted(cfgs)
    assert {len(row) for row in act} == {cs.u_cycles}
    for num_cycles in (0, 1, 37, cs.u_cycles, 2 * cs.u_cycles + 5):
        tiled = tuple(tuple((row * 3)[:num_cycles]) for row in act)
        assert tiled == tuple(tuple(is_active(cfg, t, cs.sd_min) for t in range(num_cycles)) for cfg in cfgs)


@st.composite
def duty_cycles(draw):
    """1-4 superframe configs with SO <= BO <= 14 and phases up to 2^16,
    beyond BI for most BO."""
    configs = []
    for k in range(draw(st.integers(1, 4))):
        bo = draw(st.integers(0, 14))
        so = draw(st.integers(0, bo))
        configs.append(SF(pan_cell=C(2 * k, 0), so=so, bo=bo, phase=draw(st.integers(0, 1 << 16))))
    return configs


@settings(max_examples=150, deadline=None)
@given(duty_cycles(), st.data())
def test_grants_match_is_active_on_random_duty_cycles(configs, data):
    # A window of at most 600 cycles, anywhere in the major cycle, plus the
    # last cycle keeps the oracle fast; a PAN's period is 1 to 2^14 cycles,
    # so the window both spans short periods and cuts long ones.
    cs = cycle_structure(configs)
    u = cs.u_cycles
    start = data.draw(st.integers(0, u - 1))
    window = list(range(start, min(u, start + data.draw(st.integers(0, 600))))) + [u - 1]
    act = granted(configs)
    assert {len(row) for row in act} == {u}
    assert [[row[t] for t in window] for row in act] == [
        [is_active(cfg, t, cs.sd_min) for t in window] for cfg in configs
    ]


def test_phase_shifts_activity():
    cfgs = [SF(pan_cell=C(0, 0), so=0, bo=2, phase=1), SF(pan_cell=C(1, 1), so=0, bo=2)]
    act = granted(cfgs)
    assert [t for t in range(4) if act[0][t]] == [1]
    assert [t for t in range(4) if act[1][t]] == [0]


def test_phase_counts_base_superframe_units():
    # SD_min = 2: an elementary cycle spans two base superframe units, so a
    # phase of 2 units moves the PAN one cycle on; read as 2 elementary
    # cycles it would be a full BI = 4 units, the same as phase 0
    cfgs = [SF(pan_cell=C(0, 0), so=1, bo=2, phase=0), SF(pan_cell=C(1, 1), so=1, bo=2, phase=2)]
    cs = cycle_structure(cfgs)
    assert (cs.sd_min, cs.u_cycles) == (2, 2)
    assert granted(cfgs) == ((True, False), (False, True))


def test_reference_scenario_channel_counts(reference):
    lattice, configs, plan = reference
    cs = cycle_structure(configs)
    act = [[is_active(cfg, t, cs.sd_min) for t in range(cs.u_cycles)] for cfg in configs]
    alloc = allocate_dynamic(lattice, configs, plan)
    counts = {
        t: sorted({len(alloc.per_cycle_grants[t][k]) for k in range(len(configs)) if act[k][t]})
        for t in range(cs.u_cycles)
    }
    # all 12 active: 4 channels each
    assert counts[0] == [4]
    # exactly two mutually-interfering PANs: 7 each
    assert counts[2] == [7] and counts[3] == [7]
    # one isolated PAN: the whole data set
    assert counts[4] == [14]
    # two active PANs out of range of each other: the whole data set each
    assert counts[9] == [14]
    active_9 = [k for k in range(len(configs)) if act[k][9]]
    assert [k + 1 for k in active_9] == [6, 10]
    a, b = (configs[k].pan_cell for k in active_9)
    assert lattice_metric(a, b) >= DATA_REUSE_METRIC


def test_inactive_entries_are_empty(reference):
    lattice, configs, plan = reference
    cs = cycle_structure(configs)
    alloc = allocate_dynamic(lattice, configs, plan)
    for k, cfg in enumerate(configs):
        for t in range(cs.u_cycles):
            if not is_active(cfg, t, cs.sd_min):
                assert alloc.per_cycle_grants[t][k] == ()
            else:
                assert alloc.per_cycle_grants[t][k]


def test_grants_stay_inside_data_set(reference):
    lattice, configs, plan = reference
    alloc = allocate_dynamic(lattice, configs, plan)
    for column in alloc.per_cycle_grants:
        for grant in column:
            assert set(grant) <= plan.data_set
            assert not (set(grant) & plan.control_set)


def test_per_cycle_disjointness(reference):
    lattice, configs, plan = reference
    cs = cycle_structure(configs)
    act = [[is_active(cfg, t, cs.sd_min) for t in range(cs.u_cycles)] for cfg in configs]
    alloc = allocate_dynamic(lattice, configs, plan)
    cells = [cfg.pan_cell for cfg in configs]
    for t in range(cs.u_cycles):
        for a in range(len(configs)):
            for b in range(a + 1, len(configs)):
                if not (act[a][t] and act[b][t]):
                    continue
                if lattice_metric(cells[a], cells[b]) < DATA_REUSE_METRIC:
                    assert not (set(alloc.per_cycle_grants[t][a]) & set(alloc.per_cycle_grants[t][b]))


def test_dynamic_dominates_static(reference):
    lattice, configs, plan = reference
    k_static = allocate_static(lattice, plan).k_static
    alloc = allocate_dynamic(lattice, configs, plan)
    for column in alloc.per_cycle_grants:
        for grant in column:
            if grant:
                assert len(grant) >= k_static


def test_isolation_maximality(reference):
    lattice, configs, plan = reference
    cs = cycle_structure(configs)
    act = [[is_active(cfg, t, cs.sd_min) for t in range(cs.u_cycles)] for cfg in configs]
    alloc = allocate_dynamic(lattice, configs, plan)
    cells = [cfg.pan_cell for cfg in configs]
    for t in range(cs.u_cycles):
        for k in range(len(configs)):
            if not act[k][t]:
                continue
            has_active_neighbor = any(
                act[m][t] and lattice_metric(cells[k], cells[m]) < DATA_REUSE_METRIC
                for m in range(len(configs))
                if m != k
            )
            if not has_active_neighbor:
                assert set(alloc.per_cycle_grants[t][k]) == plan.data_set


def test_major_cycle_periodicity(reference):
    lattice, configs, plan = reference
    cs = cycle_structure(configs)
    u = cs.u_cycles
    alloc = allocate_dynamic(lattice, configs, plan)
    # the grants' activity repeats with the major cycle
    act = [[grant != () for grant in column] for column in alloc.per_cycle_grants]
    assert [[is_active(cfg, t, cs.sd_min) for cfg in configs] for t in range(2 * u)] == act * 2
    # a cycle's grants, chi and k depend only on its active set, and cycles
    # with equal active sets share one column object
    first_cycle = {}
    for t, active_set in enumerate(map(tuple, act)):
        s = first_cycle.setdefault(active_set, t)
        assert alloc.per_cycle_grants[t] is alloc.per_cycle_grants[s]
        assert (alloc.per_cycle_chi[t], alloc.per_cycle_k[t]) == (alloc.per_cycle_chi[s], alloc.per_cycle_k[s])
    assert len(first_cycle) < u
    assert len({id(column) for column in alloc.per_cycle_grants}) == len(first_cycle)


def test_all_active_reduces_to_static(europe_plan):
    lat = build_lattice(2, 1.0)
    configs = [SF(pan_cell=cell, so=1, bo=1) for cell in lat.cells]
    alloc = allocate_dynamic(lat, configs, europe_plan)
    groups = dict(zip(lat.cells, allocate_static(lat, europe_plan).data_groups))
    for column in alloc.per_cycle_grants:
        for grant, cfg in zip(column, configs, strict=True):
            assert grant == groups[cfg.pan_cell]


def test_duplicate_pan_cells_rejected(europe_plan):
    lat = build_lattice(1, 1.0)
    configs = [SF(pan_cell=C(0, 0), so=0, bo=0), SF(pan_cell=C(0, 0), so=0, bo=1)]
    with pytest.raises(ValueError):
        allocate_dynamic(lat, configs, europe_plan)


def test_pan_cell_must_be_in_lattice(europe_plan):
    lat = build_lattice(1, 1.0)
    with pytest.raises(NotInLatticeError):
        allocate_dynamic(lat, [SF(pan_cell=C(4, 4), so=0, bo=0)], europe_plan)


def short_spectrum_doc():
    """Three mutually interfering PANs that are first active together in
    cycle 3 of 4, on a custom table of one control and two data channels.
    Cycle 1 runs PAN 1 alone, cycle 2 PAN 2, cycle 4 PAN 3 (chi = 1)."""
    return {
        "lattice": {"index_bound_N": 1, "radius_R": 1.0},
        "domain": {
            "name": "two-data",
            "channels": [{"phy_channel": 4, "code": 7}, {"phy_channel": 1, "code": 1}, {"phy_channel": 2, "code": 1}],
        },
        "superframes": [
            {"cell": [0, 0], "SO": 0, "BO": 1, "phase": 0},
            {"cell": [1, 1], "SO": 1, "BO": 2, "phase": 1},
            {"cell": [1, -1], "SO": 1, "BO": 2, "phase": 2},
        ],
    }


def test_component_needing_more_channels_names_its_first_cycle(tmp_path, capsys, europe_plan):
    path = tmp_path / "short.json"
    path.write_text(json.dumps(short_spectrum_doc()), encoding="utf-8")
    cfg = load_config(path)
    assert len(cfg.plan().data_set) == 2
    # with enough channels the deployment allocates, and only cycle 3 needs 3 colors
    assert allocate_dynamic(cfg.lattice, cfg.superframes, europe_plan).per_cycle_chi == (1, 1, 3, 1)
    with pytest.raises(InsufficientSpectrumError, match=r"^cycle 3: need 3 data channels, plan has 2$"):
        allocate_dynamic(cfg.lattice, cfg.superframes, cfg.plan())
    out = tmp_path / "out"
    assert main(["dynamic", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: cycle 3: need 3 data channels, plan has 2\n"
    assert not (out / "dynamic_allocation.csv").exists()


def test_exports_parse(reference):
    lattice, configs, plan = reference
    cs = cycle_structure(configs)
    alloc = allocate_dynamic(lattice, configs, plan)
    activity_text = "".join(activity_csv(configs, alloc))
    assert activity_text.splitlines()[0] == "cycle,pan_i,pan_j,active"
    assert len(activity_text.strip().splitlines()) == 1 + cs.u_cycles * len(configs)
    alloc_text = "".join(allocation_csv(configs, alloc))
    assert alloc_text.splitlines()[0] == "cycle,pan_i,pan_j,active,chi,k,channels"
    doc = json.loads("".join(allocation_json_doc(configs, alloc)))
    assert doc["u_cycles"] == 32
    assert len(doc["pans"]) == 12
    assert len(doc["pans"][0]["channels_per_cycle"]) == 32


def test_grants_are_non_empty_exactly_where_the_oracle_says_active(reference):
    lattice, configs, plan = reference
    cs = cycle_structure(configs)
    alloc = allocate_dynamic(lattice, configs, plan)
    assert [[grant != () for grant in column] for column in alloc.per_cycle_grants] == [
        [is_active(cfg, t, cs.sd_min) for cfg in configs] for t in range(cs.u_cycles)
    ]


def all_on_n6_config():
    doc = roadmap_config(6)
    for sf in doc["superframes"]:
        sf.update(SO=1, BO=2, phase=0)
    return doc


@pytest.mark.parametrize("make_doc", [lambda: roadmap_config(6), all_on_n6_config], ids=["roadmap-n6", "n6-so1-bo2"])
def test_components_above_solver_cap(tmp_path, make_doc):
    # N = 6 has 85 PANs; both configs have active components of more than
    # 64 PANs
    config = tmp_path / "n6.json"
    config.write_text(json.dumps(make_doc()), encoding="utf-8")
    for command in ("dynamic", "evaluate"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
    grants: dict[int, dict[tuple[int, int], set[str]]] = {}
    with (tmp_path / "dynamic" / "dynamic_allocation.csv").open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["active"] == "1":
                cell = (int(row["pan_i"]), int(row["pan_j"]))
                grants.setdefault(int(row["cycle"]), {})[cell] = set(row["channels"].split())
    largest = 0
    for active in grants.values():
        rows = interference_rows(lattice_from_cells([C(i, j) for i, j in active], 1.0), DATA_REUSE_METRIC)
        for comp in components(rows, (1 << len(rows)) - 1):
            largest = max(largest, comp.bit_count())
        for a, channels_a in active.items():
            assert channels_a
            for b, channels_b in active.items():
                if a < b and lattice_metric(C(*a), C(*b)) < DATA_REUSE_METRIC:
                    assert not channels_a & channels_b
    assert largest > 64


def window_graphs(n):
    lat = build_lattice(n, 1.0)
    rng = random.Random(n)
    for keep in (lat.cells, rng.sample(lat.cells, len(lat) // 2)):
        yield lattice_graph(keep, DATA_REUSE_METRIC)


def line_graph(length):
    # a straight line of cells is a path: bipartite, though the data pattern gives it 3 colors
    return lattice_graph([C(0, 2 * k) for k in range(length)], DATA_REUSE_METRIC)


@pytest.mark.parametrize(
    "graphs",
    [window_graphs(1), window_graphs(2), window_graphs(3), window_graphs(6), [line_graph(5)]],
    ids=["n1", "n2", "n3", "n6", "line"],
)
def test_data_graph_coloring_is_minimal(graphs):
    for cells, rows in graphs:
        for comp in components(rows, (1 << len(rows)) - 1):
            sub_cells, sub_rows = lattice_graph([cells[p] for p in iter_bits(comp)], DATA_REUSE_METRIC)
            assert sub_cells == tuple(cells[p] for p in iter_bits(comp))
            fast = data_graph_coloring(sub_rows, sub_cells)
            assert verify_coloring(sub_rows, fast)
            # the exact search is compared where it stays fast
            if len(sub_rows) <= 64:
                exact = chromatic_coloring(sub_rows, sub_cells)
                assert fast.num_colors == exact.num_colors
                if exact.num_colors <= 2:
                    assert fast == exact  # a connected bipartite graph has one canonical 2-coloring
            else:
                assert fast.num_colors <= 3


def test_data_graph_coloring_above_solver_cap():
    cells, rows = line_graph(70)
    assert data_graph_coloring(rows, cells).labels == tuple(k % 2 for k in range(len(rows)))
    window = build_lattice(6, 1.0)
    assert data_graph_coloring(interference_rows(window, DATA_REUSE_METRIC), window.cells).num_colors == 3
