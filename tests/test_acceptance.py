"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; a
pytest failure on any test is the fail line for that criterion.
"""

import json
import random
import time

from conftest import graph_from_edges
from oracles import brute_force_chromatic, is_active, neighborhood_sets, twelve_cell_lattice, verify_coloring

from hexchan.cli import main
from hexchan.coloring import chromatic_coloring, pattern_coloring
from hexchan.config import load_config
from hexchan.dynamic_alloc import (
    SuperframeConfig,
    allocate_dynamic,
    cycle_structure,
)
from hexchan.evaluate import delay_decrease_percent, makespan
from hexchan.interference import interference_rows
from hexchan.lattice import (
    CONTROL_REUSE_METRIC,
    DATA_REUSE_METRIC,
    CellIndex,
    build_lattice,
    lattice_from_cells,
    lattice_metric,
)
from hexchan.spectrum import channel_plan, default_domain
from hexchan.static_alloc import allocate_static

C = CellIndex


def report(criterion, message):
    print(f"criterion {criterion}: PASS - {message}")


def test_criterion_01_fixture_chromatic_numbers():
    start = time.perf_counter()
    lat = twelve_cell_lattice()
    chi16 = chromatic_coloring(interference_rows(lat, CONTROL_REUSE_METRIC), lat.cells).num_colors
    chi12 = chromatic_coloring(interference_rows(lat, DATA_REUSE_METRIC), lat.cells).num_colors
    elapsed = time.perf_counter() - start
    assert chi16 == 4
    assert chi12 == 3
    assert elapsed < 1.0
    report(1, f"12-cell fixture needs 4 control / 3 data colors ({elapsed:.3f}s)")


def test_criterion_02_cluster_and_random_oracle():
    start = time.perf_counter()
    cluster = [C(0, 0), C(0, 2), C(0, -2), C(1, 1), C(1, -1), C(-1, 1), C(-1, -1)]
    lat = lattice_from_cells(cluster, 1.0)
    rows = interference_rows(lat, DATA_REUSE_METRIC)
    assert chromatic_coloring(rows, lat.cells).num_colors == 3
    assert brute_force_chromatic(rows) == 3

    rng = random.Random(1618)
    for _ in range(200):
        n = rng.randint(1, 10)
        verts = tuple(C(2 * k, 0) for k in range(n))
        edges = frozenset(
            (verts[a], verts[b])
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < rng.uniform(0.1, 0.9)
        )
        _, rows = graph_from_edges(verts, edges)
        coloring = chromatic_coloring(rows, verts)
        assert verify_coloring(rows, coloring)
        assert coloring.num_colors == brute_force_chromatic(rows)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"7-cell cluster chi=3; solver matches brute force on 200 random graphs ({elapsed:.2f}s)")


def test_criterion_03_f_set_closed_forms():
    n = 6
    lat = build_lattice(n, 1.0)
    checked = 0
    for threshold, offsets in (
        (CONTROL_REUSE_METRIC, [(0, 4), (2, 2), (2, -2), (0, -4), (-2, -2), (-2, 2)]),
        (DATA_REUSE_METRIC, [(1, 3), (1, -3), (-1, 3), (-1, -3), (2, 0), (-2, 0)]),
    ):
        for cell in lat.cells:
            expected = {C(cell.i + di, cell.j + dj) for di, dj in offsets
                        if abs(cell.i + di) <= n and abs(cell.j + dj) <= n}
            if len(expected) < 6:
                continue  # border cell: not interior for this threshold
            _, f_set, _ = neighborhood_sets(lat, cell, threshold)
            assert f_set == expected
            checked += 1
    assert checked > 0
    report(3, f"six-index boundary sets exact for {checked} interior cell/threshold cases on N=6")


def test_criterion_04_theorem_bounds():
    for n in range(1, 7):
        lat = build_lattice(n, 1.0)
        for kind, threshold, bound in (("control", CONTROL_REUSE_METRIC, 4), ("data", DATA_REUSE_METRIC, 3)):
            rows = interference_rows(lat, threshold)
            pattern = pattern_coloring(lat, kind)
            assert pattern.num_colors <= bound
            assert verify_coloring(rows, pattern)
            exact = chromatic_coloring(rows, lat.cells)
            assert exact.num_colors <= bound
    report(4, "pattern colorings proper and exact chi <= 4 (control) / 3 (data) for N in 1..6")


def test_criterion_05_k_static_per_domain(tmp_path):
    lat = twelve_cell_lattice()
    k_eu = allocate_static(lat, channel_plan(default_domain("Europe"))).k_static
    k_jp = allocate_static(lat, channel_plan(default_domain("Japan"))).k_static
    k_us = allocate_static(lat, channel_plan(default_domain("US"))).k_static
    assert (k_eu, k_jp, k_us) == (4, 6, 8)

    k_us28 = allocate_static(lat, channel_plan(default_domain("US"), us_data_card=28)).k_static
    assert k_us28 == 9
    cfg = tmp_path / "us28.json"
    cfg.write_text(json.dumps({
        "lattice": {"cells": [[c.i, c.j] for c in lat.cells], "radius_R": 1.0},
        "domain": "US",
        "us_data_card": 28,
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["static", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "static_summary.json").read_text())
    assert summary["k_static"] == 9
    assert summary["us_data_card"] == 28 and "note" in summary
    report(5, "k_static = 4 (Europe) / 6 (Japan) / 8 (US, 24 data); 28-channel US reading gives 9, flagged")


def test_criterion_06_reference_cycle_structure(reference_config_path):
    cfg = load_config(reference_config_path)
    cs = cycle_structure(cfg.superframes)
    assert (cs.bi_maj, cs.sd_min, cs.u_cycles) == (32, 1, 32)
    report(6, "reference 12-PAN scenario: BI_maj=32, SD_min=1, U=32")


def test_criterion_07_dynamic_channel_counts(reference_config_path):
    cfg = load_config(reference_config_path)
    configs, plan = cfg.superframes, cfg.plan()
    cs = cycle_structure(configs)
    act = [[is_active(c, t, cs.sd_min) for t in range(cs.u_cycles)] for c in configs]
    alloc = allocate_dynamic(cfg.lattice, configs, plan)
    # a grant is non-empty exactly in the PAN's active cycles
    assert [[grant != () for grant in column] for column in alloc.per_cycle_grants] == [
        [row[t] for row in act] for t in range(cs.u_cycles)
    ]
    counts = {
        t: {len(alloc.per_cycle_grants[t][k]) for k in range(len(configs)) if act[k][t]}
        for t in range(cs.u_cycles)
    }
    actives = {t: sum(1 for k in range(len(configs)) if act[k][t]) for t in range(cs.u_cycles)}
    # all 12 PANs active: 4 channels per PAN
    assert actives[0] == 12 and counts[0] == {4}
    # exactly two mutually-interfering active PANs: 7 channels each
    assert actives[2] == 2 and counts[2] == {7}
    assert actives[3] == 2 and counts[3] == {7}
    # a lone active PAN gets the whole 14-channel data set
    for t in (4, 5, 6, 7, 18, 19):
        assert actives[t] == 1 and counts[t] == {14}
    # two active PANs beyond the reuse distance each get the whole set
    assert actives[9] == 2 and counts[9] == {14}
    report(7, "Europe grants: 4 per PAN all-active, 7 when paired, 14 when isolated")


def test_criterion_08_makespans_and_delay():
    requests = (3,) * 8
    assert makespan(requests, 1) == 24
    assert makespan(requests, 4) == 6
    assert makespan(requests, 7) == 4
    assert makespan(requests, 14) == 3
    assert makespan(requests, 8) == 3
    assert delay_decrease_percent(24, 6) == 75.0
    assert delay_decrease_percent(24, 3) == 87.5
    report(8, "makespans 24/6/4/3 for 1/4/7/14+ channels; delay decreases 75.0% and 87.5%")


def test_criterion_09_randomized_property_suite():
    start = time.perf_counter()
    rng = random.Random(271828)
    for scenario in range(50):
        n = rng.randint(1, 4)
        lat = build_lattice(n, 1.0)
        plan = channel_plan(default_domain(rng.choice(["US", "Europe", "Japan"])))
        configs = []
        for cell in lat.cells:
            bo = rng.randint(0, 5)
            configs.append(SuperframeConfig(pan_cell=cell, so=rng.randint(0, bo), bo=bo))
        cs = cycle_structure(configs)
        u = cs.u_cycles
        act = [[is_active(cfg, t, cs.sd_min) for t in range(u)] for cfg in configs]
        alloc = allocate_dynamic(lat, configs, plan)
        k_static = allocate_static(lat, plan).k_static
        cells = [c.pan_cell for c in configs]

        for t in range(u):
            for a in range(len(configs)):
                if not act[a][t]:
                    assert alloc.per_cycle_grants[t][a] == ()
                    continue
                grant = alloc.per_cycle_grants[t][a]
                # an active PAN gets a grant, never worse than the static share
                assert grant and len(grant) >= k_static
                isolated = True
                for b in range(len(configs)):
                    if b == a or not act[b][t]:
                        continue
                    if lattice_metric(cells[a], cells[b]) < DATA_REUSE_METRIC:
                        isolated = False
                        # interfering actives hold disjoint channel sets
                        assert not (set(grant) & set(alloc.per_cycle_grants[t][b]))
                if isolated:
                    assert set(grant) == plan.data_set
        # the schedule repeats with the major cycle, and a cycle's grants,
        # chi and k depend only on its active set
        assert [[is_active(cfg, t, cs.sd_min) for t in range(u, 2 * u)] for cfg in configs] == act
        first_cycle = {}
        for t, active_set in enumerate(zip(*act)):
            s = first_cycle.setdefault(active_set, t)
            assert alloc.per_cycle_grants[t] == alloc.per_cycle_grants[s]
            assert (alloc.per_cycle_chi[t], alloc.per_cycle_k[t]) == (alloc.per_cycle_chi[s], alloc.per_cycle_k[s])

        # with SO = BO everywhere, every cycle reduces to the static groups
        flat = [SuperframeConfig(pan_cell=cell, so=1, bo=1) for cell in lat.cells]
        flat_alloc = allocate_dynamic(lat, flat, plan)
        groups = dict(zip(lat.cells, allocate_static(lat, plan).data_groups))
        for column in flat_alloc.per_cycle_grants:
            for grant, cfg in zip(column, flat, strict=True):
                assert grant == groups[cfg.pan_cell]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(9, f"disjointness, dominance, isolation, periodicity, static reduction on 50 scenarios ({elapsed:.2f}s)")


def test_criterion_10_cli_determinism(tmp_path, reference_config_path, block_config_path):
    for cfg in (reference_config_path, block_config_path):
        for command in ("lattice", "static", "dynamic", "evaluate"):
            digests = []
            for run in (1, 2):
                out = tmp_path / f"{cfg.stem}-{command}-{run}"
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
                digests.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert digests[0] == digests[1]
    report(10, "double runs of all four commands on both shipped configs are byte-identical")
