import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from conftest import TEST_CONFIG_DIR, roadmap_config
from oracles import components

import hexchan
from hexchan import cli
from hexchan.cli import main
from hexchan.config import (
    MAX_CELLS,
    MAX_PAN_CYCLES,
    MAX_REQUEST_ENTRIES,
    MAX_REQUESTS_PER_PAN,
    MAX_SLOTS_PER_REQUEST,
    load_config,
)
from hexchan.errors import ConfigError
from hexchan.coloring import two_coloring
from hexchan.dynamic_alloc import _active_sets
from hexchan.interference import interference_rows, iter_bits
from hexchan.lattice import build_lattice


def write_config(tmp_path: Path, doc: dict, name="scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def minimal_lattice_doc(n=0):
    return {"lattice": {"index_bound_N": n, "radius_R": 1.0}, "domain": "Europe"}


def read_csv(path: Path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_lattice_command_single_cell(tmp_path):
    cfg = write_config(tmp_path, minimal_lattice_doc(0))
    out = tmp_path / "out"
    assert main(["lattice", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "cells.csv")
    assert len(rows) == 1
    assert rows[0]["i"] == "0" and rows[0]["j"] == "0"
    assert (out / "edges_control.txt").read_text() == ""
    assert (out / "edges_data.txt").read_text() == ""


def test_lattice_command_fixture(tmp_path, reference_config_path):
    out = tmp_path / "out"
    assert main(["lattice", "--config", str(reference_config_path), "--out", str(out)]) == 0
    assert len(read_csv(out / "cells.csv")) == 12
    assert (out / "edges_control.txt").read_text().strip()
    assert (out / "edges_data.txt").read_text().strip()


def test_malformed_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["lattice", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "line 1" in capsys.readouterr().err


def test_missing_config_exits_1(tmp_path):
    assert main(["lattice", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 1


def test_invalid_field_exits_1_with_field_name(tmp_path, capsys):
    cfg = write_config(tmp_path, {"lattice": {"index_bound_N": 1, "radius_R": -2.0}})
    assert main(["lattice", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "lattice.radius_R" in capsys.readouterr().err


def test_bad_cli_args_exit_1(capsys):
    assert main(["lattice"]) == 1
    assert main(["recolor", "--config", "x"]) == 1


def test_main_shares_no_state_between_calls(tmp_path, reference_config_path):
    # the parser is built once and reused; no call's arguments leak into the next
    out = tmp_path / "out"
    assert main(["static", "--config", str(reference_config_path), "--bogus"]) == 1
    assert main(["static", "--config", str(reference_config_path), "--out", str(out)]) == 0
    assert main(["static", "--config", str(reference_config_path), "--out", str(out), "--domain", "US"]) == 0
    assert json.loads((out / "static_summary.json").read_text())["domain"] == "US"
    assert main(["static", "--config", str(reference_config_path), "--out", str(out)]) == 0
    assert json.loads((out / "static_summary.json").read_text())["domain"] == "Europe"
    doc = minimal_lattice_doc(0)
    doc["out_dir"] = str(tmp_path / "from-config")
    cfg = write_config(tmp_path, doc)
    assert main(["lattice", "--config", str(cfg)]) == 0
    assert (tmp_path / "from-config" / "cells.csv").is_file()


def test_package_exports_resolve():
    # a name deleted from a module must leave __all__ too
    assert [name for name in hexchan.__all__ if not hasattr(hexchan, name)] == []
    assert len(set(hexchan.__all__)) == len(hexchan.__all__)


def test_static_command_fixture_europe(tmp_path, reference_config_path):
    out = tmp_path / "out"
    assert main(["static", "--config", str(reference_config_path), "--out", str(out)]) == 0
    summary = json.loads((out / "static_summary.json").read_text())
    assert summary["chi_control"] == 4
    assert summary["chi_data"] == 3
    assert summary["k_static"] == 4
    assert len(summary["unassigned_channels"]) == 2
    rows = read_csv(out / "static_allocation.csv")
    assert len(rows) == 12
    assert {row["control_phy"] for row in rows} == {"4", "7"}


def test_static_command_domain_override_japan(tmp_path, reference_config_path):
    out = tmp_path / "out"
    rc = main(["static", "--config", str(reference_config_path), "--out", str(out), "--domain", "Japan"])
    assert rc == 0
    summary = json.loads((out / "static_summary.json").read_text())
    assert summary["k_static"] == 6
    assert summary["control_shortfall"] == {"needed": 4, "available": 2}


def test_static_command_japan_far_apart_paths(tmp_path):
    # 66 cells in 22 far-apart 3-cell paths need 2 control colors, which
    # Japan's 2 control channels cover
    cells = [[8 * k + di, dj] for k in range(22) for di, dj in ((0, 0), (2, 0), (3, 1))]
    cfg = write_config(tmp_path, {"lattice": {"cells": cells, "radius_R": 1.0}, "domain": "Japan"})
    out = tmp_path / "out"
    assert main(["static", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "static_summary.json").read_text())
    assert summary["chi_control"] == 2
    assert "control_shortfall" not in summary
    assert all(row["control_phy"] for row in read_csv(out / "static_allocation.csv"))


def test_static_command_on_a_max_cells_triangle_strip(tmp_path):
    # one 10 000-cell component without an odd wheel: the search budget
    # refuses its 3-coloring search and the control pattern stands in, the
    # same way on every run
    cells = [[k, k % 2] for k in range(MAX_CELLS)]
    cfg = write_config(tmp_path, {"lattice": {"cells": cells, "radius_R": 1.0}, "domain": "Europe"})
    reports = []
    for run in ("a", "b"):
        assert main(["static", "--config", str(cfg), "--out", str(tmp_path / run)]) == 0
        reports.append((tmp_path / run / "static_summary.json").read_text())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["chi_control"] == 4


def test_static_command_single_cell(tmp_path):
    doc = minimal_lattice_doc(0)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["static", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "static_summary.json").read_text())
    assert summary["chi_control"] == 1 and summary["chi_data"] == 1
    assert summary["k_static"] == 14


def test_static_command_us_data_card(tmp_path):
    doc = minimal_lattice_doc(1)
    doc["domain"] = "US"
    doc["us_data_card"] = 28
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["static", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "static_summary.json").read_text())
    assert summary["data_channels"] == 28
    assert summary["us_data_card"] == 28
    assert "note" in summary


def test_dynamic_command_reference(tmp_path, reference_config_path):
    out = tmp_path / "out"
    assert main(["dynamic", "--config", str(reference_config_path), "--out", str(out)]) == 0
    summary = json.loads((out / "dynamic_summary.json").read_text())
    assert summary["u_cycles"] == 32
    assert summary["bi_maj"] == 32 and summary["sd_min"] == 1
    rows = read_csv(out / "dynamic_allocation.csv")
    assert len(rows) == 32 * 12
    doc = json.loads((out / "dynamic_allocation.json").read_text())
    assert doc["u_cycles"] == 32
    # a cycle with one isolated active PAN lists the whole data set
    isolated = [r for r in rows if r["active"] == "1" and r["chi"] == "1"]
    assert isolated and any(len(r["channels"].split()) == 14 for r in isolated)


def test_dynamic_requires_superframes(tmp_path):
    cfg = write_config(tmp_path, minimal_lattice_doc(1))
    assert main(["dynamic", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def one_pan_doc(so, bo):
    doc = minimal_lattice_doc(0)
    doc["superframes"] = [{"cell": [0, 0], "SO": so, "BO": bo}]
    return doc


def refuse_to_run(*args, **kwargs):
    raise AssertionError("a rejected config got past validation")


@pytest.mark.parametrize("so, bo", [(0, 40), (15, 15), (15, 4)])
def test_dynamic_rejects_orders_above_14(tmp_path, capsys, monkeypatch, so, bo):
    monkeypatch.setattr("hexchan.cli.allocate_dynamic", refuse_to_run)
    cfg = write_config(tmp_path, one_pan_doc(so, bo))
    assert main(["dynamic", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "superframes[0]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_dynamic_accepts_beacon_order_14(tmp_path):
    cfg = write_config(tmp_path, one_pan_doc(12, 14))
    out = tmp_path / "out"
    assert main(["dynamic", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "dynamic_summary.json").read_text())
    assert summary["bi_maj"] == 1 << 14 and summary["u_cycles"] == 4


@pytest.mark.parametrize("command", ["lattice", "dynamic"])
def test_huge_index_bound_exits_1_before_building(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("hexchan.config.build_lattice", refuse_to_run)
    doc = minimal_lattice_doc(10**8)
    doc["superframes"] = [{"cell": [0, 0], "SO": 0, "BO": 1}]
    cfg = write_config(tmp_path, doc)
    start = time.perf_counter()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - start < 5.0
    assert "lattice.index_bound_N" in capsys.readouterr().err


def test_lattice_cell_limit(tmp_path):
    # N = 70 is the largest window under 10 000 cells (9941); N = 71 has 10 225
    assert len(load_config(write_config(tmp_path, minimal_lattice_doc(70))).lattice) == 9941
    with pytest.raises(ConfigError, match="10225 cells"):
        load_config(write_config(tmp_path, minimal_lattice_doc(71)))
    cells = [[i, j] for i in range(-101, 101) for j in range(-101, 101) if (i + j) % 2 == 0]
    assert len(cells) > MAX_CELLS
    doc = {"lattice": {"cells": cells[: MAX_CELLS + 1], "radius_R": 1.0}}
    with pytest.raises(ConfigError, match="lattice.cells"):
        load_config(write_config(tmp_path, doc))


def deep_row_doc(pans):
    """``pans`` PANs on one row of cells with U = 2^14: the first PAN runs
    SO = 0, BO = 14, the others are always active (SO = BO = 14)."""
    superframes = [{"cell": [2 * k, 0], "SO": 14, "BO": 14} for k in range(pans)]
    superframes[0]["SO"] = 0
    doc = {"lattice": {"cells": [sf["cell"] for sf in superframes], "radius_R": 1.0}, "domain": "US"}
    doc["superframes"] = superframes
    return doc


def test_dynamic_rejects_pan_cycles_over_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("hexchan.cli.allocate_dynamic", refuse_to_run)
    cfg = write_config(tmp_path, deep_row_doc(MAX_PAN_CYCLES // (1 << 14) + 1))
    start = time.perf_counter()
    assert main(["dynamic", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "superframes" in err and f"limit of {MAX_PAN_CYCLES}" in err
    assert not (tmp_path / "o").exists()


def test_pan_cycle_limit_admits_largest_configs(tmp_path):
    at_limit = load_config(write_config(tmp_path, deep_row_doc(MAX_PAN_CYCLES // (1 << 14))))
    assert len(at_limit.superframes) << 14 == MAX_PAN_CYCLES
    # the largest benchmark deployments: 61 PANs x U = 1024 and 545 PANs x U = 128
    assert len(load_config(write_config(tmp_path, roadmap_config(5))).superframes) == 61
    wide = minimal_lattice_doc(16)
    wide["superframes"] = [{"cell": [c.i, c.j], "SO": 0, "BO": 7} for c in build_lattice(16, 1.0).cells]
    assert len(load_config(write_config(tmp_path, wide)).superframes) == 545


def test_dynamic_all_active_matches_static_groups(tmp_path):
    doc = {
        "lattice": {"index_bound_N": 1, "radius_R": 1.0},
        "domain": "Europe",
        "superframes": [
            {"cell": [0, 0], "SO": 2, "BO": 2},
            {"cell": [1, 1], "SO": 2, "BO": 2},
            {"cell": [1, -1], "SO": 2, "BO": 2},
            {"cell": [-1, 1], "SO": 2, "BO": 2},
            {"cell": [-1, -1], "SO": 2, "BO": 2},
        ],
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["dynamic", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["static", "--config", str(cfg), "--out", str(out)]) == 0
    static_rows = {(r["i"], r["j"]): r for r in read_csv(out / "static_allocation.csv")}
    for row in read_csv(out / "dynamic_allocation.csv"):
        srow = static_rows[(row["pan_i"], row["pan_j"])]
        static_group = {srow[f"data_ch_{k}"] for k in range(1, 5)}
        assert set(row["channels"].split()) == static_group


def test_evaluate_command_reference(tmp_path, reference_config_path):
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(reference_config_path), "--out", str(out)]) == 0
    rows = read_csv(out / "scheme_report.csv")
    singles = {r["makespan_slots"] for r in rows if r["scheme"] == "single"}
    statics = {r["makespan_slots"] for r in rows if r["scheme"] == "static"}
    dynamics = {r["makespan_slots"] for r in rows if r["scheme"] == "dynamic"}
    assert singles == {"24"}
    assert statics == {"6"}
    assert {"3", "4", "6"} == dynamics
    summary = json.loads((out / "evaluation_summary.json").read_text())
    assert summary["computed_dynamic_peak"] == 14


@pytest.mark.parametrize(
    "command, thresholds",
    [
        ("lattice", {41: [], 85: []}),
        ("static", {41: [12], 85: [12]}),
        ("dynamic", {41: [12], 85: [12]}),
        ("evaluate", {41: [12], 85: [12]}),
    ],
)
def test_each_command_builds_each_interference_graph_once(tmp_path, monkeypatch, command, thresholds):
    # lattice reads its edge lists off the reuse offsets and builds no graph;
    # evaluate reads its static share and its dynamic grants off one
    # metric-12 graph of the whole lattice.  A full window's metric-12 graph
    # is connected and holds a diamond, which proves that the control
    # pattern is exact, so static builds no metric-16 rows either.
    built = []

    def counting(lattice, *args):
        built.append((len(lattice), args[-1]))
        return interference_rows(lattice, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("hexchan") and hasattr(module, "interference_rows"):
            monkeypatch.setattr(module, "interference_rows", counting)
    configs = {41: TEST_CONFIG_DIR / "roadmap-n4.json", 85: write_config(tmp_path, roadmap_config(6))}
    for cells, path in configs.items():
        built.clear()
        assert main([command, "--config", str(path), "--out", str(tmp_path / str(cells))]) == 0
        assert built == [(cells, threshold) for threshold in thresholds[cells]]


@pytest.mark.parametrize("command", ["dynamic", "evaluate"])
def test_each_command_colors_each_active_set_and_component_once(tmp_path, monkeypatch, command):
    # The allocation pass splits each distinct set of active PANs once, in
    # one loop that reads the adjacency row of each of its positions once.
    # A PAN with an active neighbour starts one two_coloring call, which
    # grows and colors its component and reads the starting row once more;
    # a component met before reuses its _Component object.  The pass runs
    # on rows that count their reads.
    reads, grown, passes = Counter(), [], []

    class CountingRows(tuple):
        def __getitem__(self, p):
            reads[p] += 1
            return tuple.__getitem__(self, p)

    def counting_pass(rows, cells, configs, plan):
        passes.append(_active_sets(CountingRows(rows), cells, configs, plan))
        return passes[-1]

    def counting_two_coloring(rows, mask):
        found = two_coloring(rows, mask)
        grown.append(found[0])
        return found

    monkeypatch.setattr("hexchan.dynamic_alloc._active_sets", counting_pass)
    monkeypatch.setattr("hexchan.evaluate._active_sets", counting_pass)
    monkeypatch.setattr("hexchan.dynamic_alloc.two_coloring", counting_two_coloring)
    path = TEST_CONFIG_DIR / "roadmap-n4.json"
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0

    # Every cell holds a PAN, listed in lattice order, so PAN k is bit k.
    configs = load_config(path).superframes
    sd_min = min(cfg.sd for cfg in configs)
    u = max(cfg.bi for cfg in configs) // sd_min
    active_sets = {
        sum(1 << k for k, cfg in enumerate(configs) if (t * sd_min - cfg.phase) % cfg.bi < cfg.sd) for t in range(u)
    }
    rows = interference_rows(build_lattice(4, 1.0), 12)
    multis = [comp for mask in active_sets for comp in components(rows, mask) if comp.bit_count() > 1]
    assert len(passes) == 1 and len(set(multis)) < len(multis)
    assert sorted(grown) == sorted(multis)
    objects = {id(c): sum(1 << pan for pan, _ in c[2]) for _, found in passes[0][2].values() for c in found}
    assert sorted(objects.values()) == sorted(set(multis))
    assert reads == Counter(p for mask in active_sets for p in iter_bits(mask)) + Counter(
        (comp & -comp).bit_length() - 1 for comp in multis
    )


def test_evaluate_rejects_empty_workload(tmp_path, reference_config_path):
    doc = json.loads(Path(reference_config_path).read_text())
    doc["workload"] = {"requests_per_pan": 0, "slots_per_request": 3}
    cfg = write_config(tmp_path, doc)
    assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def per_pan_entries(reference_config_path):
    doc = json.loads(Path(reference_config_path).read_text())
    return doc, [{"cell": sf["cell"], "slots": [3, 3]} for sf in doc["superframes"]]


@pytest.mark.parametrize(
    "edit, field, message",
    [
        (lambda entries: entries.pop(), "workload.per_pan", "no entry for the PAN at cell"),
        (lambda entries: entries.append({"cell": [3, 1], "slots": [3]}), "workload.per_pan[12].cell", "no superframe"),
        (lambda entries: entries.insert(3, dict(entries[0])), "workload.per_pan[3].cell", "duplicate PAN cell"),
    ],
    ids=["missing", "no-superframe", "duplicate"],
)
def test_per_pan_workload_covers_each_pan_once(
    tmp_path, capsys, monkeypatch, reference_config_path, edit, field, message
):
    monkeypatch.setattr("hexchan.cli.compare_schemes", refuse_to_run)
    doc, entries = per_pan_entries(reference_config_path)
    edit(entries)
    doc["workload"] = {"per_pan": entries}
    cfg = write_config(tmp_path, doc)
    assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: {message}") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_per_pan_workload_covering_every_pan(tmp_path, reference_config_path):
    doc, entries = per_pan_entries(reference_config_path)
    doc["workload"] = {"per_pan": entries[::-1]}
    out = tmp_path / "o"
    assert main(["evaluate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    rows = read_csv(out / "scheme_report.csv")
    assert {r["makespan_slots"] for r in rows if r["scheme"] == "single"} == {"6"}


def oversized_uniform(doc):
    doc["workload"] = {"requests_per_pan": 100_000_000_000, "slots_per_request": 3}


def oversized_per_pan(doc):
    entries = [{"cell": sf["cell"], "slots": [3]} for sf in doc["superframes"]]
    entries[2]["slots"] = [3] * (MAX_REQUESTS_PER_PAN + 1)
    doc["workload"] = {"per_pan": entries}


@pytest.mark.parametrize("command", ["lattice", "evaluate"])
@pytest.mark.parametrize(
    "edit, field",
    [(oversized_uniform, "workload.requests_per_pan"), (oversized_per_pan, "workload.per_pan[2].slots")],
    ids=["uniform", "per-pan"],
)
def test_oversized_workload_exits_1(tmp_path, capsys, monkeypatch, reference_config_path, command, edit, field):
    monkeypatch.setattr("hexchan.cli.compare_schemes", refuse_to_run)
    doc = json.loads(Path(reference_config_path).read_text())
    edit(doc)
    cfg = write_config(tmp_path, doc)
    start = time.perf_counter()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "limit of 1000" in err


def requests_doc(pans, entries):
    """PANs on a row of cells, one cycle each, with ``entries`` requests in all."""
    cells = [[2 * k, 0] for k in range(pans)]
    doc = {"lattice": {"cells": cells, "radius_R": 1.0}, "domain": "Europe"}
    doc["superframes"] = [{"cell": cell, "SO": 0, "BO": 0} for cell in cells]
    counts = [entries // pans + (k < entries % pans) for k in range(pans)]
    doc["workload"] = {"per_pan": [{"cell": cell, "slots": [3] * n} for cell, n in zip(cells, counts)]}
    return doc


def test_per_pan_requests_over_the_entry_budget_exit_1(tmp_path):
    pans = MAX_REQUEST_ENTRIES // MAX_REQUESTS_PER_PAN + 1
    at_limit = load_config(write_config(tmp_path, requests_doc(pans, MAX_REQUEST_ENTRIES)))
    assert sum(map(len, at_limit.workload.per_pan.values())) == MAX_REQUEST_ENTRIES
    cfg = write_config(tmp_path, requests_doc(pans, MAX_REQUEST_ENTRIES + 1))
    for command in ("lattice", "evaluate"):
        proc = run_cli_process(tmp_path, command, cfg)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: workload.per_pan: the slots lists hold more than {MAX_REQUEST_ENTRIES} requests in all\n"
        )
        assert not (tmp_path / "o").exists()


def test_workload_at_the_request_limit_shares_one_tuple(tmp_path, reference_config_path):
    doc = json.loads(Path(reference_config_path).read_text())
    doc["workload"] = {"requests_per_pan": MAX_REQUESTS_PER_PAN, "slots_per_request": 3}
    per_pan = load_config(write_config(tmp_path, doc)).workload.per_pan
    assert len(per_pan) == 12 and {len(r) for r in per_pan.values()} == {MAX_REQUESTS_PER_PAN}
    assert len({id(r) for r in per_pan.values()}) == 1


@pytest.mark.parametrize("command", ["lattice", "evaluate"])
def test_config_not_utf8_exits_1(tmp_path, capsys, monkeypatch, reference_config_path, command):
    monkeypatch.setattr("hexchan.cli.compare_schemes", refuse_to_run)
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + Path(reference_config_path).read_text().encode("utf-16-le"))
    start = time.perf_counter()
    assert main([command, "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "UTF-8" in err


@pytest.mark.parametrize(
    "lattice, field",
    [
        ({"origin": ["a", 0]}, "lattice.origin[0]"),
        ({"origin": [0, float("nan")]}, "lattice.origin[1]"),
        ({"origin": [float("-inf"), 0]}, "lattice.origin[0]"),
        ({"origin": [0, True]}, "lattice.origin[1]"),
        ({"radius_R": float("nan")}, "lattice.radius_R"),
        ({"radius_R": float("inf")}, "lattice.radius_R"),
        ({"radius_R": "1"}, "lattice.radius_R"),
    ],
    ids=["origin-string", "origin-nan", "origin-inf", "origin-bool", "radius-nan", "radius-inf", "radius-string"],
)
def test_lattice_numbers_must_be_finite(tmp_path, capsys, lattice, field):
    doc = minimal_lattice_doc(1)
    doc["lattice"].update(lattice)
    cfg = write_config(tmp_path, doc)
    assert main(["lattice", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_radius_overflowing_float_exits_1(tmp_path, capsys):
    # 1e400 is a JSON number that parses to infinity
    cfg = tmp_path / "scenario.json"
    cfg.write_text('{"lattice": {"index_bound_N": 1, "radius_R": 1e400}}', encoding="utf-8")
    assert main(["lattice", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: lattice.radius_R: must be a finite number")


@pytest.mark.parametrize(
    "lattice",
    [
        {"index_bound_N": 2, "radius_R": 1e308},
        {"index_bound_N": 1, "radius_R": 1e307, "origin": [1.7e308, 0.0]},
        {"cells": [[0, 0], [2, 0]], "radius_R": 1e308},
    ],
    ids=["radius", "origin-plus-radius", "cells"],
)
def test_centers_overflowing_floats_exit_1(tmp_path, capsys, lattice):
    cfg = write_config(tmp_path, {"lattice": lattice})
    assert main(["lattice", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lattice: the center of cell") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_per_pan_slots_reject_booleans(tmp_path, capsys, reference_config_path):
    doc, entries = per_pan_entries(reference_config_path)
    entries[2]["slots"] = [True, 3]
    doc["workload"] = {"per_pan": entries}
    cfg = write_config(tmp_path, doc)
    assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: workload.per_pan[2].slots: expected a non-empty list")


def with_value(key, value):
    return lambda entry: {**entry, key: value}


def without(key):
    return lambda entry: {k: v for k, v in entry.items() if k != key}


# Entries whose cell is wrong, as (edit of the entry, stderr line after the
# list name); the reference config's cells span i in 0..2 and j in 0..7, and
# (0, 0) is PAN 1.
CELL_ERRORS = [
    pytest.param(lambda entry: [0, 4], "[3]: expected an object", id="not-object"),
    pytest.param(without("cell"), "[3].cell: missing required field", id="cell-missing"),
    pytest.param(with_value("cell", "0,4"), "[3].cell: expected list, got str", id="cell-not-list"),
    pytest.param(with_value("cell", [0, 4, 0]), "[3].cell: expected a two-integer [i, j] pair", id="cell-not-pair"),
    pytest.param(with_value("cell", [False, 4]), "[3].cell: expected a two-integer [i, j] pair", id="cell-bool"),
    pytest.param(
        with_value("cell", [0, 3]), "[3].cell: cell index (0, 3) violates parity: i + j must be even", id="cell-odd"
    ),
    pytest.param(with_value("cell", [0, 0]), "[3].cell: duplicate PAN cell (0, 0)", id="cell-duplicate"),
]


def reject_line(tmp_path, capsys, doc):
    """stderr of ``hexchan lattice`` on ``doc``, which must exit 1."""
    cfg = write_config(tmp_path, doc)
    assert main(["lattice", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, line",
    CELL_ERRORS
    + [
        pytest.param(with_value("cell", [4, 0]), "[3].cell: cell (4, 0) is not in the lattice", id="cell-outside"),
        pytest.param(without("SO"), "[3].SO: missing required field", id="so-missing"),
        pytest.param(with_value("SO", True), "[3].SO: expected int, got bool", id="so-bool"),
        pytest.param(with_value("BO", 4.0), "[3].BO: expected int, got float", id="bo-float"),
        pytest.param(with_value("phase", "0"), "[3].phase: expected int, got str", id="phase-string"),
        pytest.param(with_value("phase", -1), "[3]: SO, BO and phase must be non-negative", id="phase-negative"),
        pytest.param(
            with_value("SO", 5),
            "[3]: SO=5 exceeds BO=4: active period must fit in the beacon interval",
            id="so-above-bo",
        ),
        pytest.param(
            with_value("BO", 15),
            "[3]: SO=1, BO=15: superframe and beacon orders are limited to 0..14",
            id="bo-above-14",
        ),
    ],
)
def test_superframe_errors_name_the_entry(tmp_path, capsys, reference_config_path, edit, line):
    doc = json.loads(Path(reference_config_path).read_text())
    assert doc["superframes"][3] == {"cell": [0, 4], "SO": 1, "BO": 4}
    doc["superframes"][3] = edit(doc["superframes"][3])
    assert reject_line(tmp_path, capsys, doc) == f"error: superframes{line}\n"


@pytest.mark.parametrize(
    "edit, line",
    CELL_ERRORS
    + [
        pytest.param(
            with_value("cell", [4, 0]), "[3].cell: no superframe runs a PAN at cell (4, 0)", id="cell-no-superframe"
        ),
        pytest.param(without("slots"), "[3].slots: missing required field", id="slots-missing"),
        pytest.param(
            with_value("slots", [3, 0]), "[3].slots: expected a non-empty list of positive integers", id="slots-zero"
        ),
        pytest.param(
            with_value("slots", [3, MAX_SLOTS_PER_REQUEST + 1]),
            f"[3].slots: a request exceeds the limit of {MAX_SLOTS_PER_REQUEST} slots",
            id="slots-too-long",
        ),
    ],
)
def test_per_pan_errors_name_the_entry(tmp_path, capsys, reference_config_path, edit, line):
    doc, entries = per_pan_entries(reference_config_path)
    entries[3] = edit(entries[3])
    doc["workload"] = {"per_pan": entries}
    assert reject_line(tmp_path, capsys, doc) == f"error: workload.per_pan{line}\n"


def test_cells_reject_booleans(tmp_path, capsys):
    doc = {"lattice": {"cells": [[0, 0], [True, 1]], "radius_R": 1.0}}
    assert reject_line(tmp_path, capsys, doc) == "error: lattice.cells[1]: expected a two-integer [i, j] pair\n"


def test_cells_name_the_bad_entry(tmp_path, capsys):
    doc = {"lattice": {"cells": [[0, 0], [1, 1], [2, 0], [1, 1]], "radius_R": 1.0}}
    assert reject_line(tmp_path, capsys, doc) == "error: lattice.cells[3]: duplicate cell (1, 1)\n"
    doc["lattice"]["cells"][3] = [1, 2]
    assert reject_line(tmp_path, capsys, doc) == (
        "error: lattice.cells[3]: cell index (1, 2) violates parity: i + j must be even\n"
    )
    doc["lattice"]["cells"][3] = [-1, 1]
    assert load_config(write_config(tmp_path, doc)).lattice.cells == ((0, 0), (2, 0), (-1, 1), (1, 1))


def test_per_pan_without_superframes_names_any_valid_cell(tmp_path, capsys):
    doc = minimal_lattice_doc(1)
    doc["workload"] = {"per_pan": [{"cell": [9, 1], "slots": [3]}, {"cell": [0, 0], "slots": [2, 2]}]}
    assert load_config(write_config(tmp_path, doc)).workload.per_pan == {(9, 1): (3,), (0, 0): (2, 2)}
    doc["workload"]["per_pan"][1]["cell"] = [9, 1]
    assert reject_line(tmp_path, capsys, doc) == "error: workload.per_pan[1].cell: duplicate PAN cell (9, 1)\n"
    doc["workload"]["per_pan"][1]["cell"] = [9, 2]
    assert reject_line(tmp_path, capsys, doc) == (
        "error: workload.per_pan[1].cell: cell index (9, 2) violates parity: i + j must be even\n"
    )


@pytest.mark.parametrize("slots", [10**400, 2**60 + 1, MAX_SLOTS_PER_REQUEST + 1], ids=["1e400", "2^60+1", "bound+1"])
def test_slots_per_request_bound_exits_1(tmp_path, capsys, monkeypatch, reference_config_path, slots):
    monkeypatch.setattr("hexchan.cli.compare_schemes", refuse_to_run)
    doc = json.loads(Path(reference_config_path).read_text())
    doc["workload"] = {"requests_per_pan": 8, "slots_per_request": slots}
    cfg = write_config(tmp_path, doc)
    assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: workload.slots_per_request: exceeds the limit of {MAX_SLOTS_PER_REQUEST}\n"
    )


def test_makespans_at_the_workload_bounds_are_exact(tmp_path, reference_config_path):
    doc = json.loads(Path(reference_config_path).read_text())
    doc["workload"] = {"requests_per_pan": MAX_REQUESTS_PER_PAN, "slots_per_request": MAX_SLOTS_PER_REQUEST}
    out = tmp_path / "o"
    assert main(["evaluate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    total = MAX_REQUESTS_PER_PAN * MAX_SLOTS_PER_REQUEST
    for row in read_csv(out / "scheme_report.csv"):
        channels = int(row["channels"])
        slots = max(MAX_SLOTS_PER_REQUEST, -(-total // channels))
        assert row["makespan_slots"] == str(slots)
        assert row["delay_decrease_percent"] == f"{100 * (total - slots) / total:.4f}"


def test_evaluate_k_static_on_sparse_65_cells(tmp_path):
    # 65 cells at metric 16 from their neighbors: no data edges, so every
    # PAN keeps the whole US data set in the static scheme too
    cells = [[0, 4 * k] for k in range(65)]
    doc = {
        "lattice": {"cells": cells, "radius_R": 1.0},
        "domain": "US",
        "superframes": [{"cell": cell, "SO": 0, "BO": 1} for cell in cells],
    }
    cfg = write_config(tmp_path, doc)
    assert main(["static", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    summary = json.loads((tmp_path / "s" / "static_summary.json").read_text())
    assert (summary["chi_data"], summary["k_static"]) == (1, 24)
    assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 0
    rows = read_csv(tmp_path / "e" / "scheme_report.csv")
    assert {r["channels"] for r in rows if r["scheme"] == "static"} == {"24"}


def test_out_dir_collision_exits_2(tmp_path, reference_config_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory", encoding="utf-8")
    rc = main(["lattice", "--config", str(reference_config_path), "--out", str(blocker)])
    assert rc == 2


def test_repeat_runs_are_byte_identical(tmp_path, reference_config_path, block_config_path):
    for cfg in (reference_config_path, block_config_path):
        for command in ("lattice", "static", "dynamic", "evaluate"):
            outs = []
            for run in (1, 2):
                out = tmp_path / f"{cfg.stem}-{command}-{run}"
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
                outs.append(out)
            first, second = outs
            names = sorted(p.name for p in first.iterdir())
            assert names == sorted(p.name for p in second.iterdir())
            for name in names:
                assert (first / name).read_bytes() == (second / name).read_bytes()


COMMANDS = ("lattice", "static", "dynamic", "evaluate")
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_digests.json").read_text(encoding="utf-8"))


def run_all(cfg: Path, out: Path) -> dict[str, bytes]:
    """Every command on ``cfg`` into ``out``; the bytes of each report."""
    for command in COMMANDS:
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def golden_reports(name: str) -> dict[str, str]:
    """SHA-256 of each report the four commands write for a bundled config."""
    return {report: digest for reports in GOLDEN[name].values() for report, digest in reports.items()}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_rerun_into_the_same_directory_is_byte_identical(tmp_path, reference_config_path, block_config_path):
    for cfg in (reference_config_path, block_config_path):
        out = tmp_path / cfg.stem
        first = run_all(cfg, out)
        assert {name: sha256(data) for name, data in first.items()} == golden_reports(cfg.stem)
        assert not any(os.stat(out / name).st_mode & 0o111 for name in first)
        # a plain report is rewritten in place: a handle opened before the
        # rerun still reads a linked file
        handles = {name: os.open(out / name, os.O_RDONLY) for name in first}
        try:
            assert run_all(cfg, out) == first
            assert {name: os.fstat(fd).st_nlink for name, fd in handles.items()} == dict.fromkeys(first, 1)
        finally:
            for fd in handles.values():
                os.close(fd)


def test_rerun_of_another_config_leaves_no_old_bytes(tmp_path, reference_config_path, block_config_path):
    # block-n2 and reference-12pan reports differ in length both ways
    out = tmp_path / "out"
    for cfg in (block_config_path, reference_config_path, block_config_path):
        reports = run_all(cfg, out)
        assert {name: sha256(data) for name, data in reports.items()} == golden_reports(cfg.stem)


def test_failed_chunk_leaves_no_old_tail(tmp_path):
    def chunks():
        yield "new head\n"
        raise RuntimeError("writer failed")

    (tmp_path / "report.csv").write_text("old text\n" * 100, encoding="utf-8")
    with pytest.raises(RuntimeError, match="writer failed"):
        cli._write(tmp_path, "report.csv", chunks())
    assert (tmp_path / "report.csv").read_text(encoding="utf-8") == "new head\n"


def test_rerun_replaces_hard_linked_reports(tmp_path, reference_config_path, block_config_path):
    # a link made to a report keeps the first run's file; the rerun writes a new one
    out, kept = tmp_path / "out", tmp_path / "kept"
    first = run_all(block_config_path, out)
    kept.mkdir()
    inodes = {}
    for name in first:
        os.link(out / name, kept / name)
        inodes[name] = os.stat(out / name).st_ino
    second = run_all(reference_config_path, out)
    assert {name: sha256(data) for name, data in second.items()} == golden_reports("reference-12pan")
    for name, data in first.items():
        assert os.stat(kept / name).st_ino == inodes[name]
        assert (kept / name).read_bytes() == data
        assert os.stat(out / name).st_ino != inodes[name]


def test_symlink_at_a_report_path_is_replaced(tmp_path, reference_config_path):
    sentinel = tmp_path / "sentinel.txt"
    sentinel.write_text("not a report\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "cells.csv").symlink_to(sentinel)
    assert main(["lattice", "--config", str(reference_config_path), "--out", str(out)]) == 0
    assert sentinel.read_text(encoding="utf-8") == "not a report\n"
    cells = out / "cells.csv"
    assert not cells.is_symlink() and cells.is_file()
    assert sha256(cells.read_bytes()) == GOLDEN["reference-12pan"]["lattice"]["cells.csv"]


def test_console_entry_point(tmp_path, reference_config_path):
    out = tmp_path / "out"
    # the child imports the package under test, installed or not
    package_root = str(Path(hexchan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "hexchan.cli", "static", "--config", str(reference_config_path), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "static_summary.json" in proc.stdout


def child_env() -> dict:
    """The environment of a fresh interpreter that imports this hexchan."""
    package_root = str(Path(hexchan.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def run_cli_process(tmp_path, command, cfg, *args):
    """``hexchan COMMAND`` on ``cfg`` (plus ``args``) in a fresh interpreter,
    so its stderr shows whether an exception escaped."""
    return subprocess.run(
        [sys.executable, "-m", "hexchan.cli", command, "--config", str(cfg), "--out", str(tmp_path / "o"), *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Every run pays for importing hexchan.cli.  The records are named
    # tuples and slotted classes, so `dataclasses` and what it imports
    # (inspect, ast, dis, tokenize) stay unloaded.  -S keeps site-packages
    # .pth files, which may import modules of their own, out of the count.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, hexchan.cli; print([name for name in {heavy!r} if name in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_duplicate_channel_in_a_custom_table_exits_1(tmp_path, reference_config_path):
    # A repeated (phy_channel, code) pair would be merged into one channel.
    doc = json.loads(Path(reference_config_path).read_text())
    doc["domain"] = {"name": "lab", "channels": [{"phy_channel": 4, "code": 7}, {"phy_channel": 4, "code": 7}]}
    proc = run_cli_process(tmp_path, "static", write_config(tmp_path, doc))
    assert proc.returncode == 1
    assert proc.stderr == "error: domain.channels[1]: duplicate channel (phy_channel 4, code 7)\n"
    assert not (tmp_path / "o").exists()


def test_channel_out_of_range_in_a_custom_table_names_its_entry(tmp_path, reference_config_path):
    doc = json.loads(Path(reference_config_path).read_text())
    pairs = [(4, 7), (4, 8), (7, 7), (7, 8), (0, 1), (16, 1)]
    doc["domain"] = {"name": "lab", "channels": [{"phy_channel": phy, "code": code} for phy, code in pairs]}
    proc = run_cli_process(tmp_path, "static", write_config(tmp_path, doc))
    assert proc.returncode == 1
    assert proc.stderr == "error: domain.channels[5]: phy_channel 16 outside 0..15\n"
    assert not (tmp_path / "o").exists()


def test_directory_at_a_report_path_exits_2(tmp_path, reference_config_path):
    (tmp_path / "o" / "static_summary.json").mkdir(parents=True)
    proc = run_cli_process(tmp_path, "static", reference_config_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("i/o error: ") and "Traceback" not in proc.stderr
    assert (tmp_path / "o" / "static_summary.json").is_dir()


@pytest.mark.parametrize("override", [(), ("--domain", "US")], ids=["config-domain", "domain-override"])
def test_unknown_config_domain_exits_1_under_override(tmp_path, reference_config_path, override):
    # --domain replaces the config's domain, but a bad one is still an error
    doc = json.loads(Path(reference_config_path).read_text())
    doc["domain"] = "Mars"
    proc = run_cli_process(tmp_path, "static", write_config(tmp_path, doc), *override)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: domain: unknown domain 'Mars'") and "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["lattice", "evaluate"])
def test_integer_beyond_the_digit_limit_exits_1(tmp_path, command):
    # json.loads raises a plain ValueError (not JSONDecodeError) for an
    # integer literal longer than the interpreter's int-string digit limit.
    doc = roadmap_config(1)
    doc["lattice"]["index_bound_N"] = "HUGE"
    text = json.dumps(doc).replace('"HUGE"', "1" + "0" * 4999)
    cfg = tmp_path / "huge.json"
    cfg.write_text(text, encoding="utf-8")
    proc = run_cli_process(tmp_path, command, cfg)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    if hasattr(sys, "get_int_max_str_digits"):
        assert str(cfg) in proc.stderr


@pytest.mark.parametrize("command", ["lattice", "evaluate"])
def test_deeply_nested_config_exits_1(tmp_path, command):
    # json.loads raises RecursionError for arrays nested past the
    # interpreter's recursion limit.
    cfg = tmp_path / "nested.json"
    cfg.write_text("[" * 100_000, encoding="utf-8")
    proc = run_cli_process(tmp_path, command, cfg)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert str(cfg) in proc.stderr


def misspelt_phase(doc):
    doc["superframes"][0] = {"cell": [0, 0], "SO": 0, "BO": 1, "phse": 1}


def misspelt_domain(doc):
    doc["domian"] = "US"


def per_pan_with(key):
    def edit(doc):
        doc["workload"] = {"per_pan": [{"cell": sf["cell"], "slots": [3]} for sf in doc["superframes"]], key: 2}

    return edit


@pytest.mark.parametrize(
    "edit, line",
    [
        (misspelt_phase, "superframes[0].phse: unknown key; expected one of BO, SO, cell, notes, phase\n"),
        (misspelt_domain, "domian: unknown key; expected one of "),
        (per_pan_with("requests_per_pan"), "workload: give either per_pan or requests_per_pan and slots_per_request"),
        (per_pan_with("slots_per_request"), "workload: give either per_pan or requests_per_pan and slots_per_request"),
    ],
    ids=["superframe-phse", "top-level-domian", "per-pan-and-requests", "per-pan-and-slots"],
)
def test_ignored_config_keys_exit_1(tmp_path, reference_config_path, edit, line):
    # each key would otherwise be dropped and its default used, with exit 0
    doc = json.loads(Path(reference_config_path).read_text())
    edit(doc)
    proc = run_cli_process(tmp_path, "evaluate", write_config(tmp_path, doc))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {line}") and "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "path, field",
    [
        ((), "extra"),
        (("lattice",), "lattice.extra"),
        (("domain",), "domain.extra"),
        (("domain", "channels", 2), "domain.channels[2].extra"),
        (("superframes", 3), "superframes[3].extra"),
        (("workload",), "workload.extra"),
        (("workload", "per_pan", 3), "workload.per_pan[3].extra"),
    ],
)
def test_unknown_keys_are_named_and_notes_allowed(tmp_path, capsys, reference_config_path, path, field):
    doc, entries = per_pan_entries(reference_config_path)
    doc["domain"] = {"name": "lab", "channels": [{"phy_channel": 1, "code": k} for k in range(1, 9)]}
    doc["workload"] = {"per_pan": entries}
    target = doc
    for step in path:
        target = target[step]
    target["notes"] = "ignored"
    assert load_config(write_config(tmp_path, doc)).superframes
    target["extra"] = 0
    assert reject_line(tmp_path, capsys, doc).startswith(f"error: {field}: unknown key; expected one of ")

