"""The benchmark's independent output checks (``pipebench/checks.py``) on
sparse ``lattice.cells`` deployments.

The checks recompute every expected value from the config alone (brute-force
pair scans, their own component coloring, the duty-cycle rule), so they
catch a wrong edge list, grant or makespan without sharing code with the
program.  They run in a subprocess, as the benchmark runs them.
"""

import json
import random
import subprocess
import sys

from conftest import REPO_ROOT

from hexchan.cli import main

COMMANDS = ("lattice", "static", "dynamic", "evaluate")


def scattered_cells(rng, num_cells):
    """``num_cells`` distinct parity-valid cells scattered over a box about
    four times their count."""
    half = max(2, int((2 * num_cells) ** 0.5))
    cells = set()
    while len(cells) < num_cells:
        i, j = rng.randint(-half, half), rng.randint(-half, half)
        cells.add((i, j + (i + j) % 2))
    return sorted(cells)


def sparse_doc(rng, cells, domain):
    """The cells, a PAN on a random half of them with BO <= 3 (so U <= 8),
    and a uniform workload."""
    superframes = []
    for cell in rng.sample(cells, max(1, len(cells) // 2)):
        bo = rng.randint(0, 3)
        superframes.append({"cell": list(cell), "SO": rng.randint(0, bo), "BO": bo, "phase": rng.randint(0, 9)})
    return {
        "lattice": {"cells": [list(c) for c in cells], "radius_R": 1.0},
        "domain": domain,
        "superframes": superframes,
        "workload": {"requests_per_pan": rng.randint(1, 8), "slots_per_request": rng.randint(1, 5)},
    }


def test_sparse_cell_lists_pass_the_independent_checks(tmp_path, capsys):
    # Scattered cells from 12 to 160, then 22 far-apart 3-cell paths (control
    # chi 2, so Japan's 2 control channels are assigned) and a triangle strip
    # (control chi 3), both of 66 cells.  Last, a 1 183-cell strip, too long
    # for the search budget, so it takes the control pattern, and a far-away
    # 66-cell strip that is still searched (Europe's 4 control channels).
    rng = random.Random(64)
    paths = [(8 * k + di, dj) for k in range(22) for di, dj in ((0, 0), (2, 0), (3, 1))]
    strip = [(k, k % 2) for k in range(66)]
    two_strips = [(k, k % 2) for k in range(1183)] + [(k, 100 + k % 2) for k in range(66)]
    manifest = []
    for k, cells in enumerate((12, 40, 63, 64, 65, 100, 160, paths, strip, two_strips)):
        if isinstance(cells, int):
            cells = scattered_cells(rng, cells)
        domain = ("Europe", "Japan", "US")[k % 3]
        name = f"sparse-{k}-{len(cells)}"
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(sparse_doc(rng, cells, domain)), encoding="utf-8")
        out = {}
        for command in COMMANDS:
            out[command] = str(tmp_path / name / command)
            assert main([command, "--config", str(config), "--out", out[command]]) == 0
        manifest.append({"name": name, "config": str(config), "out": out})
    capsys.readouterr()
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "pipebench" / "checks.py"), str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["failures"] == {}
    assert sorted(result["makeup"]) == sorted(entry["name"] for entry in manifest)
