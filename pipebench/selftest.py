"""Self-test of the benchmark's output checks.

    python3 pipebench/selftest.py

Runs a tiny version of each workload through ``hexchan.cli.main`` and shows
that its outputs pass every check.  Then it corrupts copies of those outputs
and shows that the checks catch each corruption: two interfering active PANs
sharing a channel, one dropped edge, and one makespan off by one.  Exits 1 if
any expectation fails.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import checks
import workloads
from run import COMMANDS, ROOT, SRC

WORK = ROOT / ".pipebench" / "selftest"


def run_tiny(workload: str, main) -> list[dict]:
    """Run every command once on the tiny scenarios; return their manifest."""
    manifest = []
    for name, config in workloads.WORKLOADS[workload](1, ROOT, tiny=True):
        if isinstance(config, dict):
            path = WORK / "configs" / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(config), encoding="utf-8")
            config = path
        out = {cmd: str(WORK / workload / name / cmd) for cmd in COMMANDS}
        for cmd in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([cmd, "--config", str(config), "--out", out[cmd]])
            if code != 0:
                raise SystemExit(f"FAIL {workload}/{name}: hexchan {cmd} exited {code}")
        manifest.append({"name": name, "config": str(config), "out": out})
    return manifest


def corrupted(entry: dict, cmd: str, edit) -> dict:
    """A manifest entry for a corrupted copy of one command's outputs, or
    None when ``edit`` finds nothing to corrupt."""
    copy = Path(entry["out"][cmd] + "-corrupt")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(entry["out"][cmd], copy)
    if not edit(entry, copy):
        return None
    return {"name": entry["name"], "config": entry["config"], "out": {cmd: str(copy)}}


def _rewrite_csv(path: Path, change) -> bool:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not change(rows):
        return False
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(rows)
    return True


def share_channel(entry: dict, out: Path) -> bool:
    """Give an active PAN the channels of an interfering active PAN in the
    same cycle (both sit in one component, so the grant sizes agree)."""
    sc = checks.Scenario(entry["name"], json.loads(Path(entry["config"]).read_text(encoding="utf-8")))

    def change(rows):
        by_cycle: dict = {}
        for row in rows[1:]:
            if row[3] == "1":
                by_cycle.setdefault(row[0], []).append(row)
        for active in by_cycle.values():
            cells = {(int(r[1]), int(r[2])): r for r in active}
            for cell, row in cells.items():
                for other in sc.pan_adj[cell]:
                    if other in cells:
                        cells[other][6] = row[6]
                        return True
        return False

    return _rewrite_csv(out / "dynamic_allocation.csv", change)


def drop_edge(entry: dict, out: Path) -> bool:
    path = out / "edges_data.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[1:]), encoding="utf-8")
    return bool(lines)


def makespan_off_by_one(entry: dict, out: Path) -> bool:
    def change(rows):
        rows[1][6] = str(int(rows[1][6]) + 1)
        return True

    return _rewrite_csv(out / "scheme_report.csv", change)


CORRUPTIONS = (
    ("two interfering active PANs share a channel", "dynamic", share_channel, "share a channel"),
    ("one dropped edge", "lattice", drop_edge, "edges missing"),
    ("one makespan off by one", "evaluate", makespan_off_by_one, "makespan"),
)


def main() -> int:
    if not (SRC / "hexchan" / "cli.py").is_file():
        print(f"error: no hexchan sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hexchan.cli import main as hexchan_main

    shutil.rmtree(WORK, ignore_errors=True)
    ok = True
    entries = []
    for workload in workloads.WORKLOADS:
        manifest = run_tiny(workload, hexchan_main)
        failures = checks.check_all(manifest)["failures"]
        outputs = sum(len(e["out"]) for e in manifest)
        if failures:
            ok = False
            print(f"FAIL tiny {workload}: {json.dumps(failures)}")
        else:
            print(f"ok   tiny {workload}: {outputs} command outputs pass every check")
        entries += manifest
    for label, cmd, edit, expected in CORRUPTIONS:
        copies = (corrupted(e, cmd, edit) for e in entries)
        copy = next((c for c in copies if c is not None), None)
        if copy is None:
            ok = False
            print(f"FAIL {label}: no tiny output to corrupt")
            continue
        messages = checks.check_all([copy])["failures"].get(f"{copy['name']}/{cmd}", [])
        caught = [m for m in messages if expected in m]
        ok = ok and bool(caught)
        print(f"{'ok  ' if caught else 'FAIL'} {label} ({copy['name']}): {caught[0] if caught else messages}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
