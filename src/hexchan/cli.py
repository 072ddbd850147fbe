"""Command-line front end.

Commands take a scenario config (JSON) and write CSV/JSON reports into the
output directory:

    hexchan lattice  --config scenario.json --out out/
    hexchan static   --config scenario.json --out out/ [--domain Europe]
    hexchan dynamic  --config scenario.json --out out/
    hexchan evaluate --config scenario.json --out out/

Exit codes: 0 success, 1 validation or domain error, 2 I/O error.
Outputs are deterministic: the same config produces byte-identical files.
The output directory is made with the first report, so a command that
fails makes none.
A rerun rewrites each report in place: a regular file at a report path
with no other link keeps its inode and mode and is cut to the new text.
Anything else there (a symlink, a hard-linked file, a FIFO) is removed and
a new file is written, so nothing is ever written through a link.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path
from typing import Iterable

from .config import ScenarioConfig, load_config
from .dynamic_alloc import (
    activity_csv,
    allocate_dynamic,
    allocation_csv,
    allocation_json_doc,
    dynamic_summary_json,
)
from .errors import ConfigError, HexchanError
from .evaluate import compare_schemes, evaluation_summary_json, scheme_report_csv
from .interference import edge_list_text
from .lattice import CONTROL_REUSE_METRIC, DATA_REUSE_METRIC
from .static_alloc import allocate_static, static_allocation_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _open_untruncated(file, flags: int) -> int:
    """The opener of ``open(file, "w")`` without its ``O_TRUNC``.  The first
    report makes the output directory, so a command that fails before it
    leaves none."""
    try:
        return os.open(file, flags & ~os.O_TRUNC, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(file), exist_ok=True)
        return os.open(file, flags & ~os.O_TRUNC, 0o666)


def _write(out_dir: Path, name: str, chunks: Iterable[str]) -> None:
    """Write each chunk of a report as it comes: the per-(PAN, cycle) writers
    stream theirs, small reports are passed as ``(text,)``.

    An old report is overwritten and then cut at the end of the new text,
    because truncating it to zero at open made ext4 flush it at close, and
    removing it instead made each rewrite create an inode, which was slower
    still for small reports."""
    path = out_dir / name
    old_size = 0
    try:
        info = path.lstat()
    except FileNotFoundError:
        pass
    else:
        if stat.S_ISREG(info.st_mode) and info.st_nlink == 1:
            old_size = info.st_size
        else:
            path.unlink()
    with open(path, "w", encoding="utf-8", newline="", opener=_open_untruncated) as fh:
        try:
            fh.writelines(chunks)
        finally:
            # Also after a failed chunk, so no old tail is left behind it.
            if fh.tell() < old_size:
                fh.truncate()
    print(f"wrote {path}")


def cmd_lattice(cfg: ScenarioConfig, out_dir: Path) -> None:
    """Cell table plus the control and data interference edge lists."""
    lattice = cfg.lattice
    (x0, y0), r = lattice.origin, lattice.radius_r
    # The steps of ``center_of``, computed once, so each center is its float.
    dx, dy = 3.0 * r / 2.0, math.sqrt(3.0) * r / 2.0
    lines = ["i,j,x,y"] + [f"{i},{j},{x0 + i * dx!r},{y0 + j * dy!r}" for i, j in lattice.cells]
    _write(out_dir, "cells.csv", ("\r\n".join(lines) + "\r\n",))
    for name, threshold in (("edges_control.txt", CONTROL_REUSE_METRIC), ("edges_data.txt", DATA_REUSE_METRIC)):
        _write(out_dir, name, (edge_list_text(lattice, threshold),))


def cmd_static(cfg: ScenarioConfig, out_dir: Path) -> None:
    """Static allocation table and its summary."""
    plan = cfg.plan()
    alloc = allocate_static(cfg.lattice, plan)
    _write(out_dir, "static_allocation.csv", (static_allocation_csv(cfg.lattice, alloc),))
    summary = {
        "domain": cfg.domain.name,
        "total_channels": len(cfg.domain.total_channels),
        "control_channels": len(plan.control_set),
        "data_channels": len(plan.data_set),
        "chi_control": alloc.chi_control,
        "chi_data": alloc.chi_data,
        "k_static": alloc.k_static,
        "unassigned_channels": [ch.token() for ch in alloc.unassigned],
    }
    if alloc.control is None:
        summary["control_shortfall"] = {
            "needed": alloc.chi_control,
            "available": len(plan.control_set),
        }
    if cfg.us_data_card is not None:
        summary["us_data_card"] = cfg.us_data_card
        if cfg.us_data_card == 28:
            summary["note"] = (
                "alternate US reading in effect: control restricted to one sequence code, "
                "28 data channels"
            )
    _write(out_dir, "static_summary.json", (json.dumps(summary, indent=2) + "\n",))


def cmd_dynamic(cfg: ScenarioConfig, out_dir: Path) -> None:
    """Activity and per-cycle allocation matrices with a cycle summary."""
    configs = cfg.require_superframes()
    plan = cfg.plan()
    alloc = allocate_dynamic(cfg.lattice, configs, plan)
    _write(out_dir, "activity.csv", activity_csv(configs, alloc))
    _write(out_dir, "dynamic_allocation.csv", allocation_csv(configs, alloc))
    _write(out_dir, "dynamic_allocation.json", allocation_json_doc(configs, alloc))
    _write(out_dir, "dynamic_summary.json", (dynamic_summary_json(configs, alloc),))


def cmd_evaluate(cfg: ScenarioConfig, out_dir: Path) -> None:
    """Scheme comparison table (the plot-ready latency data)."""
    configs = cfg.require_superframes()
    plan = cfg.plan()
    scenario = cfg.request_scenario()
    reports = compare_schemes(cfg.lattice, configs, plan, scenario)
    _write(out_dir, "scheme_report.csv", scheme_report_csv(configs, reports))
    _write(out_dir, "evaluation_summary.json", evaluation_summary_json(configs, plan, cfg.domain.name, reports))


_COMMANDS = {
    "lattice": cmd_lattice,
    "static": cmd_static,
    "dynamic": cmd_dynamic,
    "evaluate": cmd_evaluate,
}


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls;
    parsing keeps no state in it."""
    parser = _Parser(prog="hexchan", description="Channel allocation for hexagonal-cell sensor networks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="scenario config (JSON)")
        p.add_argument("--out", help="output directory (default: config's out_dir, else ./out)")
        p.add_argument("--domain", choices=("US", "Europe", "Japan"), help="override the config's domain")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = load_config(args.config, domain_override=args.domain)
        _COMMANDS[args.command](cfg, Path(args.out or cfg.out_dir or "out"))
    except HexchanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
