"""Output checks for the hexchan CLI, computed apart from the program.

    python3 pipebench/checks.py MANIFEST

MANIFEST is a JSON list of ``{"name", "config", "out": {command: dir}}``.
The script prints one JSON object, ``{"failures": {"<name>/<command>":
[message, ...]}, "makeup": {name: {...}}}``, and exits 0 once it has
checked everything it was given.

No hexchan module is imported.  Every expected value is recomputed here from
the scenario config and from properties the method must have:

* lattice: cell count 2N^2+2N+1, centres (3i/2 R, sqrt(3)j/2 R), and both
  edge lists equal to a brute-force scan of pairs with 3di^2+dj^2 < 16 / 12;
* static: proper control (metric 16) and data (metric 12) assignments,
  chi_control <= 4, chi_data <= 3 and k_static = |data| // chi_data;
* dynamic: per-PAN activity counts, idle PANs get nothing, no channel shared
  by interfering active PANs, every grant = |data| // chi of its component
  (1 isolated, 2 bipartite, else 3) and no grant below k_static;
* evaluate: makespan = max(max r, ceil(sum r / c)), delay = 100(b-m)/b and
  dynamic <= static <= single per PAN and cycle;
* the paper's anchors on ``reference-12pan``.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

CONTROL_METRIC = 16
DATA_METRIC = 12
# Logical channels of each built-in domain, (control, data): 32/18/22 in
# total, control = physical channels 4/7/11/15 with codes 7 and 8.
CHANNELS = {"US": (8, 24), "Europe": (4, 14), "Japan": (2, 20)}
CONTROL_CAPABLE = {f"{phy}:{code}" for phy in (4, 7, 11, 15) for code in (7, 8)}
# The paper's k_static when chi_data = 3.
PAPER_K_STATIC = {"Europe": 4, "Japan": 6, "US": 8}


def metric(a: tuple[int, int], b: tuple[int, int]) -> int:
    di = a[0] - b[0]
    dj = a[1] - b[1]
    return 3 * di * di + dj * dj


def edges_below(cells: list, threshold: int) -> set:
    """Brute-force scan of every cell pair: the reference edge set."""
    return {
        frozenset((a, b)) for k, a in enumerate(cells) for b in cells[k + 1 :] if metric(a, b) < threshold
    }


def adjacency(cells: list, threshold: int) -> dict:
    adj: dict = {c: [] for c in cells}
    for edge in edges_below(cells, threshold):
        a, b = tuple(edge)
        adj[a].append(b)
        adj[b].append(a)
    return adj


def components(vertices: set, adj: dict) -> list[tuple[list, int]]:
    """Components of the induced subgraph, each with its chromatic number on
    the metric-12 lattice graph: 1 for an isolated vertex, 2 if bipartite,
    else 3 (the closed-form lattice pattern bounds chi by 3)."""
    side: dict = {}
    found = []
    for start in sorted(vertices):
        if start in side:
            continue
        side[start] = 0
        comp, stack, bipartite = [start], [start], True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in vertices:
                    continue
                if w not in side:
                    side[w] = 1 - side[v]
                    comp.append(w)
                    stack.append(w)
                elif side[w] == side[v]:
                    bipartite = False
        found.append((comp, 1 if len(comp) == 1 else 2 if bipartite else 3))
    return found


class Scenario:
    """The parts of a scenario config the checks need, parsed here."""

    def __init__(self, name: str, doc: dict):
        self.name = name
        lat = doc["lattice"]
        self.radius = float(lat["radius_R"])
        self.origin = tuple(float(v) for v in lat.get("origin", [0.0, 0.0]))
        if "cells" in lat:
            self.window = None
            self.cells = sorted({tuple(c) for c in lat["cells"]}, key=lambda c: (c[1], c[0]))
        else:
            n = self.window = lat["index_bound_N"]
            self.cells = [(i, j) for j in range(-n, n + 1) for i in range(-n, n + 1) if (i + j) % 2 == 0]
        self.domain = doc.get("domain", "Europe")
        if "us_data_card" in doc or self.domain not in CHANNELS:
            raise ValueError("checks cover the built-in domain tables only")
        self.n_control, self.n_data = CHANNELS[self.domain]
        self.pans = [
            (tuple(sf["cell"]), sf["SO"], sf["BO"], sf.get("phase", 0)) for sf in doc.get("superframes", [])
        ]
        work = doc.get("workload", {})
        if "per_pan" in work:
            raise ValueError("checks cover uniform workloads only")
        self.requests = (work.get("slots_per_request", 3),) * work.get("requests_per_pan", 8)
        data_adj = adjacency(self.cells, DATA_METRIC)
        self.chi_data = max((chi for _, chi in components(set(self.cells), data_adj)), default=0)
        self.k_static = self.n_data // self.chi_data
        pan_cells = {p[0] for p in self.pans}
        self.pan_adj = {c: [w for w in data_adj[c] if w in pan_cells] for c in pan_cells}
        if self.pans:
            self.bi_maj = max(1 << bo for _, _, bo, _ in self.pans)
            self.sd_min = min(1 << so for _, so, _, _ in self.pans)
            self.u = self.bi_maj // self.sd_min

    def active_count(self, pan: int) -> int:
        """Cycles per major cycle a PAN is active: (BI_maj/BI) * (SD/SD_min)."""
        _, so, bo, _ = self.pans[pan]
        return (self.bi_maj >> bo) * ((1 << so) // self.sd_min)

    def grants(self, active: list[list[int]]) -> tuple[dict, list[int], list[list]]:
        """Expected grant size per active (pan, cycle), each cycle's chi and
        each cycle's components, from the active PAN indices per cycle."""
        index = {p[0]: k for k, p in enumerate(self.pans)}
        sizes, chis, comps = {}, [], []
        for t, pans in enumerate(active):
            found = components({self.pans[p][0] for p in pans}, self.pan_adj)
            for comp, chi in found:
                for cell in comp:
                    sizes[(index[cell], t)] = self.n_data // chi
            chis.append(max((chi for _, chi in found), default=0))
            comps.append(found)
        return sizes, chis, comps


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _header(rows: list, expected: list[str], name: str) -> list[list[str]]:
    if not rows or rows[0][: len(expected)] != expected:
        raise ValueError(f"{name}: unexpected header {rows[:1]}")
    return rows[1:]


def check_lattice(sc: Scenario, out: Path, errs: list) -> None:
    rows = _header(read_rows(out / "cells.csv"), ["i", "j", "x", "y"], "cells.csv")
    cells = [(int(r[0]), int(r[1])) for r in rows]
    if sc.window is not None and len(cells) != 2 * sc.window**2 + 2 * sc.window + 1:
        errs.append(f"cells.csv: {len(cells)} cells, expected 2N^2+2N+1 for N={sc.window}")
    if sorted(cells) != sorted(sc.cells):
        errs.append("cells.csv: cell set differs from the config's lattice")
    x0, y0 = sc.origin
    for (i, j), r in zip(cells, rows):
        x, y = x0 + 1.5 * i * sc.radius, y0 + math.sqrt(3.0) / 2.0 * j * sc.radius
        if not (math.isclose(float(r[2]), x, abs_tol=1e-9) and math.isclose(float(r[3]), y, abs_tol=1e-9)):
            errs.append(f"cells.csv: centre of ({i}, {j}) is ({r[2]}, {r[3]}), expected ({x}, {y})")
            break
    for name, threshold in (("edges_control.txt", CONTROL_METRIC), ("edges_data.txt", DATA_METRIC)):
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        got = {frozenset(((a, b), (c, d))) for a, b, c, d in (map(int, line.split()) for line in lines)}
        expect = edges_below(sc.cells, threshold)
        if len(got) != len(lines) or got != expect:
            errs.append(
                f"{name}: {len(lines)} lines, {len(expect - got)} edges missing, "
                f"{len(got - expect)} extra against the brute-force scan"
            )


def _shares(adj: dict, tokens: dict) -> tuple | None:
    """First adjacent pair whose token sets intersect, if any."""
    for a, ns in adj.items():
        for b in ns:
            if tokens[a] & tokens[b]:
                return a, b
    return None


def check_static(sc: Scenario, out: Path, errs: list) -> None:
    summary = json.loads((out / "static_summary.json").read_text(encoding="utf-8"))
    want = {
        "domain": sc.domain,
        "total_channels": sc.n_control + sc.n_data,
        "control_channels": sc.n_control,
        "data_channels": sc.n_data,
        "chi_data": sc.chi_data,
        "k_static": sc.k_static,
    }
    for key, value in want.items():
        if summary.get(key) != value:
            errs.append(f"static_summary.json: {key} = {summary.get(key)!r}, expected {value!r}")
    if sc.chi_data == 3 and summary.get("k_static") != PAPER_K_STATIC[sc.domain]:
        errs.append(f"k_static {summary.get('k_static')} is not the paper's {PAPER_K_STATIC[sc.domain]}")
    chi_control = summary.get("chi_control")
    if not isinstance(chi_control, int) or not sc.chi_data <= chi_control <= 4:
        errs.append(f"chi_control = {chi_control!r}, expected chi_data <= chi_control <= 4")
    if len(summary.get("unassigned_channels", ())) != sc.n_data - sc.k_static * sc.chi_data:
        errs.append("static_summary.json: wrong number of unassigned channels")

    rows = _header(read_rows(out / "static_allocation.csv"), ["i", "j", "control_phy", "control_code"], "csv")
    by_cell = {(int(r[0]), int(r[1])): r for r in rows}
    if sorted(by_cell) != sorted(sc.cells) or len(rows) != len(sc.cells):
        errs.append("static_allocation.csv: rows do not cover the lattice once each")
        return
    data = {c: set(r[4:]) for c, r in by_cell.items()}
    if any(len(r) - 4 != sc.k_static or len(data[c]) != sc.k_static for c, r in by_cell.items()):
        errs.append(f"static_allocation.csv: a cell does not hold {sc.k_static} distinct data channels")
    if len({frozenset(g) for g in data.values()}) != sc.chi_data:
        errs.append(f"static_allocation.csv: data groups used differ from chi_data = {sc.chi_data}")
    clash = _shares(adjacency(sc.cells, DATA_METRIC), data)
    if clash:
        errs.append(f"static data channel shared by {clash[0]} and {clash[1]} at metric < 12")
    if sc.n_control < (chi_control or 0):
        if any(r[2] or r[3] for r in rows):
            errs.append("static_allocation.csv: control columns filled despite a control shortfall")
        if summary.get("control_shortfall") != {"needed": chi_control, "available": sc.n_control}:
            errs.append("static_summary.json: control_shortfall missing or wrong")
        return
    control = {c: {f"{r[2]}:{r[3]}"} for c, r in by_cell.items()}
    used = set().union(*control.values())
    if not used <= CONTROL_CAPABLE or len(used) != chi_control:
        errs.append(f"static control channels {sorted(used)} are not {chi_control} control-capable channels")
    if used & set().union(*data.values()):
        errs.append("static control and data channels overlap")
    clash = _shares(adjacency(sc.cells, CONTROL_METRIC), control)
    if clash:
        errs.append(f"static control channel shared by {clash[0]} and {clash[1]} at metric < 16")


def check_dynamic(sc: Scenario, out: Path, errs: list, makeup: dict) -> None:
    u, n_pans = sc.u, len(sc.pans)
    act_rows = _header(read_rows(out / "activity.csv"), ["cycle", "pan_i", "pan_j", "active"], "activity.csv")
    alloc_rows = _header(
        read_rows(out / "dynamic_allocation.csv"),
        ["cycle", "pan_i", "pan_j", "active", "chi", "k", "channels"],
        "dynamic_allocation.csv",
    )
    order = [(t + 1, p[0]) for t in range(u) for p in sc.pans]
    for name, rows in (("activity.csv", act_rows), ("dynamic_allocation.csv", alloc_rows)):
        if [(int(r[0]), (int(r[1]), int(r[2]))) for r in rows] != order:
            errs.append(f"{name}: rows are not one per cycle and PAN in config order")
            return
    active = [[p for p in range(n_pans) if act_rows[t * n_pans + p][3] == "1"] for t in range(u)]
    for p in range(n_pans):
        count = sum(p in pans for pans in active)
        if count != sc.active_count(p):
            errs.append(f"activity.csv: PAN {p + 1} active in {count} cycles, expected {sc.active_count(p)}")
            return
    sizes, chis, comps = sc.grants(active)
    grants = [[set() for _ in range(u)] for _ in range(n_pans)]
    for t in range(u):
        tokens = {}
        for p in range(n_pans):
            row = alloc_rows[t * n_pans + p]
            got = row[6].split()
            grants[p][t] = set(got)
            want = sizes.get((p, t), 0)
            if row[3] != act_rows[t * n_pans + p][3] or int(row[4]) != chis[t]:
                errs.append(f"dynamic_allocation.csv: cycle {t + 1} PAN {p + 1} active/chi columns wrong")
                return
            if len(got) != want or len(set(got)) != want or int(row[5]) != want:
                what = "an idle PAN got channels" if want == 0 else f"grant is not |data|//chi = {want}"
                errs.append(f"dynamic_allocation.csv: cycle {t + 1} PAN {p + 1}: {what}")
                return
            if want and want < sc.k_static:
                errs.append(f"dynamic_allocation.csv: cycle {t + 1} PAN {p + 1} below k_static")
                return
            tokens[sc.pans[p][0]] = set(got)
        clash = _shares({c: sc.pan_adj[c] for c in tokens}, tokens)
        if clash:
            errs.append(f"dynamic: cycle {t + 1}: interfering active PANs {clash[0]} and {clash[1]} share a channel")
            return

    summary = json.loads((out / "dynamic_summary.json").read_text(encoding="utf-8"))
    per_cycle = [
        {"cycle": t + 1, "active_pans": len(active[t]), "chi": chis[t],
         "k": max((sizes[(p, t)] for p in active[t]), default=0)}
        for t in range(u)
    ]
    head = {"bi_maj": sc.bi_maj, "sd_min": sc.sd_min, "u_cycles": u}
    if summary != {**head, "per_cycle": per_cycle}:
        errs.append("dynamic_summary.json differs from the independent cycle summary")
    doc = json.loads((out / "dynamic_allocation.json").read_text(encoding="utf-8"))
    if any(doc.get(key) != value for key, value in head.items()) or doc.get("per_cycle_chi") != chis:
        errs.append("dynamic_allocation.json: cycle structure differs")
    pans = doc.get("pans", [])
    for p, (cell, so, bo, phase) in enumerate(sc.pans):
        entry = pans[p] if p < len(pans) else {}
        if (tuple(entry.get("cell", ())), entry.get("SO"), entry.get("BO"), entry.get("phase")) != (cell, so, bo, phase):
            errs.append(f"dynamic_allocation.json: PAN {p + 1} header differs from the config")
            return
        if [{f"{a}:{b}" for a, b in chs} for chs in entry.get("channels_per_cycle", ())] != grants[p]:
            errs.append(f"dynamic_allocation.json: PAN {p + 1} grants differ from dynamic_allocation.csv")
            return

    if sc.name == "reference-12pan":
        used = {n for n in sizes.values()}
        if u != 32 or used != {4, 7, 14}:
            errs.append(f"paper anchors: U = {u}, grants {sorted(used)}; expected U = 32, grants {{4, 7, 14}}")
    sets = {frozenset(pans) for pans in active}
    found = [comp for cycle in comps for comp, _ in cycle]
    makeup.update(
        pans=n_pans,
        u=u,
        active_pan_cycles=sum(len(pans) for pans in active),
        distinct_active_sets=len(sets),
        repeated_cycle_share=(u - len(sets)) / u,
        components=len(found),
        single_pan_component_share=sum(len(c) == 1 for c in found) / max(len(found), 1),
        max_component=max((len(c) for c in found), default=0),
    )


def check_evaluate(sc: Scenario, out: Path, errs: list) -> None:
    rows = _header(
        read_rows(out / "scheme_report.csv"),
        ["scheme", "pan", "pan_i", "pan_j", "cycle", "channels", "makespan_slots", "delay_decrease_percent"],
        "scheme_report.csv",
    )
    reqs = sc.requests
    base = sum(reqs)
    by_scheme: dict = {"single": {}, "static": {}, "dynamic": {}}
    for r in rows:
        scheme, pan, cycle, channels, slots = r[0], int(r[1]) - 1, int(r[4]) - 1, int(r[5]), int(r[6])
        if scheme not in by_scheme or sc.pans[pan][0] != (int(r[2]), int(r[3])):
            errs.append(f"scheme_report.csv: bad row {r}")
            return
        want = max(max(reqs), math.ceil(base / channels))
        if slots != want:
            errs.append(f"scheme_report.csv: {scheme} PAN {pan + 1} cycle {cycle + 1}: makespan {slots}, expected {want}")
            return
        if r[7] != f"{100.0 * (base - slots) / base:.4f}":
            errs.append(f"scheme_report.csv: {scheme} PAN {pan + 1} cycle {cycle + 1}: delay {r[7]} is not 100(b-m)/b")
            return
        by_scheme[scheme][(pan, cycle)] = (channels, slots, float(r[7]))
    keys = set(by_scheme["single"])
    if any(set(rows_) != keys for rows_ in by_scheme.values()):
        errs.append("scheme_report.csv: schemes cover different (PAN, cycle) pairs")
        return
    active = [[p for p in range(len(sc.pans)) if (p, t) in keys] for t in range(sc.u)]
    for p in range(len(sc.pans)):
        if sum(p in pans for pans in active) != sc.active_count(p):
            errs.append(f"scheme_report.csv: PAN {p + 1} reported in the wrong number of cycles")
            return
    sizes, _, _ = sc.grants(active)
    expect = {"single": lambda key: 1, "static": lambda key: sc.k_static, "dynamic": sizes.get}
    for scheme, entries in by_scheme.items():
        if any(channels != expect[scheme](key) for key, (channels, _, _) in entries.items()):
            errs.append(f"scheme_report.csv: {scheme} channel counts differ from the independent grants")
            return
    for key in keys:
        if not by_scheme["dynamic"][key][1] <= by_scheme["static"][key][1] <= by_scheme["single"][key][1]:
            errs.append(f"scheme_report.csv: PAN {key[0] + 1} cycle {key[1] + 1} breaks dynamic <= static <= single")
            return

    summary = json.loads((out / "evaluation_summary.json").read_text(encoding="utf-8"))
    per_pan = summary.get("per_pan", [])
    for p, (cell, *_rest) in enumerate(sc.pans):
        entry = per_pan[p] if p < len(per_pan) else {}
        mine = {s: [v for (q, _), v in by_scheme[s].items() if q == p] for s in by_scheme}
        want = {
            "pan": p + 1,
            "cell": list(cell),
            "max_channels": {s: max((v[0] for v in mine[s]), default=0) for s in mine},
            "best_makespan": {s: min((v[1] for v in mine[s]), default=None) for s in mine},
        }
        delays = {s: max((v[2] for v in mine[s]), default=None) for s in mine}
        got_delays = entry.get("max_delay_decrease_percent", {})
        if {k: entry.get(k) for k in want} != want or any(
            (delays[s] is None) != (got_delays.get(s) is None)
            or (delays[s] is not None and abs(got_delays[s] - delays[s]) > 5e-5)
            for s in mine
        ):
            errs.append(f"evaluation_summary.json: PAN {p + 1} entry differs from scheme_report.csv")
            return
    peak = max((v[0] for entries in by_scheme.values() for v in entries.values()), default=0)
    if (summary.get("domain"), summary.get("data_channels"), summary.get("computed_dynamic_peak")) != (
        sc.domain, sc.n_data, peak
    ):
        errs.append("evaluation_summary.json: domain, data channels or computed peak wrong")

    if sc.name == "reference-12pan":
        spans = {v[1] for entries in by_scheme.values() for v in entries.values()}
        delays_seen = {r[7] for r in rows}
        if spans != {24, 6, 4, 3} or not {"75.0000", "87.5000"} <= delays_seen:
            errs.append(f"paper anchors: makespans {sorted(spans)}, expected 24/6/4/3 and delays 75.0% and 87.5%")


CHECKS = {"lattice": check_lattice, "static": check_static, "evaluate": check_evaluate}


def check_all(manifest: list[dict]) -> dict:
    """Run every check the manifest asks for; see the module docstring."""
    failures: dict = {}
    makeup: dict = {}
    for entry in manifest:
        name = entry["name"]
        try:
            sc = Scenario(name, json.loads(Path(entry["config"]).read_text(encoding="utf-8")))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            for command in entry["out"]:
                failures[f"{name}/{command}"] = [f"config unreadable by the checks: {exc!r}"]
            continue
        for command, out in entry["out"].items():
            errs: list[str] = []
            try:
                if command == "dynamic":
                    makeup[name] = {}
                    check_dynamic(sc, Path(out), errs, makeup[name])
                else:
                    CHECKS[command](sc, Path(out), errs)
            except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                errs.append(f"output unreadable: {exc!r}")
            if errs:
                failures[f"{name}/{command}"] = errs
    return {"failures": failures, "makeup": makeup}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: checks.py MANIFEST")
    print(json.dumps(check_all(json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")))))
