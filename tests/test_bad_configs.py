"""A seeded family of faulty configs, pinned by one digest of what
``hexchan lattice`` does with each: its exit code and its stderr.

Each case is a valid config on a window of N <= 3 (given as
``index_bound_N`` or as a shuffled ``lattice.cells`` list, with superframes
on some of its cells and a ``per_pan`` workload over most of them) with one
or two faults drawn from ``FAULTS``.  The faults cover the lattice numbers,
``lattice.cells``, ``superframes`` and ``workload.per_pan``; with two, the
digest pins which one the loader reports first.  Cell indices stay inside
the range where an int converts to a float.

The generator uses only integer draws from ``random.Random(SEED)``, so it
builds the same configs on every supported Python.  A change that alters an
error message, field or exit code on purpose says so in CHANGES.md and
regenerates the digest with ``PYTHONPATH=src python tests/test_bad_configs.py``.
"""

import contextlib
import io
import json
import random
from pathlib import Path

from conftest import corpus_digest, expected_corpus_digest, write_corpus_digest

from hexchan.cli import main
from hexchan.config import MAX_REQUEST_ENTRIES, MAX_REQUESTS_PER_PAN, MAX_SLOTS_PER_REQUEST

SEED = 22
CASES = 400


def window_cells(n):
    return [[i, j] for j in range(-n, n + 1) for i in range(-n, n + 1) if (i + j) % 2 == 0]


def valid_doc(rng):
    n = rng.randint(0, 3)
    cells = window_cells(n)
    rng.shuffle(cells)
    lattice = {"radius_R": rng.choice([1, 1.0, 0.5, 2.5]), "origin": rng.choice([[0, 0], [1.5, -2.0], [-100, 7]])}
    if rng.randrange(2):
        lattice["cells"] = [list(cell) for cell in cells]
    else:
        lattice["index_bound_N"] = n
    superframes = []
    for cell in cells[: rng.randint(1, len(cells))]:
        so = rng.randint(0, 3)
        entry = {"cell": list(cell), "SO": so, "BO": rng.randint(so, 6)}
        if rng.randrange(2):
            entry["phase"] = rng.randint(0, 40)
        superframes.append(entry)
    per_pan = [
        {"cell": list(sf["cell"]), "slots": [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]} for sf in superframes
    ]
    rng.shuffle(per_pan)
    return {"lattice": lattice, "domain": "Europe", "superframes": superframes, "workload": {"per_pan": per_pan}}


# Each fault edits ``doc`` in place with draws from ``rng``, or returns False
# where it does not apply to ``doc`` (which it then leaves unchanged).
def set_lattice(key, values):
    def fault(rng, doc):
        if type(doc["lattice"]) is not dict:
            return False
        doc["lattice"][key] = rng.choice(values)

    return fault


def drop_lattice(key):
    def fault(rng, doc):
        if type(doc["lattice"]) is not dict or key not in doc["lattice"]:
            return False
        del doc["lattice"][key]

    return fault


def both_lattice_forms(rng, doc):
    if type(doc["lattice"]) is not dict:
        return False
    cells = window_cells(rng.randint(0, 2))
    doc["lattice"].update(index_bound_N=rng.randint(0, 2), cells=cells)


def far_cell(rng, doc):
    """A cell whose center leaves the float range, with an index that still
    converts to a float."""
    if type(doc["lattice"]) is not dict or type(doc["lattice"].get("cells")) is not list:
        return False
    cell, radius = rng.choice([([12 * 10**307, 0], 1), ([-12 * 10**307, 0], 1), ([0, 17 * 10**307], 2)])
    cells = doc["lattice"]["cells"]
    cells.insert(rng.randint(0, len(cells)), cell)
    doc["lattice"]["radius_R"] = radius


def origin_past_the_range(rng, doc):
    """A far origin and a large radius, so that the centers on one side of a
    window leave the float range and those on the other do not."""
    lattice = doc["lattice"]
    if type(lattice) is not dict or type(lattice.get("index_bound_N")) is not int or lattice["index_bound_N"] < 1:
        return False
    lattice["radius_R"] = 10**307
    lattice["origin"] = rng.choice([[17 * 10**307, 0], [-17 * 10**307, 0], [0, 17 * 10**307], [0, -17 * 10**307]])


def earlier_cell(cells, k):
    return list(cells[k - 1]) if k and type(cells[k - 1]) is list else None


def replace_entry(where, values):
    """Entry k of the list ``where`` becomes one of ``values``; a value that is
    a function maps (entries, k) to the new entry, or to None to skip."""

    def fault(rng, doc):
        entries = entries_of(doc, where)
        if type(entries) is not list or not entries:
            return False
        k = rng.randrange(len(entries))
        value = rng.choice(values)
        if callable(value):
            value = value(entries, k)
            if value is None:
                return False
        entries[k] = value

    return fault


def entries_of(doc, where):
    if where == "lattice.cells":
        return doc["lattice"].get("cells") if type(doc["lattice"]) is dict else None
    if where == "superframes":
        return doc.get("superframes")
    return doc["workload"].get("per_pan") if type(doc.get("workload")) is dict else None


def with_key(key, value):
    return lambda entries, k: {**entries[k], key: value} if type(entries[k]) is dict else None


def without_key(key):
    def edit(entries, k):
        return {name: v for name, v in entries[k].items() if name != key} if type(entries[k]) is dict else None

    return edit


def earlier(key):
    def edit(entries, k):
        if k == 0 or type(entries[k]) is not dict or type(entries[k - 1]) is not dict or key not in entries[k - 1]:
            return None
        return {**entries[k], key: entries[k - 1][key]}

    return edit


BAD_CELLS = [{"i": 0, "j": 0}, None, "0,0", [0], [0, 0, 0], [False, 0], [0, 0.0], [1, 0], [0, -3], [2, "0"]]
OBJECT_VALUES = [[0, 0], None, 3, "cell"]
ENTRY_CELL_EDITS = [with_key("cell", cell) for cell in BAD_CELLS + [[20, 0], [-4, 8]]] + [
    without_key("cell"),
    earlier("cell"),
    with_key("phse", 1),
] + OBJECT_VALUES


def so_above_bo(entries, k):
    entry = entries[k]
    if type(entry) is not dict or type(entry.get("BO")) is not int:
        return None
    return {**entry, "SO": entry["BO"] + 1}


def over_pan_cycles(rng, doc):
    superframes = doc.get("superframes")
    if not superframes or len(superframes) < 9 or {type(sf) for sf in superframes} != {dict}:
        return False
    for sf in superframes:
        sf.update(SO=rng.randint(0, 14), BO=14)
    superframes[rng.randrange(len(superframes))]["SO"] = 0


def over_request_budget(rng, doc):
    """Drop the superframes and list more requests than the budget allows,
    on PANs in a far-away row."""
    pans = MAX_REQUEST_ENTRIES // MAX_REQUESTS_PER_PAN + 1
    doc.pop("superframes", None)
    entries = [{"cell": [2 * k, 40], "slots": [rng.randint(1, 3)] * MAX_REQUESTS_PER_PAN} for k in range(pans)]
    doc["workload"] = {"per_pan": entries}


def set_doc(key, values):
    def fault(rng, doc):
        doc[key] = rng.choice(values)

    return fault


def set_workload(values):
    def fault(rng, doc):
        doc["workload"] = dict(rng.choice(values))

    return fault


# The faults by the part of the config they break; each draw picks a part,
# then a fault of it.
FAULTS = {
    "lattice numbers": [
        set_lattice("radius_R", [0, -1, -0.5, "1", True, None, [1.0], 10**308, 1e308]),
        drop_lattice("radius_R"),
        set_lattice("origin", [[0], [0, 0, 0], "0,0", [0, "1"], [True, 0], [0, None]]),
        origin_past_the_range,
        set_lattice("index_bound_N", [-1, True, 1.5, "2", None, 71, 10**8]),
        drop_lattice("index_bound_N"),
        set_lattice("radius", [1.0]),
        both_lattice_forms,
        set_doc("lattice", [None, [], "window", {"radius_R": 1.0}]),
    ],
    "lattice.cells": [
        set_lattice("cells", [[], "cells", {"0": [0, 0]}, None]),
        replace_entry("lattice.cells", BAD_CELLS + [earlier_cell]),
        far_cell,
    ],
    "superframes": [
        set_doc("superframes", [[], {}, "all", 0]),
        replace_entry("superframes", ENTRY_CELL_EDITS),
        replace_entry(
            "superframes",
            [
                without_key("SO"),
                without_key("BO"),
                with_key("SO", True),
                with_key("SO", 1.0),
                with_key("SO", -1),
                with_key("BO", None),
                with_key("BO", 15),
                with_key("BO", 10**20),
                with_key("phase", "0"),
                with_key("phase", False),
                with_key("phase", -1),
                so_above_bo,
            ],
        ),
        over_pan_cycles,
    ],
    "workload.per_pan": [
        set_workload([{"per_pan": []}, {"per_pan": {}}, {"per_pan": [], "requests_per_pan": 2}, {"per_pans": []}]),
        set_workload(
            [
                {"requests_per_pan": 0, "slots_per_request": 3},
                {"requests_per_pan": 2, "slots_per_request": 0},
                {"requests_per_pan": MAX_REQUESTS_PER_PAN + 1, "slots_per_request": 3},
            ]
        ),
        replace_entry("workload.per_pan", ENTRY_CELL_EDITS),
        replace_entry(
            "workload.per_pan",
            [
                without_key("slots"),
                with_key("slots", 3),
                with_key("slots", []),
                with_key("slots", [3, 0]),
                with_key("slots", [True]),
                with_key("slots", [2.0]),
                with_key("slots", [MAX_SLOTS_PER_REQUEST + 1]),
                with_key("slots", [1] * (MAX_REQUESTS_PER_PAN + 1)),
            ],
        ),
        over_request_budget,
    ],
}


def bad_configs(seed=SEED, count=CASES):
    """``count`` faulty configs, each with one or two faults."""
    rng = random.Random(seed)
    for _ in range(count):
        doc = valid_doc(rng)
        faults = rng.randint(1, 2)
        while faults:
            part = rng.choice(sorted(FAULTS))
            if rng.choice(FAULTS[part])(rng, doc) is not False:
                faults -= 1
        yield doc


def outcome_lines(tmp_path):
    """``exit code, stderr`` of ``hexchan lattice`` per bad config, as lines."""
    cfg, out = tmp_path / "scenario.json", tmp_path / "o"
    lines = []
    for doc in bad_configs():
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["lattice", "--config", str(cfg), "--out", str(out)])
        lines.append(f"{code} {stderr.getvalue()!r}")
    return lines


def test_bad_configs_match_their_digest(tmp_path):
    lines = outcome_lines(tmp_path)
    assert [line for line in lines if not line.startswith("1 'error: ")] == []
    assert not (tmp_path / "o").exists()
    assert corpus_digest(lines) == expected_corpus_digest("bad-configs")


if __name__ == "__main__":
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        lines = outcome_lines(Path(tmp))
    if "--show" in sys.argv:
        print("\n".join(lines))
    write_corpus_digest("bad-configs", lines)
