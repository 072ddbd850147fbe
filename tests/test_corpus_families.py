"""Seeded families of valid configs, each pinned by one digest of what the
four commands write for them.

``windows``: a full window for each N = 0..16, twice.  ``sparse``: 32
shuffled ``lattice.cells`` lists of 1..300 cells.  In both, every cell
holds a PAN with SO <= BO <= 6 and a phase in 0..BI (so phase = BI occurs),
the domains take turns, and every other config has a ``per_pan`` workload.
A sparse list's density d is the expected number of metric-12 neighbours
of a cell, 0.15..1.2: its n cells are drawn from the lattice sites of a
square index box holding about 6n / d sites, 6 being the neighbours of a
cell in a full lattice.

Each config runs through ``lattice``, ``static``, ``dynamic`` and
``evaluate``, each into a fresh output directory; the digest covers every
run's exit code and the name and SHA-256 of each report it wrote.  The
generators use only integer draws from ``random.Random``, so they build the
same configs on every supported Python.  A change that alters a family's
outcome on purpose says so in CHANGES.md and regenerates that family's
digest, keeping the others, with
``PYTHONPATH=src python tests/test_corpus_families.py [family]``.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import pytest
from conftest import corpus_digest, expected_corpus_digest, write_corpus_digest

from hexchan.cli import main

COMMANDS = ("lattice", "static", "dynamic", "evaluate")
DOMAINS = ("Europe", "Japan", "US")


def window_cells(n):
    return [[i, j] for j in range(-n, n + 1) for i in range(-n, n + 1) if (i + j) % 2 == 0]


def with_pans(rng, doc, cells, k):
    """``doc`` with a PAN in every cell, domain ``k`` mod 3 and, for odd
    ``k``, a ``per_pan`` workload of 1..3 requests of 1..9 slots per PAN."""
    superframes = []
    for cell in cells:
        bo = rng.randint(0, 6)
        superframes.append({"cell": cell, "SO": rng.randint(0, bo), "BO": bo, "phase": rng.randint(0, 1 << bo)})
    doc.update(domain=DOMAINS[k % 3], superframes=superframes)
    if k % 2:
        per_pan = [{"cell": c, "slots": [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]} for c in cells]
        doc["workload"] = {"per_pan": per_pan}
    return doc


def windows(seed=32):
    rng = random.Random(seed)
    for k in range(34):
        n = k // 2
        yield with_pans(rng, {"lattice": {"index_bound_N": n, "radius_R": 1.0}}, window_cells(n), k)


def sparse(seed=33):
    rng = random.Random(seed)
    for k in range(32):
        count, percent = rng.randint(1, 300), rng.randint(15, 120)
        # An s x s index box holds about s * s / 2 sites.
        s = math.isqrt(2 * 600 * count // percent) + 1
        sites = [[i - s // 2 * 2, j] for j in range(s) for i in range(s) if (i + j) % 2 == 0]
        cells = rng.sample(sites, count)
        yield with_pans(rng, {"lattice": {"cells": cells, "radius_R": 1.0}}, cells, k)


FAMILIES = {"windows": windows, "sparse": sparse}


def outcome_lines(family, tmp_path):
    """Per config and command, ``k command exit-code`` followed by the name
    and SHA-256 of each report, sorted by name."""
    lines = []
    for k, doc in enumerate(FAMILIES[family]()):
        cfg = tmp_path / f"{k}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        for command in COMMANDS:
            out = tmp_path / f"{k}-{command}"
            with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(cfg), "--out", str(out)])
            reports = sorted(out.iterdir()) if out.exists() else []
            digests = [f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}" for p in reports]
            lines.append(" ".join([str(k), command, str(code), *digests]))
    return lines


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_corpus_family_matches_its_digest(tmp_path, family):
    assert corpus_digest(outcome_lines(family, tmp_path)) == expected_corpus_digest(family)


if __name__ == "__main__":
    import sys
    import tempfile

    for family in sys.argv[1:] or sorted(FAMILIES):
        with tempfile.TemporaryDirectory() as tmp:
            write_corpus_digest(family, outcome_lines(family, Path(tmp)))
