import hashlib
import json
import random
from pathlib import Path

import pytest

from hexchan.evaluate import delay_decrease_percent, makespan
from hexchan.interference import interference_rows
from hexchan.lattice import lattice_from_cells

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"
TEST_CONFIG_DIR = Path(__file__).resolve().parent / "configs"
CORPUS_DIGESTS = Path(__file__).resolve().parent / "corpus_digests.json"


def corpus_digest(lines) -> str:
    """SHA-256 of a corpus family's outcome lines, one digest per family."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def expected_corpus_digest(family: str) -> str:
    return json.loads(CORPUS_DIGESTS.read_text(encoding="utf-8"))[family]


def write_corpus_digest(family: str, lines) -> None:
    """Set the digest of one family in ``corpus_digests.json`` and keep the others."""
    digests = json.loads(CORPUS_DIGESTS.read_text(encoding="utf-8"))
    digests[family] = corpus_digest(lines)
    CORPUS_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {family} to {CORPUS_DIGESTS}")


def graph_from_edges(cells, edges):
    """``(cells, rows)`` of the graph on ``cells``, in the given order, with
    the given edges between them; for graphs a test draws itself."""
    cells = tuple(cells)
    position = {v: p for p, v in enumerate(cells)}
    assert len(position) == len(cells), "duplicate cells"
    rows = [0] * len(cells)
    for a, b in edges:
        assert a != b, "self-loop"
        rows[position[a]] |= 1 << position[b]
        rows[position[b]] |= 1 << position[a]
    return cells, tuple(rows)


def lattice_graph(cells, threshold):
    """``(cells, rows)`` of the interference graph on ``cells``, the cells in
    lattice order."""
    lattice = lattice_from_cells(cells, 1.0)
    return lattice.cells, interference_rows(lattice, threshold)


def roadmap_config(n: int, bomax: int = 10, domain: str = "US") -> dict:
    """Full index window N with one PAN per cell in row-major order, drawn
    with ``random.Random(1)``: per cell bo = randint(2, bomax), so =
    randint(0, bo), phase = randint(0, 3)."""
    rng = random.Random(1)
    superframes = []
    for j in range(-n, n + 1):
        for i in range(-n, n + 1):
            if (i + j) % 2:
                continue
            bo = rng.randint(2, bomax)
            so = rng.randint(0, bo)
            superframes.append({"cell": [i, j], "SO": so, "BO": bo, "phase": rng.randint(0, 3)})
    return {
        "lattice": {"index_bound_N": n, "radius_R": 1.0, "origin": [0.0, 0.0]},
        "domain": domain,
        "superframes": superframes,
    }


@pytest.fixture(scope="session")
def reference_config_path():
    return CONFIG_DIR / "reference-12pan.json"


@pytest.fixture(scope="session")
def block_config_path():
    return CONFIG_DIR / "block-n2.json"


def scheme_entries(report, configs, scenario) -> dict:
    """{(pan, cycle): (channels, makespan, delay decrease)} over the active
    cycles of one ``SchemeReport``, read from its per-PAN columns, with the
    makespan and delay decrease computed from the PAN's requests in
    ``scenario``."""
    entries = {}
    for pan, (cfg, cycles, counts) in enumerate(zip(configs, report.active_cycles, report.channel_counts)):
        requests = scenario.per_pan[cfg.pan_cell]
        for t, count in zip(cycles, counts):
            slots = makespan(requests, count)
            entries[pan, t] = (count, slots, delay_decrease_percent(makespan(requests, 1), slots))
    return entries
