"""Seeded scenario generators for the three benchmark workloads.

A workload is a list of ``(name, config)`` pairs, where ``config`` is either
the path of a bundled config or a JSON document in the format `hexchan`
reads.  The duty cycles (SO, BO) of every generated deployment are drawn
from a fixed stream; ``--seed`` draws the phases and, on small-nets, which
cell gets which duty cycle.  So every seed has the same U and the same
number of active PAN-cycles per PAN, and the run-to-run spread measures the
host and the program rather than the amount of input.
"""

from __future__ import annotations

import random
from pathlib import Path

DOMAINS = ("Europe", "Japan", "US")
BUNDLED = ("reference-12pan", "block-n2")


def window_cells(n: int) -> list[tuple[int, int]]:
    """Parity-valid cells of the index window [-n, n]^2, row-major."""
    return [(i, j) for j in range(-n, n + 1) for i in range(-n, n + 1) if (i + j) % 2 == 0]


def roadmap_duty(n: int, bomax: int) -> list[tuple[int, int]]:
    """(SO, BO) per cell from the ROADMAP generator: ``random.Random(1)``,
    then per cell bo = randint(2, bomax), so = randint(0, bo), phase =
    randint(0, 3).  The phase draw is consumed to keep the stream's order."""
    rng = random.Random(1)
    duty = []
    for _ in window_cells(n):
        bo = rng.randint(2, bomax)
        duty.append((rng.randint(0, bo), bo))
        rng.randint(0, 3)
    return duty


def window_config(n: int, duty: list[tuple[int, int]], phases: list[int], domain: str) -> dict:
    """Config for the full window N with one PAN per cell, in row-major order."""
    return {
        "lattice": {"index_bound_N": n, "radius_R": 1.0, "origin": [0.0, 0.0]},
        "domain": domain,
        "superframes": [
            {"cell": [i, j], "SO": so, "BO": bo, "phase": phase}
            for (i, j), (so, bo), phase in zip(window_cells(n), duty, phases)
        ],
    }


def small_nets(seed: int, root: Path, tiny: bool = False) -> list[tuple[str, object]]:
    """Both bundled configs plus 40 small windows: N = 1..3, BO <= 6, every
    domain.  Per-invocation costs dominate.  The seed shuffles each window's
    duty cycles over its cells and draws phases 0..3."""
    scenarios: list[tuple[str, object]] = [(name, root / "configs" / f"{name}.json") for name in BUNDLED]
    rng = random.Random(seed)
    for k in range(3 if tiny else 40):
        n = 1 + k % 3
        duty_rng = random.Random(1000 + k)
        duty = []
        for _ in window_cells(n):
            bo = duty_rng.randint(1, 6)
            duty.append((duty_rng.randint(0, bo), bo))
        rng.shuffle(duty)
        phases = [rng.randint(0, 3) for _ in duty]
        scenarios.append((f"small-{k:02d}", window_config(n, duty, phases, DOMAINS[k // 3 % 3])))
    return scenarios


def deep_cycles(seed: int, root: Path, tiny: bool = False) -> list[tuple[str, object]]:
    """The ROADMAP generator's full windows N = 4 and 5 (BO up to 10, U =
    1024), with the seed drawing every phase in 0..3.  Per-cycle allocation
    and writers dominate."""
    rng = random.Random(seed)
    scenarios = []
    for n, bomax in ((2, 5),) if tiny else ((4, 10), (5, 10)):
        duty = roadmap_duty(n, bomax)
        phases = [rng.randint(0, 3) for _ in duty]
        scenarios.append((f"deep-n{n}", window_config(n, duty, phases, "US")))
    return scenarios


def wide_sparse(seed: int, root: Path, tiny: bool = False) -> list[tuple[str, object]]:
    """Windows N = 8, 12, 16 (145..545 PANs) with SO in {0, 1}, BO 5..7 and
    the seed drawing every phase uniformly in [0, BI).  Pairwise graph
    builds and per-PAN writers dominate; most colored components are single
    PANs."""
    rng = random.Random(seed)
    scenarios = []
    for n in (3,) if tiny else (8, 12, 16):
        duty_rng = random.Random(n)
        duty = [(duty_rng.randint(0, 1), duty_rng.randint(5, 7)) for _ in window_cells(n)]
        phases = [rng.randrange(1 << bo) for _, bo in duty]
        scenarios.append((f"wide-n{n}", window_config(n, duty, phases, "US")))
    return scenarios


WORKLOADS = {"small-nets": small_nets, "deep-cycles": deep_cycles, "wide-sparse": wide_sparse}
