"""Hexagonal cell lattice: integer indexing, center geometry, reuse neighborhoods.

Cells live on a doubled integer grid: cell (i, j) has its center at
(x0 + i * 3R/2, y0 + j * sqrt(3)R/2) and i + j must be even, which places
the centers on a triangular lattice of hexagons with circumradius R.

The squared center distance between two cells is

    d^2 = (3 R^2 / 4) * (3*di^2 + dj^2)

so every distance comparison reduces to an exact integer test on the
lattice metric 3*di^2 + dj^2.  Channel reuse is allowed at or beyond a
reuse distance, which corresponds to a metric of 16 for control traffic
(distance 2*sqrt(3)*R) and 12 for data traffic (distance 3R); cells
strictly inside the threshold interfere.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import NotInLatticeError

# Reuse-rule metric thresholds: interference iff 3*di^2 + dj^2 < threshold.
CONTROL_REUSE_METRIC = 16
DATA_REUSE_METRIC = 12


class CellIndex(namedtuple("CellIndex", "i j")):
    """Integer index (i, j) of a cell; i + j must be even.  A tuple equal to
    ``(i, j)``, so hashing and comparison run in C.  ``_make`` and
    ``_replace`` skip the parity check: use them for valid pairs only."""

    __slots__ = ()

    def __new__(cls, i: int, j: int) -> "CellIndex":
        if (i + j) % 2 != 0:
            raise ValueError(f"cell index ({i}, {j}) violates parity: i + j must be even")
        return tuple.__new__(cls, (i, j))

    def offset(self, di: int, dj: int) -> "CellIndex":
        return CellIndex(self.i + di, self.j + dj)


def row_major_key(cell: CellIndex) -> tuple[int, int]:
    """Sort key for the canonical cell ordering (by j, then i)."""
    return (cell.j, cell.i)


def extreme_cells(cells: Sequence[CellIndex]) -> tuple[CellIndex, ...]:
    """The first of ``cells`` with the least i, the least j, the greatest i
    and the greatest j, in that order.  ``cells`` must be non-empty."""
    i_values, j_values = zip(*cells)
    return tuple(cells[values.index(extreme(values))] for extreme in (min, max) for values in (i_values, j_values))


@dataclass(frozen=True)
class Lattice:
    """A finite set of cells with shared radius and Cartesian origin.

    ``cells`` is ordered row-major (by j, then i) and duplicate-free, and
    ``members`` holds them as a frozenset.  ``index_bound_n`` is the largest
    |i| or |j| among them, 0 for none.
    """

    radius_r: float
    origin: tuple[float, float]
    cells: tuple[CellIndex, ...]
    index_bound_n: int = field(init=False)
    members: frozenset[CellIndex] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.radius_r <= 0:
            raise ValueError("radius_r must be positive")
        members = frozenset(self.cells)
        if len(members) != len(self.cells):
            raise ValueError("duplicate cells in lattice")
        bound = max(max(abs(c.i), abs(c.j)) for c in extreme_cells(self.cells)) if self.cells else 0
        object.__setattr__(self, "index_bound_n", bound)
        object.__setattr__(self, "members", members)

    def __contains__(self, cell: CellIndex) -> bool:
        return cell in self.members

    def __len__(self) -> int:
        return len(self.cells)

    def require(self, cell: CellIndex) -> None:
        if cell not in self:
            raise NotInLatticeError(f"cell ({cell.i}, {cell.j}) is not in the lattice")


@dataclass(frozen=True)
class NeighborhoodPartition:
    """Cells strictly beyond / exactly at / strictly inside a reuse metric.

    The three sets partition the whole lattice; ``g_set`` contains the
    reference cell itself (metric 0) whenever the threshold is positive.
    """

    e_set: frozenset[CellIndex]
    f_set: frozenset[CellIndex]
    g_set: frozenset[CellIndex]


def build_lattice(index_bound_n: int, radius_r: float, origin: tuple[float, float] = (0.0, 0.0)) -> Lattice:
    """All parity-valid cells in the square index window [-N, N]^2.

    N = 0 gives the single cell (0, 0).  Cell count is 2*N^2 + 2*N + 1.
    """
    if index_bound_n < 0:
        raise ValueError("index_bound_n must be non-negative")
    n = index_bound_n
    cells = tuple(CellIndex._make((i, j)) for j in range(-n, n + 1) for i in range(-n + (n + j) % 2, n + 1, 2))
    return Lattice(radius_r=radius_r, origin=origin, cells=cells)


def lattice_from_cells(
    cells: Iterable[CellIndex], radius_r: float, origin: tuple[float, float] = (0.0, 0.0)
) -> Lattice:
    """Lattice over an explicit cell list, for irregular deployments; cells
    are reordered canonically."""
    ordered = tuple(sorted(set(cells), key=row_major_key))
    return Lattice(radius_r=radius_r, origin=origin, cells=ordered)


def twelve_cell_lattice(radius_r: float = 1.0, origin: tuple[float, float] = (0.0, 0.0)) -> Lattice:
    """Canonical 12-cell deployment: a 3-column by 4-row parity-valid block.

    This is the bundled small-network fixture used by the example configs
    and the test-suite.
    """
    cells = [CellIndex(i, j) for i in (0, 1, 2) for j in range(i % 2, 8, 2)]
    return lattice_from_cells(cells, radius_r=radius_r, origin=origin)


def center_of(lattice: Lattice, c: CellIndex) -> tuple[float, float]:
    """Cartesian center of a lattice cell."""
    lattice.require(c)
    x0, y0 = lattice.origin
    r = lattice.radius_r
    i, j = c
    return (x0 + i * (3.0 * r / 2.0), y0 + j * (math.sqrt(3.0) * r / 2.0))


def lattice_metric(a: CellIndex, b: CellIndex) -> int:
    """Integer metric 3*di^2 + dj^2; d^2 = (3 R^2 / 4) * metric."""
    di = a.i - b.i
    dj = a.j - b.j
    return 3 * di * di + dj * dj


def distance(lattice: Lattice, a: CellIndex, b: CellIndex) -> float:
    """Euclidean center distance, R * sqrt(3 * metric) / 2."""
    lattice.require(a)
    lattice.require(b)
    return lattice.radius_r * math.sqrt(3.0 * lattice_metric(a, b)) / 2.0


def neighborhood_sets(lattice: Lattice, c: CellIndex, metric_threshold: int) -> NeighborhoodPartition:
    """Partition the lattice around ``c`` by metric vs. ``metric_threshold``.

    E = strictly above, F = exactly at, G = strictly below (G holds ``c``
    itself when the threshold is positive).  Thresholds 16 and 12 give the
    control and data reuse neighborhoods.
    """
    lattice.require(c)
    e, f, g = [], [], []
    for other in lattice.cells:
        m = lattice_metric(c, other)
        if m > metric_threshold:
            e.append(other)
        elif m == metric_threshold:
            f.append(other)
        else:
            g.append(other)
    return NeighborhoodPartition(e_set=frozenset(e), f_set=frozenset(f), g_set=frozenset(g))


def _window_offsets(metric_threshold: int) -> Iterator[tuple[int, int, int]]:
    """Parity-valid (di, dj, metric) over the bounded integer window that
    holds every displacement with metric <= ``metric_threshold``."""
    bound = int(math.isqrt(metric_threshold)) + 1
    for di in range(-bound, bound + 1):
        for dj in range(-bound, bound + 1):
            if (di + dj) % 2 == 0:
                yield di, dj, 3 * di * di + dj * dj


def boundary_f_offsets(metric_threshold: int) -> tuple[tuple[int, int], ...]:
    """All (di, dj) displacements at exactly the given metric.

    Solved by direct enumeration over the bounded integer window; at the
    thresholds 16 and 12 this yields the six-displacement reuse rings.
    """
    return tuple(sorted((di, dj) for di, dj, m in _window_offsets(metric_threshold) if m == metric_threshold))


@functools.cache
def interference_offsets(metric_threshold: int) -> tuple[tuple[int, int], ...]:
    """All nonzero (di, dj) displacements strictly inside the given metric:
    the cells a cell interferes with, relative to it (12 for control, 6 for
    data).  Cached per threshold: every graph build reads it."""
    return tuple(sorted((di, dj) for di, dj, m in _window_offsets(metric_threshold) if 0 < m < metric_threshold))
