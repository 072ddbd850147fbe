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
import operator
from collections import namedtuple
from itertools import chain, repeat
from typing import Iterable

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


def row_major_key(cell: CellIndex) -> tuple[int, int]:
    """Sort key for the canonical cell ordering (by j, then i)."""
    return (cell.j, cell.i)


class Lattice:
    """A finite set of cells with shared radius and Cartesian origin.

    ``cells`` is strictly increasing row-major (by j, then i), so
    duplicate-free, and each center (see ``center_of``) is a finite float;
    the constructor raises ``ValueError`` otherwise.  ``members`` holds them
    as a frozenset.  ``len(lattice)`` is the cell count.  Lattices are
    immutable and equal when their radius, origin and cells are.
    """

    __slots__ = ("radius_r", "origin", "cells", "members")

    def __init__(self, radius_r: float, origin: tuple[float, float], cells: tuple[CellIndex, ...]) -> None:
        if radius_r <= 0:
            raise ValueError("radius_r must be positive")
        i_values, j_values = zip(*cells) if cells else ((), ())
        if not all(map(operator.lt, zip(j_values, i_values), zip(j_values[1:], i_values[1:]))):
            raise ValueError("lattice cells must be row-major (by j, then i) and duplicate-free")
        # x grows with i and y with j, so the cells of extreme i and j decide: the first with
        # the least i, the least j, the greatest i and the greatest j, checked in that order.
        (x0, y0), dx, dy = origin, 3.0 * radius_r / 2.0, math.sqrt(3.0) * radius_r / 2.0
        try:
            for pick, values in ((min, i_values), (min, j_values), (max, i_values), (max, j_values)) if cells else ():
                i, j = cells[values.index(pick(values))]
                if not (math.isfinite(x0 + i * dx) and math.isfinite(y0 + j * dy)):
                    raise OverflowError
        except OverflowError:  # also raised by an index past the float range
            raise ValueError(f"the center of cell ({i}, {j}) overflows the float range") from None
        for name, value in zip(self.__slots__, (radius_r, origin, cells, frozenset(cells))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"Lattice.{name} is read-only: lattices are immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return (self.radius_r, self.origin, self.cells)

    def __eq__(self, other) -> bool:
        return type(other) is Lattice and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __contains__(self, cell: CellIndex) -> bool:
        return cell in self.members

    def __len__(self) -> int:
        return len(self.cells)

    def require(self, cell: CellIndex) -> None:
        if cell not in self:
            raise NotInLatticeError(f"cell ({cell.i}, {cell.j}) is not in the lattice")


def build_lattice(index_bound_n: int, radius_r: float, origin: tuple[float, float] = (0.0, 0.0)) -> Lattice:
    """All parity-valid cells in the square index window [-N, N]^2.

    N = 0 gives the single cell (0, 0).  Cell count is 2*N^2 + 2*N + 1.
    """
    if index_bound_n < 0:
        raise ValueError("index_bound_n must be non-negative")
    n = index_bound_n
    rows = (zip(range(-n + (n + j) % 2, n + 1, 2), repeat(j)) for j in range(-n, n + 1))
    cells = tuple(map(tuple.__new__, repeat(CellIndex), chain.from_iterable(rows)))
    return Lattice(radius_r=radius_r, origin=origin, cells=cells)


def lattice_from_cells(
    cells: Iterable[CellIndex], radius_r: float, origin: tuple[float, float] = (0.0, 0.0)
) -> Lattice:
    """Lattice over an explicit cell list, for irregular deployments; cells
    are reordered canonically, in linear time if they come in that order."""
    ordered = tuple(sorted(dict.fromkeys(cells), key=row_major_key))
    return Lattice(radius_r=radius_r, origin=origin, cells=ordered)


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


@functools.cache
def interference_offsets(metric_threshold: int) -> tuple[tuple[int, int], ...]:
    """All nonzero (di, dj) displacements strictly inside the given metric:
    the cells a cell interferes with, relative to it (12 for control, 6 for
    data), sorted.  Enumerated over the parity-valid window that holds them;
    cached per threshold: every graph build reads it."""
    bound = math.isqrt(metric_threshold)
    origin = CellIndex._make((0, 0))
    return tuple(
        (di, dj)
        for di in range(-bound, bound + 1)
        for dj in range(-bound, bound + 1)
        if (di + dj) % 2 == 0 and 0 < lattice_metric(CellIndex._make((di, dj)), origin) < metric_threshold
    )
