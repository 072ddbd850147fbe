import math
import random

import pytest

from hexchan.errors import NotInLatticeError
from hexchan.lattice import (
    CONTROL_REUSE_METRIC,
    DATA_REUSE_METRIC,
    CellIndex,
    boundary_f_offsets,
    build_lattice,
    center_of,
    distance,
    extreme_cells,
    lattice_from_cells,
    lattice_metric,
    neighborhood_sets,
    row_major_key,
    twelve_cell_lattice,
)

C = CellIndex


def test_cell_index_rejects_odd_parity():
    with pytest.raises(ValueError):
        C(1, 0)
    with pytest.raises(ValueError):
        C(0, 3)


def test_cell_index_is_a_tuple_record():
    cell = C(1, 1)
    assert cell == (1, 1) and hash(cell) == hash((1, 1))
    assert (cell.i, cell.j) == (1, 1) and cell.offset(1, -1) == C(2, 0)
    assert repr(cell) == "CellIndex(i=1, j=1)"
    with pytest.raises(AttributeError):
        cell.i = 3
    with pytest.raises(AttributeError):
        cell.k = 0
    with pytest.raises(ValueError, match=r"cell index \(2, 1\) violates parity"):
        C(2, 1)
    # a plain pair finds the cell in a lattice
    assert (1, 1) in build_lattice(1, 1.0)


def test_extreme_cells_take_the_first_of_ties():
    cells = (C(0, -2), C(-1, -1), C(1, -1), C(-1, 1), C(1, 1), C(0, 2))
    # least i, least j, greatest i, greatest j
    assert extreme_cells(cells) == (C(-1, -1), C(0, -2), C(1, -1), C(0, 2))
    assert lattice_from_cells(cells, 1.0).index_bound_n == 2
    assert build_lattice(3, 1.0).index_bound_n == 3 and lattice_from_cells([], 1.0).index_bound_n == 0


def test_build_lattice_n0_is_origin_only():
    lat = build_lattice(0, 1.0)
    assert lat.cells == (C(0, 0),)


def test_build_lattice_n1_enumeration():
    # oracle: enumerate [-1,1]^2 under parity
    expected = {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i + j) % 2 == 0}
    lat = build_lattice(1, 2.0)
    assert {(c.i, c.j) for c in lat.cells} == expected
    assert expected == {(0, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)}


@pytest.mark.parametrize("n", range(0, 7))
def test_build_lattice_cardinality(n):
    # half of the (2n+1)^2 index window satisfies the parity rule
    assert len(build_lattice(n, 1.0)) == 2 * n * n + 2 * n + 1


def test_build_lattice_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_lattice(-1, 1.0)
    with pytest.raises(ValueError):
        build_lattice(2, 0.0)


def test_build_lattice_row_major_order():
    lat = build_lattice(2, 1.0)
    assert list(lat.cells) == sorted(lat.cells, key=row_major_key)


def test_center_of_known_points():
    lat = build_lattice(4, 1.0)
    assert center_of(lat, C(0, 0)) == (0.0, 0.0)
    x, y = center_of(lat, C(1, 1))
    assert x == pytest.approx(1.5)
    assert y == pytest.approx(math.sqrt(3) / 2)
    # oracle: substitute into the center formulas
    assert center_of(lat, C(0, 4)) == pytest.approx((0.0, 2 * math.sqrt(3)))
    assert center_of(lat, C(2, 2)) == pytest.approx((3.0, math.sqrt(3)))


def test_center_of_respects_origin_and_radius():
    lat = build_lattice(2, 2.5, origin=(10.0, -4.0))
    x, y = center_of(lat, C(2, 0))
    assert x == pytest.approx(10.0 + 2 * 1.5 * 2.5)
    assert y == pytest.approx(-4.0)


def test_center_of_unknown_cell():
    lat = build_lattice(1, 1.0)
    with pytest.raises(NotInLatticeError):
        center_of(lat, C(4, 4))


def test_lattice_metric_values():
    assert lattice_metric(C(0, 0), C(0, 0)) == 0
    assert lattice_metric(C(2, 2), C(0, 0)) == 16
    assert lattice_metric(C(1, 3), C(0, 0)) == 12
    assert lattice_metric(C(0, 4), C(0, 0)) == 16


def test_distance_values():
    lat = build_lattice(4, 1.0)
    assert distance(lat, C(2, 2), C(2, 2)) == 0.0
    # the control reuse distance 2*sqrt(3)*R
    assert distance(lat, C(0, 0), C(0, 4)) == pytest.approx(2 * math.sqrt(3), rel=1e-12)
    # the data reuse distance 3R
    assert distance(lat, C(0, 0), C(2, 0)) == pytest.approx(3.0, rel=1e-12)


def test_distance_requires_membership():
    lat = build_lattice(1, 1.0)
    with pytest.raises(NotInLatticeError):
        distance(lat, C(0, 0), C(0, 4))


def test_metric_distance_identity_random_pairs():
    rng = random.Random(42)
    for _ in range(200):
        r = rng.uniform(0.1, 10.0)
        lat = build_lattice(5, r)
        a, b = rng.choice(lat.cells), rng.choice(lat.cells)
        d = distance(lat, a, b)
        m = lattice_metric(a, b)
        assert d * d == pytest.approx(0.75 * r * r * m, rel=1e-12, abs=1e-15)


def test_parity_closure():
    lat = build_lattice(3, 1.0)
    for a in lat.cells:
        for b in lat.cells:
            assert ((a.i - b.i) + (a.j - b.j)) % 2 == 0


def test_f_set_control_threshold_origin():
    lat = build_lattice(4, 1.0)
    part = neighborhood_sets(lat, C(0, 0), CONTROL_REUSE_METRIC)
    expected = {C(0, 4), C(2, 2), C(2, -2), C(0, -4), C(-2, -2), C(-2, 2)}
    assert part.f_set == expected


def test_f_set_data_threshold_interior_cell():
    lat = build_lattice(6, 1.0)
    i, j = 1, 1
    part = neighborhood_sets(lat, C(i, j), DATA_REUSE_METRIC)
    expected = {
        C(i - 1, j - 3), C(i + 1, j - 3), C(i - 1, j + 3),
        C(i + 1, j + 3), C(i - 2, j), C(i + 2, j),
    }
    assert part.f_set == expected


def test_g_set_data_threshold_is_seven_cell_cluster():
    lat = build_lattice(6, 1.0)
    i, j = 2, 4
    part = neighborhood_sets(lat, C(i, j), DATA_REUSE_METRIC)
    expected = {
        C(i, j), C(i, j + 2), C(i, j - 2),
        C(i + 1, j + 1), C(i - 1, j - 1), C(i - 1, j + 1), C(i + 1, j - 1),
    }
    assert part.g_set == expected


def test_neighborhood_threshold_zero():
    lat = build_lattice(2, 1.0)
    part = neighborhood_sets(lat, C(0, 0), 0)
    assert part.f_set == {C(0, 0)}
    assert part.g_set == frozenset()
    assert part.e_set == set(lat.cells) - {C(0, 0)}


@pytest.mark.parametrize("threshold", [0, 4, 12, 16, 25])
def test_neighborhood_sets_partition_property(threshold):
    lat = build_lattice(3, 1.0)
    for cell in lat.cells:
        part = neighborhood_sets(lat, cell, threshold)
        assert part.e_set | part.f_set | part.g_set == set(lat.cells)
        assert not (part.e_set & part.f_set)
        assert not (part.e_set & part.g_set)
        assert not (part.f_set & part.g_set)


def test_neighborhood_translation_invariance():
    lat = build_lattice(4, 1.0)
    ref = neighborhood_sets(lat, C(0, 0), DATA_REUSE_METRIC)
    for cell in (C(1, 1), C(-2, 2), C(2, 0)):
        part = neighborhood_sets(lat, cell, DATA_REUSE_METRIC)
        shifted = {C(c.i - cell.i, c.j - cell.j) for c in part.g_set}
        in_bounds = {c for c in ref.g_set if C(c.i + cell.i, c.j + cell.j) in lat}
        assert shifted == in_bounds


def test_boundary_f_offsets_at_both_thresholds():
    assert set(boundary_f_offsets(16)) == {(2, 2), (2, -2), (-2, 2), (-2, -2), (0, 4), (0, -4)}
    assert set(boundary_f_offsets(12)) == {(1, 3), (1, -3), (-1, 3), (-1, -3), (2, 0), (-2, 0)}


def test_lattice_from_cells_orders_and_bounds():
    lat = lattice_from_cells([C(2, 6), C(0, 0), C(1, 1)], 1.0)
    assert lat.cells == (C(0, 0), C(1, 1), C(2, 6))
    assert lat.index_bound_n == 6
    assert C(1, 1) in lat and C(0, 2) not in lat


def test_twelve_cell_lattice_shape():
    lat = twelve_cell_lattice()
    assert len(lat) == 12
    assert {(c.i, c.j) for c in lat.cells} == {
        (0, 0), (0, 2), (0, 4), (0, 6),
        (1, 1), (1, 3), (1, 5), (1, 7),
        (2, 0), (2, 2), (2, 4), (2, 6),
    }
