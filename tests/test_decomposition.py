import dataclasses
import json
import math

import numpy as np
import pytest
from conftest import (
    check_whitney_properties,
    random_cell_union,
    random_grid_function,
    whitney_depth,
)

from rieszlab import decomposition as D
from rieszlab import measures as M
from rieszlab.errors import DomainError


def test_cube_geometry():
    q = D.DyadicCube(2, (3, -1))
    assert q.n == 2 and q.coords == (3, -1)
    assert q.side == 0.25
    # negative level: side 4 squares
    big = D.DyadicCube(-2, (1,))
    assert big.n == 1 and big.side == 4.0
    assert D.DyadicCube.from_json_dict(q.to_json_dict()) == q
    # the box type only: cube geometry lives on (level, coords) table rows
    for name in ("diameter", "volume", "corner", "center", "ancestor"):
        assert not hasattr(q, name)


def test_cube_ancestor_nesting():
    # the level-j ancestor of row (k, m) is (j, m >> (k - j)): an arithmetic
    # shift, so a floor also for negative coordinates
    row = np.array([13, -7], dtype=np.int64)
    assert (row >> (4 - 2)).tolist() == [3, -2]
    # dyadic dichotomy: sample cube pairs are either nested or disjoint
    gen = np.random.default_rng(8)
    for _ in range(200):
        k1, k2 = int(gen.integers(0, 5)), int(gen.integers(0, 5))
        m1 = gen.integers(-8, 8, size=2)
        m2 = gen.integers(-8, 8, size=2)
        (j, a), (k, b) = ((k1, m1), (k2, m2)) if k1 <= k2 else ((k2, m2), (k1, m1))
        nested = np.array_equal(b >> (k - j), a)
        lo1, hi1 = a * 2.0**-j, (a + 1) * 2.0**-j
        lo2, hi2 = b * 2.0**-k, (b + 1) * 2.0**-k
        overlap = np.all(np.maximum(lo1, lo2) < np.minimum(hi1, hi2))
        assert overlap == nested


def test_cube_validation():
    with pytest.raises(DomainError):
        D.DyadicCube(0.5, (0,))
    with pytest.raises(DomainError):
        D.DyadicCube(0, ())


def test_cell_union_canonical_and_json():
    u = D.CellUnion(2, 1, ((3, 1), (0, 0), (3, 1)))
    assert u.cells.tolist() == [[0, 0], [3, 1]]
    assert u.count == 2
    assert u.measure == 2 * 0.25
    back = D.cells_from_json(D.cells_to_json(u))
    assert (back.n, back.level) == (u.n, u.level)
    assert back.cells.tolist() == u.cells.tolist()
    with pytest.raises(DomainError):
        D.CellUnion(2, 0, ((0,),))
    with pytest.raises(DomainError):
        D.cells_from_json("[not json")
    with pytest.raises(DomainError):
        D.cells_from_json(json.dumps({"n": 1, "cells": []}))


@pytest.mark.parametrize(
    "n,level,cells",
    [
        (2.5, 1, [[0, 0], [1, 1]]),
        (True, 1, [[0], [1]]),
        (2, 0.5, [[0, 0], [1, 1]]),
        (2, False, [[0, 0], [1, 1]]),
        (2, 1, [[0.5, 0], [0, 0]]),
    ],
)
def test_cells_json_rejects_non_integer_fields(n, level, cells):
    # each was once read through int(): 2.5 as 2, true as 1, and the cell
    # [0.5, 0] merged into [0, 0]
    doc = {"n": n, "L": level, "cells": cells}
    with pytest.raises(DomainError):
        D.cells_from_json(json.dumps(doc))


def test_cell_union_table_sorted_unique_read_only():
    # an unsorted int64 table with duplicates and negative coordinates
    table = np.array(
        [[2, -1], [-3, 5], [2, -1], [-3, -5], [0, 0], [-3, 5]], dtype=np.int64
    )
    u = D.CellUnion(2, 0, table)
    assert u.cells.tolist() == [[-3, -5], [-3, 5], [0, 0], [2, -1]]
    assert u.cells.dtype == np.int64 and u.cells.shape == (4, 2)
    assert not u.cells.flags.writeable
    with pytest.raises(ValueError):
        u.cells[0, 0] = 7
    # the caller's table is neither reordered nor frozen
    assert table.flags.writeable and table[0].tolist() == [2, -1]
    # lists of tuples give the same table, and so does the JSON round trip
    same = D.CellUnion(2, 0, [tuple(r) for r in table.tolist()[::-1]])
    assert same.cells.tolist() == u.cells.tolist()
    assert D.cells_from_json(D.cells_to_json(u)).cells.tolist() == u.cells.tolist()
    empty = D.CellUnion(3, 0, [])
    assert empty.cells.shape == (0, 3) and empty.count == 0


@pytest.mark.parametrize(
    "cells", [[[0, True]], [[0, 2.0]], [[0, 2**63]], [[-(2**63) - 1, 0]], [[]]]
)
def test_cell_union_refuses_non_int64_entries(cells):
    # np.asarray([[0, True]]) would read true as 1 and 2.0 as 2
    with pytest.raises(DomainError):
        D.CellUnion(2, 0, cells)
    with pytest.raises(DomainError):
        D.cells_from_json(json.dumps({"n": 2, "L": 0, "cells": cells}))


def test_grid_and_cube_json_reject_non_integer_levels():
    box = {"level": 0, "coords": [0]}
    doc = {"n": 1, "L": 1, "box": box, "values": [1.0, 2.0]}
    D.grid_from_json(json.dumps(doc))
    for bad in ({"L": 1.0}, {"box": {"level": 0.0, "coords": [0]}},
                {"box": {"level": 0, "coords": [0.25]}}):
        with pytest.raises(DomainError):
            D.grid_from_json(json.dumps({**doc, **bad}))


def test_whitney_unit_interval_frozen():
    # U = [0,1) cut at depth 6: the cube ladder doubles away from each
    # endpoint and exactly two cells per side are left at the cutoff
    cubes, residual = D.whitney_decompose(D.CellUnion(1, 0, ((0,),)), 6)
    # cube rows are (level, coordinate)
    assert cubes.tolist() == [
        [3, 2], [3, 3], [3, 4], [3, 5],
        [4, 2], [4, 3], [4, 12], [4, 13],
        [5, 2], [5, 3], [5, 28], [5, 29],
        [6, 2], [6, 3], [6, 60], [6, 61],
    ]
    # residual rows are level-6 coordinates
    assert residual.tolist() == [[0], [1], [62], [63]]
    per_side = len(residual) * 2.0**-6 / 2.0
    assert per_side <= 2 * 2.0**-6
    for k, m in cubes.tolist():
        # 2n - 1 = 1: distance to the complement of [0,1) is exact here
        side = 2.0**-k
        left = m * side
        dist = min(left, 1.0 - (left + side))
        assert side <= dist + 1e-15


def test_whitney_square_residual_decreases():
    u = D.CellUnion(2, 0, ((0, 0),))
    cubes4, res4 = D.whitney_decompose(u, 4)
    cubes8, res8 = D.whitney_decompose(u, 8)
    m4 = len(res4) * 4.0**-4
    m8 = len(res8) * 4.0**-8
    assert m8 < m4
    check_whitney_properties(u, cubes4, res4, 4)
    check_whitney_properties(u, cubes8, res8, 8)


def test_whitney_validation():
    with pytest.raises(DomainError):
        D.whitney_decompose(D.CellUnion(1, 0, ()), 4)
    with pytest.raises(DomainError):
        D.whitney_decompose(D.CellUnion(1, 2, ((0,),)), 1)
    with pytest.raises(DomainError):
        D.whitney_decompose(D.CellUnion(1, 0, ((0,),)), 40)


def test_whitney_random_sets_exact_properties():
    gen = np.random.default_rng(101)
    for trial in range(50):
        n = 1 + trial % 3
        u = random_cell_union(gen, n)
        depth = whitney_depth(u)
        cubes, residual = D.whitney_decompose(u, depth)
        check_whitney_properties(u, cubes, residual, depth)


def test_grid_function_basics():
    box = D.DyadicCube(0, (0, 0))
    vals = np.arange(16.0).reshape(4, 4) / 8.0
    f = D.GridFunction(2, box, vals)
    assert f.n == 2
    assert f.cell_volume == 2.0**-4
    assert f.l1_norm == pytest.approx(np.sum(vals) * 2.0**-4, rel=1e-15)
    assert f.sup_norm == 15 / 8
    fine = f.refined_values(3)
    assert fine.shape == (8, 8)
    assert fine[5, 5] == vals[2, 2]
    back = D.grid_from_json(D.grid_to_json(f))
    assert back.level == f.level and back.box == f.box
    assert np.array_equal(back.values, f.values)


def test_grid_function_validation():
    box = D.DyadicCube(0, (0,))
    with pytest.raises(DomainError):
        D.GridFunction(-1, box, [1.0])
    with pytest.raises(DomainError):
        D.GridFunction(1, box, [1.0])  # wrong cell count
    with pytest.raises(DomainError):
        D.GridFunction(1, box, [1.0, -0.5])
    with pytest.raises(DomainError):
        D.GridFunction(1, box, [1.0, math.inf])


def test_cells_above_strict():
    box = D.DyadicCube(0, (-1,))
    f = D.GridFunction(1, box, [0.5, 1.0])
    u = D.cells_above(f, 0.5)
    assert u.cells.tolist() == [[-1]]  # strict inequality, absolute coordinates
    assert D.cells_above(f, 1.0).count == 0


def test_cz_saturating_example():
    box = D.DyadicCube(0, (0, 0))
    lam = 0.5
    f = D.GridFunction(3, box, np.full((8, 8), 2 * lam))
    cz = D.cz_decompose(f, lam, 6)
    assert cz.good.sup_norm == 0.0
    assert math.fsum(2.0 ** (-2 * cz.pieces[:, 0])) == 1.0 <= f.l1_norm / lam
    assert cz.bad_l1 == f.l1_norm == M.total_variation(cz.point_masses)
    rec = cz.reconstruct()
    assert np.array_equal(rec.values, f.refined_values(rec.level))


def test_cz_degenerate_below_threshold():
    box = D.DyadicCube(0, (0, 0))
    f = D.GridFunction(2, box, np.full((4, 4), 0.1))
    cz = D.cz_decompose(f, 1.0, 4)
    assert cz.pieces.shape == (0, 3) and cz.point_masses is None
    assert cz.residual_count == 0 and cz.bad_l1 == 0.0
    assert np.array_equal(cz.good.values, f.values)
    assert cz.residual_measure == 0.0
    assert cz.to_json_dict()["measure"] == {"n": 2, "masses": []}


def test_cz_validation():
    box = D.DyadicCube(0, (0,))
    f = D.GridFunction(2, box, [1.0, 2.0, 3.0, 4.0])
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            D.cz_decompose(f, bad, 4)
    # max_depth is checked whether or not any cell exceeds the threshold
    for lam in (0.15, 10.0):
        for bad in (-7, 1, 0.5, 3.0):
            with pytest.raises(DomainError):
                D.cz_decompose(f, lam, bad)


def test_cz_random_grids_cell_exact():
    gen = np.random.default_rng(202)
    for trial in range(20):
        n = 1 + trial % 3
        f = random_grid_function(gen, n)
        positive = f.values[f.values > 0]
        if positive.size == 0:
            continue
        lam = float(np.median(positive))
        if lam >= f.sup_norm:
            lam = f.sup_norm / 2.0
        cz = D.cz_decompose(f, lam, f.level + 2)

        assert cz.good.sup_norm <= lam
        assert cz.good.l1_norm <= f.l1_norm
        union_measure = D.cells_above(f, lam).measure
        assert union_measure <= f.l1_norm / lam
        assert math.fsum(2.0 ** (-n * cz.pieces[:, 0])) == union_measure
        assert cz.bad_l1 <= f.l1_norm
        assert cz.bad_l1 <= 16.0 * f.l1_norm
        assert cz.pieces.dtype == np.int64 and not cz.pieces.flags.writeable
        # the pieces are the Whitney cubes, then the residual cells at depth
        depth = f.level + 2
        cubes, residual = D.whitney_decompose(D.cells_above(f, lam), depth)
        r = cz.residual_count
        assert r == len(residual)
        assert np.array_equal(cz.pieces[: len(cubes)], cubes)
        assert np.array_equal(cz.pieces[len(cubes):, 0], np.full(r, depth))
        assert np.array_equal(cz.pieces[len(cubes):, 1:], residual)
        nu = cz.point_masses
        assert M.total_variation(nu) == cz.bad_l1
        assert np.all(nu.masses > 0.0)
        # each center is (m + 1/2) 2^-k; each mass is the exact sum of f
        # over the cube's cells at the finest piece level
        k, m = cz.pieces[:, 0], cz.pieces[:, 1:]
        assert np.array_equal(nu.centers, (m + 0.5) * 2.0 ** -k[:, None])
        top = int(k.max())
        fine = f.refined_values(top)
        origin = np.array(f.box.coords) << (top - f.box.level)
        for row, mass in zip(cz.pieces.tolist(), nu.masses):
            side = 1 << (top - row[0])
            lo = [(c << (top - row[0])) - o for c, o in zip(row[1:], origin)]
            block = fine[tuple(slice(a, a + side) for a in lo)]
            assert mass == math.fsum(block.ravel()) * 2.0 ** (-n * top)
        rec = cz.reconstruct()
        assert np.array_equal(rec.values, f.refined_values(rec.level))


def test_cz_reconstruct_detects_gaps_and_overlaps():
    gen = np.random.default_rng(203)
    done = 0
    while done < 6:
        f = random_grid_function(gen, 1 + done % 3)
        positive = f.values[f.values > 0]
        if positive.size == 0:
            continue
        cz = D.cz_decompose(f, float(np.median(positive)), f.level + 1)
        level = cz.reconstruct().level
        want = f.refined_values(level)
        for i in (0, len(cz.pieces) // 2, len(cz.pieces) - 1):
            dropped = np.delete(cz.pieces, i, axis=0)
            doubled = np.insert(cz.pieces, i, cz.pieces[i], axis=0)
            for pieces in (dropped, doubled):
                rec = dataclasses.replace(cz, pieces=pieces).reconstruct(level)
                assert not np.array_equal(rec.values, want)
        done += 1


def test_cz_reconstruct_level_control():
    box = D.DyadicCube(0, (0,))
    f = D.GridFunction(2, box, [0.0, 2.0, 2.0, 0.0])
    cz = D.cz_decompose(f, 1.0, 4)
    rec = cz.reconstruct(level=5)
    assert rec.level == 5
    assert np.array_equal(rec.values, f.refined_values(5))
    with pytest.raises(DomainError):
        cz.reconstruct(level=1)
