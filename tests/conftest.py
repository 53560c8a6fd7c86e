"""Shared fixtures: random dyadic fixtures and exact Whitney/CZ checkers."""

import itertools
import math

import numpy as np

from rieszlab.decomposition import CellUnion, DyadicCube, GridFunction

_ACCEPTANCE = (
    ("test_c1_", "1 exact 1-D level-set constant, both root methods"),
    ("test_c2_", "2 single-mass constants and dimensional decay"),
    ("test_c3_", "3 MC level sets within 3 SE, SE scaling"),
    ("test_c4_", "4 kernel gradients, sphere norms, Lipschitz caps"),
    ("test_c5_", "5 Whitney/CZ exact structural properties"),
    ("test_c6_", "6 exhaustion totals, cancellation, annulus identity"),
    ("test_c7_", "7 search floors and sweep monotonicity"),
    ("test_c8_", "8 CLI byte-identical across runs and threads"),
)


def pytest_terminal_summary(terminalreporter):
    stats = terminalreporter.stats
    reports = []
    for key in ("passed", "failed", "error"):
        reports.extend(stats.get(key, []))
    rows = []
    for prefix, label in _ACCEPTANCE:
        needle = "test_acceptance.py::" + prefix
        hits = [r for r in reports if needle in getattr(r, "nodeid", "")]
        if not hits:
            continue
        verdict = "PASS" if all(getattr(r, "passed", False) for r in hits) else "FAIL"
        rows.append("%s: %s" % (label, verdict))
    if rows:
        terminalreporter.write_sep("-", "acceptance")
        for row in rows:
            terminalreporter.write_line(row)


def random_cell_union(gen, n):
    """A small contiguous random blob of level-L cells."""
    level = int(gen.integers(0, 3))
    steps = {1: 24, 2: 10, 3: 5}[n]
    cur = tuple(int(x) for x in gen.integers(-4, 4, size=n))
    cells = {cur}
    for _ in range(steps):
        step = tuple(int(x) for x in gen.integers(-1, 2, size=n))
        cur = tuple(c + s for c, s in zip(cur, step))
        cells.add(cur)
    return CellUnion(n, level, tuple(cells))


def whitney_depth(union):
    return union.level + {1: 6, 2: 4, 3: 3}[union.n]


def random_grid_function(gen, n):
    """Dyadic-rational values, so every cell-arithmetic identity is exact."""
    box_level = int(gen.integers(-1, 2))
    box = DyadicCube(box_level, tuple(int(x) for x in gen.integers(-2, 2, size=n)))
    level = box_level + int(gen.integers(2, 4))
    side = 1 << (level - box_level)
    values = gen.integers(0, 64, size=(side,) * n) / 16.0
    return GridFunction(level, box, values)


def check_whitney_properties(union, cubes, residual, max_depth):
    """Exact partition, containment, disjointness, and separation checks.

    Paints the decomposition onto the fine lattice independently of the
    library's own bookkeeping; raises AssertionError on any violation.
    """
    n, level = union.n, union.level
    scale = 1 << (max_depth - level)
    cells = [tuple(c) for c in union.cells.tolist()]
    cellset = set(cells)

    lo = [min(c[i] for c in cells) for i in range(n)]
    hi = [max(c[i] for c in cells) + 1 for i in range(n)]
    dims = tuple((h - l) * scale for l, h in zip(lo, hi))
    want = np.zeros(dims, dtype=bool)
    for cell in cells:
        sel = tuple(
            slice((c - l) * scale, (c - l + 1) * scale) for c, l in zip(cell, lo)
        )
        want[sel] = True

    # cube rows are (level, coords), residual rows the coordinates of
    # level-max_depth cells: both read-only int64 tables, sorted
    assert cubes.dtype == np.int64 and cubes.shape == (len(cubes), n + 1)
    assert residual.dtype == np.int64 and residual.shape == (len(residual), n)
    assert not cubes.flags.writeable and not residual.flags.writeable
    assert cubes.tolist() == sorted(cubes.tolist())
    assert residual.tolist() == sorted(residual.tolist())
    cube_rows = [(row[0], tuple(row[1:])) for row in cubes.tolist()]
    pieces = cube_rows + [(max_depth, tuple(row)) for row in residual.tolist()]

    painted = np.zeros(dims, dtype=bool)
    for k, coords in pieces:
        assert k <= max_depth
        shift = max_depth - k
        sel = tuple(
            slice((c << shift) - l * scale, ((c + 1) << shift) - l * scale)
            for c, l in zip(coords, lo)
        )
        assert all(
            0 <= s.start and s.stop <= d for s, d in zip(sel, dims)
        ), "cube outside the set's bounding box"
        block = painted[sel]
        assert not block.any(), "overlapping cubes"
        assert want[sel].all(), "cube escapes the set"
        painted[sel] = True
    assert np.array_equal(painted, want), "decomposition does not tile the set"

    # separation against an independently computed boundary layer
    layer = {
        tuple(c + o for c, o in zip(cell, offset))
        for cell in cells
        for offset in itertools.product((-1, 0, 1), repeat=n)
    } - cellset
    cell_side = 2.0**-level
    for k, coords in cube_rows:
        side = 2.0**-k
        a0 = np.array(coords, dtype=float) * side
        best = math.inf
        for comp in layer:
            c0 = np.array(comp, dtype=float) * cell_side
            g = np.maximum(
                np.maximum(c0 - (a0 + side), a0 - (c0 + cell_side)), 0.0
            )
            best = min(best, float(np.sqrt(np.sum(g * g))))
        diameter = math.sqrt(n) * side
        assert (2 * n - 1) * diameter <= best + 1e-12, "separation violated"
