"""Properties checked on generated measures, cell unions and grids.

W(nu, lam) = lam |{|T nu| > lam}| / ||nu|| is unchanged by translating nu,
by dilating space by t together with lam -> lam / t^n (T is -n homogeneous),
and by scaling the masses and lam by the same factor. Whitney cubes and
residual cells tile their set exactly and keep their separation, and a CZ
split reconstructs its grid function exactly.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszlab import decomposition as D
from rieszlab import kernels as K
from rieszlab import levelset as L
from rieszlab import measures as M
from rieszlab import rng

SETTINGS = settings(
    derandomize=True, database=None, deadline=None, max_examples=40
)

masses = st.lists(st.floats(0.25, 4.0), min_size=1, max_size=4)
factors = st.floats(0.125, 8.0)


def transformed(nu, lam, shift, t, s):
    """nu translated by shift, dilated by t and scaled by s, with its lam."""
    moved = M.PointMassMeasure(nu.n, s * nu.masses, t * (nu.centers + shift))
    return moved, s * lam / t**nu.n


@pytest.mark.parametrize("method", ["vieta", "bisection"])
@SETTINGS
@given(
    a=masses,
    slots=st.lists(st.integers(-40, 40), min_size=4, max_size=4, unique=True),
    lam=factors,
    shift=st.floats(-50.0, 50.0),
    t=factors,
    s=factors,
)
def test_line_functional_invariances(method, a, slots, lam, shift, t, s):
    nu = M.PointMassMeasure(1, a, np.array(slots[: len(a)], float)[:, None] / 4)
    base = L.weaktype_functional(K.hilbert(), nu, lam, method=method).value
    moved, lam2 = transformed(nu, lam, shift, t, s)
    got = L.weaktype_functional(K.hilbert(), moved, lam2, method=method).value
    assert got == pytest.approx(base, rel=1e-9)
    assert base == pytest.approx(2.0 / np.pi, rel=1e-9)


@SETTINGS
@given(
    spec=st.sampled_from(
        [K.riesz(2, 1), K.riesz(3, 2), K.second_order(2, 1, 2), K.second_order(3, 3, 3)]
    ),
    a=st.floats(0.25, 4.0),
    center=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
    lam=factors,
    shift=st.floats(-50.0, 50.0),
    t=factors,
    s=factors,
)
def test_single_mass_functional_invariances(spec, a, center, lam, shift, t, s):
    nu = M.PointMassMeasure(spec.n, [a], [center[: spec.n]])
    base = L.weaktype_functional(spec, nu, lam).value
    moved, lam2 = transformed(nu, lam, shift, t, s)
    got = L.weaktype_functional(spec, moved, lam2)
    assert got.method == "single-mass"
    assert got.value == pytest.approx(base, rel=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    a=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=3),
    centers=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    lam=st.floats(0.5, 2.0),
    k=st.integers(-60, 60),
    seed=st.integers(0, 2**32),
)
def test_mc_levelset_power_of_two_scaling_is_exact(a, centers, lam, k, seed):
    # scaling by 2^k is exact in binary, so the draws and the weights agree
    # to the bit
    spec = K.riesz(2, 1)
    pts = np.array(centers[: 2 * len(a)]).reshape(-1, 2)
    nu = M.PointMassMeasure(2, a, pts)
    scaled = M.PointMassMeasure(2, np.array(a) * 2.0**k, pts)
    base = L.mc_levelset(spec, nu, lam, 2000, seed)
    got = L.mc_levelset(spec, scaled, lam * 2.0**k, 2000, seed)
    assert (got.value, got.standard_error) == (base.value, base.standard_error)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    n=st.sampled_from([2, 3, 5]),
    a=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=6),
    spread=st.floats(0.0, 3.0),
    lam=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32),
)
def test_stars_cover_the_level_set(n, a, spread, lam, seed):
    # |T nu| > lam > sum t'_k forces some a_k |K(x - c_k)| > t'_k: points
    # from the covering balls, which hold the whole level set, and from the
    # proposal itself have count >= 1 wherever they hit
    gen = np.random.default_rng(seed)
    spec = K.riesz(n, 1 + seed % n)
    nu = M.PointMassMeasure(n, a, gen.normal(size=(len(a), n)) * spread)
    prop = L._Proposal(spec, nu, lam)
    draws = rng.generator(seed, rng.LEVELSET)
    k = draws.integers(0, nu.count, 4000)
    rho = L.covering_radii(spec, nu, lam)
    wide = nu.centers[k] + rho[k, None] * rng.uniform_ball(draws, 4000, n)
    for pts in (wide, prop.draw(draws, 4000)):
        hit, count, pole = prop.evaluate(pts)
        assert np.all(count[hit & ~pole] >= 1)
        # so every hit has q > 0: a finite, positive weight
        w = prop.weights(hit, count)[hit & ~pole]
        assert np.all(np.isfinite(w) & (w > 0.0))


# small coordinates give duplicates; the int64 ends test the sort order
coordinate = st.one_of(st.integers(-3, 3), st.sampled_from([-(2**63), 2**63 - 1]))


@st.composite
def row_tables(draw):
    width = draw(st.integers(1, 3))
    table = st.lists(st.tuples(*[coordinate] * width), max_size=12)
    return [np.array(draw(table), dtype=np.int64).reshape(-1, width)
            for _ in range(2)]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(tables=row_tables())
def test_row_grouping_matches_unique(tables):
    table, rows = tables
    # oracle: np.unique(axis=0), the sort the grouping replaced
    uniq, inverse, counts = np.unique(
        table, axis=0, return_inverse=True, return_counts=True
    )
    ids, first = D._row_ids(table)
    assert ids.tolist() == inverse.reshape(-1).tolist()
    assert table[first].tolist() == uniq.tolist()
    # first copies: the lowest index holding each distinct row
    listed = table.tolist()
    assert first.tolist() == [listed.index(r) for r in uniq.tolist()]
    times = {tuple(r): c for r, c in zip(uniq.tolist(), counts.tolist())}
    want = [times.get(tuple(r), 0) for r in rows.tolist()]
    assert D._rows_lookup(table, rows).tolist() == want


# fine lattice levels below the cell level, as in the Whitney unit tests
DEPTH = {1: 6, 2: 4}


@st.composite
def cell_unions(draw):
    n = draw(st.sampled_from([1, 2]))
    cell = st.tuples(*[st.integers(-4, 4)] * n)
    cells = draw(st.lists(cell, min_size=1, max_size=10, unique=True))
    return D.CellUnion(n, draw(st.integers(0, 1)), tuple(cells))


def fine_cells(cube_level, coords, fine_level):
    s = fine_level - cube_level
    return itertools.product(*(range(c << s, (c + 1) << s) for c in coords))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(union=cell_unions())
def test_whitney_tiles_and_separates_exactly(union):
    n, level = union.n, union.level
    m = level + DEPTH[n]
    cubes, residual = D.whitney_decompose(union, m)
    # residual rows are level-m cells: (count, n) integer coordinates
    assert residual.dtype == np.int64 and residual.shape == (len(residual), n)
    # cubes plus residual cover every fine cell of U exactly once
    painted = [f for q in cubes.tolist() for f in fine_cells(q[0], q[1:], m)]
    painted += [tuple(row) for row in residual.tolist()]
    # the set's cells are a read-only int64 (count, n) table
    cells = [tuple(c) for c in union.cells.tolist()]
    assert union.cells.dtype == np.int64 and union.cells.shape == (len(cells), n)
    assert not union.cells.flags.writeable
    want = [f for c in cells for f in fine_cells(level, c, m)]
    assert sorted(painted) == sorted(want)
    # (2n - 1) diam(Q) <= dist(Q, complement of U), squared, in fine units;
    # the nearest complement cell touches U, so the layer around U suffices
    layer = {
        tuple(x + o for x, o in zip(c, offset))
        for c in cells
        for offset in itertools.product((-1, 0, 1), repeat=n)
    } - set(cells)
    t = m - level
    for q in cubes.tolist():
        s = m - q[0]
        dist2 = min(
            sum(
                max(0, (e << t) - ((c + 1) << s), (c << s) - ((e + 1) << t)) ** 2
                for c, e in zip(q[1:], out)
            )
            for out in layer
        )
        assert (2 * n - 1) ** 2 * n * 4**s <= dist2


@st.composite
def grids(draw):
    n = draw(st.sampled_from([1, 2]))
    corner = tuple(draw(st.integers(-2, 1)) for _ in range(n))
    box = D.DyadicCube(draw(st.integers(-1, 1)), corner)
    level = box.level + draw(st.integers(1, 3 if n == 1 else 2))
    side = 1 << (level - box.level)
    # sixteenths are exact, so reconstruction must agree to the bit
    count = side**n
    values = draw(st.lists(st.integers(0, 63), min_size=count, max_size=count))
    return D.GridFunction(level, box, np.array(values) / 16.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(f=grids(), lam=st.sampled_from([0.25, 1.0, 2.5]))
def test_cz_reconstructs_exactly(f, lam):
    cz = D.cz_decompose(f, lam, f.level + 2)
    rec = cz.reconstruct()
    assert np.array_equal(rec.values, f.refined_values(rec.level))
