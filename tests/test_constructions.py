import math
import tracemalloc

import numpy as np
import pytest

from rieszlab import constructions as C
from rieszlab import kernels as K
from rieszlab import measures as M
from rieszlab.decomposition import DyadicCube, GridFunction
from rieszlab.errors import DomainError


def uniform_hilbert_density(scale):
    """Mass-one uniform density on an interval of length 2^scale around
    c = 2^(scale + 1), the scale-2^scale dilate of one fixed shape."""
    level = 1 - scale
    box = DyadicCube(-2 - scale, (0,))
    values = np.zeros(8)
    values[3:5] = 2.0 ** (-scale)
    b = GridFunction(level, box, values)
    return b, np.array([float(2 ** (scale + 1))]), float(2**scale) / 2.0


def square_density(scale):
    """A fixed 4 x 4 dyadic profile dilated by 2^scale, mass preserved."""
    values = np.array(
        [[1, 2, 0, 0], [0, 3, 1, 0], [0, 0, 2, 1], [1, 0, 0, 2]], dtype=float
    )
    b = GridFunction(2 - scale, DyadicCube(-scale, (0, 0)), values * 4.0**-scale)
    c = np.array([0.5, 0.5]) * 2.0**scale
    return b, c, 0.75 * 2.0**scale


def test_annulus_identity():
    # the kernel's -n homogeneity makes the annulus integral log n exactly
    for spec in (K.riesz(2, 1), K.riesz(3, 3), K.riesz(5, 2)):
        want = K.sphere_l1_quadrature(spec) * math.log(spec.n)
        for radius in (0.7, 2.0):
            got = C.annulus_kernel_l1(spec, radius)
            assert got == pytest.approx(want, rel=1e-6)
    for spec in (K.second_order(2, 1, 2), K.second_order(3, 2, 2)):
        want = K.sphere_l1_quadrature(spec) * math.log(spec.n)
        assert C.annulus_kernel_l1(spec) == pytest.approx(want, rel=1e-6)
    with pytest.raises(DomainError):
        C.annulus_kernel_l1(K.hilbert())
    with pytest.raises(DomainError):
        C.annulus_kernel_l1(K.riesz(2, 1), radius=0.0)


def test_gradient_decay_bound():
    # |grad K| <= G / |x|^(n+1) sampled by central differences
    gen = np.random.default_rng(404)
    specs = [
        K.hilbert(),
        K.riesz(2, 1),
        K.riesz(3, 2),
        K.second_order(2, 1, 1),
        K.second_order(3, 1, 2),
    ]
    for spec in specs:
        n = spec.n
        bound = C.gradient_decay_constant(spec)
        x = gen.normal(size=(200, n))
        x *= (gen.uniform(0.5, 2.0, size=200) / np.linalg.norm(x, axis=1))[:, None]
        h = 1e-6
        grad = np.empty_like(x)
        for i in range(n):
            step = np.zeros(n)
            step[i] = h
            grad[:, i] = (
                K.kernel_values(spec, x + step) - K.kernel_values(spec, x - step)
            ) / (2.0 * h)
        size = np.linalg.norm(grad, axis=1) * np.linalg.norm(x, axis=1) ** (n + 1)
        assert np.all(size <= bound * (1.0 + 1e-4))


def test_cancellation_zero_density():
    b = GridFunction(1, DyadicCube(-2, (0,)), np.zeros(8))
    res = C.cancellation_integral(K.hilbert(), b, 0.0, np.array([2.0]), 0.5)
    assert res.value == 0.0 and res.ratio == 0.0


def test_cancellation_memory_is_bounded():
    # 1024 quadrature nodes against 1024 points per panel: summed over tiles
    # of nodes, not as one (points, nodes, n) array
    b = GridFunction(5, DyadicCube(2, (0, 0)), np.arange(1.0, 65.0).reshape(8, 8))
    c = np.array([0.125, 0.125])
    tracemalloc.start()
    try:
        C.cancellation_integral(K.riesz(2, 1), b, b.l1_norm, c, math.sqrt(2) / 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_cancellation_validation():
    spec = K.hilbert()
    b, c, r = uniform_hilbert_density(0)
    with pytest.raises(DomainError):
        C.cancellation_integral(spec, b, b.l1_norm + 1e-6, c, r)
    with pytest.raises(DomainError):
        # support [1.5, 2.5) escapes B(2, 0.25)
        C.cancellation_integral(spec, b, b.l1_norm, c, 0.25)
    with pytest.raises(DomainError):
        C.cancellation_integral(spec, b, b.l1_norm, np.array([[4.0]]), r)
    with pytest.raises(DomainError):
        C.cancellation_integral(spec, b, b.l1_norm, c, r, quad_depth=-1)
    with pytest.raises(DomainError):
        C.cancellation_integral(K.riesz(2, 1), b, b.l1_norm, c, r)
    with pytest.raises(DomainError):
        C.cancellation_integral(spec, b, b.l1_norm, c, math.inf)


def test_cancellation_rejects_non_finite_mass():
    b, c, r = uniform_hilbert_density(0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            C.cancellation_integral(K.hilbert(), b, bad, c, r)


def test_cancellation_hilbert_reference():
    # mass-one uniform density vs its point mass: the integral of
    # |(1/pi)(2 artanh(r/u) - r/u)| over |u| > r is scale free,
    # 0.1953485717 by an independent adaptive quadrature
    b, c, r = uniform_hilbert_density(0)
    res = C.cancellation_integral(K.hilbert(), b, 1.0, c, r, quad_depth=3)
    assert res.value == pytest.approx(0.1953485717, rel=1e-5)
    norm = K.sphere_l1_quadrature(K.hilbert()) * 2.0
    assert res.ratio == pytest.approx(res.value / norm, rel=1e-12)
    # riesz with n = 1 is the same operator
    alt = C.cancellation_integral(K.riesz(1, 1), b, 1.0, c, r, quad_depth=3)
    assert alt.value == pytest.approx(res.value, rel=1e-12)


def test_cancellation_scale_stability_line():
    ratios = []
    for scale in (-1, 0, 1):
        b, c, r = uniform_hilbert_density(scale)
        assert b.l1_norm == 1.0
        res = C.cancellation_integral(K.hilbert(), b, 1.0, c, r, quad_depth=3)
        ratios.append(res.ratio)
    assert max(ratios) - min(ratios) <= 1e-4 * max(ratios)


def test_cancellation_dilation_invariance_plane():
    results = []
    for scale in (0, 1, 2):
        b, c, r = square_density(scale)
        res = C.cancellation_integral(
            K.riesz(2, 1), b, b.l1_norm, c, r, quad_depth=2
        )
        results.append(res)
    values = [res.value for res in results]
    ratios = [res.ratio for res in results]
    assert max(values) - min(values) <= 1e-4 * max(values)
    assert max(ratios) - min(ratios) <= 1e-4 * max(ratios)
    assert all(res.value > 0.0 for res in results)


def test_cancellation_second_order_smoke():
    b, c, r = square_density(0)
    res = C.cancellation_integral(
        K.second_order(2, 1, 2), b, b.l1_norm, c, r, quad_depth=1
    )
    assert math.isfinite(res.value) and res.value > 0.0
    assert 0.0 < res.ratio < 10.0


def test_exhaustion_single_mass_exact_radius():
    nu = M.PointMassMeasure(1, np.array([2.0]), np.array([[0.0]]))
    sets = C.build_exhaustion(nu, 1.0, 10000, 7)
    assert len(sets) == 1
    assert sets[0].radius == pytest.approx(1.0, rel=1e-12)
    assert sets[0].volume == 2.0 and sets[0].volume_se == 0.0
    # closed form in the plane as well
    nu2 = M.PointMassMeasure(2, np.array([3.0]), np.array([[1.0, -1.0]]))
    sets2 = C.build_exhaustion(nu2, 0.5, 10000, 7)
    assert sets2[0].radius == pytest.approx(math.sqrt(6.0 / math.pi), rel=1e-12)


def test_exhaustion_far_masses_closed_form():
    # disjoint supports: every set is a full ball of volume a_k / lambda
    nu = M.PointMassMeasure(
        2, np.array([1.0, 3.0]), np.array([[0.0, 0.0], [10.0, 0.0]])
    )
    sets = C.build_exhaustion(nu, 0.5, 20000, 7)
    assert sets[0].radius == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    second = sets[1]
    assert abs(second.volume - 6.0) <= 3.0 * second.volume_se
    ball = math.pi * second.radius**2
    assert abs(ball - 6.0) <= 6.0 * second.volume_se


def test_exhaustion_total_volume_and_disjointness():
    nu = M.PointMassMeasure(
        2, np.array([2.0, 1.0]), np.array([[0.0, 0.0], [1.0, 0.0]])
    )
    sets = C.build_exhaustion(nu, 1.0, 50000, 13)
    total = math.fsum(s.volume for s in sets)
    spread = 3.0 * math.hypot(*[s.volume_se for s in sets])
    assert abs(total - M.total_variation(nu)) <= spread
    # overlap forces the second radius beyond the free-ball value
    assert sets[1].radius > math.sqrt(1.0 / math.pi)
    gen = np.random.default_rng(99)
    pts = gen.uniform(-1.5, 2.5, size=(4000, 2))
    inside = [s.contains(pts) for s in sets]
    assert not np.any(inside[0] & inside[1])
    # membership never reaches into an earlier ball
    drawn = sets[1].sample_ball(np.random.default_rng(3), 2000)
    kept = drawn[sets[1].contains(drawn)]
    assert np.all(np.linalg.norm(kept - sets[0].center, axis=1) >= sets[0].radius)
    assert np.all(np.linalg.norm(kept - sets[1].center, axis=1) < sets[1].radius)


def test_exhaustion_dilation_invariance():
    # centers x2, threshold / 2^n: the common pool scales with the bracket,
    # so every bisection decision repeats and radii double exactly
    base = M.PointMassMeasure(
        2, np.array([2.0, 1.0, 1.5]), np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    )
    sets = C.build_exhaustion(base, 1.0, 20000, 21)
    for scale in (2.0, 4.0):
        grown = M.PointMassMeasure(2, base.masses, base.centers * scale)
        bigger = C.build_exhaustion(grown, 1.0 / scale**2, 20000, 21)
        for small, big in zip(sets, bigger):
            assert big.radius == pytest.approx(scale * small.radius, rel=1e-12)
            assert big.volume == pytest.approx(
                scale**2 * small.volume, rel=1e-12
            )


def test_exhaustion_determinism_and_validation():
    nu = M.PointMassMeasure(
        2, np.array([2.0, 1.0]), np.array([[0.0, 0.0], [1.0, 0.0]])
    )
    first = C.build_exhaustion(nu, 1.0, 20000, 13)
    second = C.build_exhaustion(nu, 1.0, 20000, 13)
    assert all(a.radius == b.radius for a, b in zip(first, second))
    # a different pool may stop at the same coarse midpoint, but its
    # measured volume comes out different
    other = C.build_exhaustion(nu, 1.0, 20000, 14)
    assert first[1].volume != other[1].volume
    with pytest.raises(DomainError):
        C.build_exhaustion(nu, 0.0, 20000, 13)
    with pytest.raises(DomainError):
        C.build_exhaustion(nu, 1.0, 10, 13)
    with pytest.raises(DomainError):
        C.build_exhaustion(nu, 1.0, 20000, -1)
    with pytest.raises(ValueError):
        first[0].center[0] = 5.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_outside_balls_matches_broadcast_form(n):
    # the mask folds one ball at a time; the oracle is the one-shot
    # (points, balls, n) broadcast it replaced, boundary points included
    gen = np.random.default_rng(30 + n)
    centers = gen.normal(size=(7, n))
    radii = gen.uniform(0.2, 1.5, size=7)
    points = gen.normal(size=(3000, n))
    # points exactly at distance r: r is their own computed distance, and
    # an integer offset whose length is an exact integer
    radii[0] = np.linalg.norm(points[0] - centers[0])
    offset = {1: [3.0], 2: [3.0, 4.0], 3: [2.0, 3.0, 6.0]}[n]
    points[1] = centers[1] + offset
    radii[1] = np.linalg.norm(offset)
    assert radii[1] == {1: 3.0, 2: 5.0, 3: 7.0}[n]

    def broadcast(points, centers, radii):
        d = np.linalg.norm(points[..., None, :] - centers, axis=-1)
        return np.all(d >= radii, axis=-1)

    want = broadcast(points, centers, radii)
    assert np.array_equal(C._outside_balls(points, centers, radii), want)
    assert 0 < want.sum() < len(points)
    for k in (0, 1):
        alone = C._outside_balls(points[k:k + 1], centers[k:k + 1], radii[k:k + 1])
        assert alone.tolist() == [True]
    assert np.array_equal(C._outside_balls(points, centers[:0], radii[:0]),
                          np.ones(len(points), dtype=bool))


def test_eval_h_line_closed_form():
    # E_1 = [-1, 1]: sum of far kernel integrals at x = 3 is (1/pi) log 2
    nu = M.PointMassMeasure(1, np.array([2.0]), np.array([[0.0]]))
    sets = C.build_exhaustion(nu, 1.0, 10000, 7)
    got, se = C.eval_h(K.hilbert(), sets, np.array([3.0]), 200000, 11)
    want = math.log(2.0) / math.pi
    assert got == pytest.approx(want, abs=5e-4)
    assert se > 0.0 and abs(got - want) <= 4.0 * se
    # inside the n r safety ball every set is skipped: 0 +- 0
    assert C.eval_h(K.hilbert(), sets, np.array([0.5]), 10000, 11) == (0.0, 0.0)


def test_eval_h_far_field_and_determinism():
    nu = M.PointMassMeasure(2, np.array([1.0]), np.array([[0.0, 0.0]]))
    sets = C.build_exhaustion(nu, 1.0, 10000, 3)
    spec = K.riesz(2, 1)
    x = np.array([50.0, 0.0])
    got, se = C.eval_h(spec, sets, x, 50000, 9)
    want = float(K.kernel_values(spec, x[None, :])[0])
    assert got == pytest.approx(want, rel=1e-3)
    assert se > 0.0
    assert (got, se) == C.eval_h(spec, sets, x, 50000, 9)
    assert (got, se) == C.eval_h(spec, sets, x, 50000, 9, threads=4)
    with pytest.raises(DomainError):
        C.eval_h(spec, sets, np.array([50.0, 0.0, 1.0]), 50000, 9)
    with pytest.raises(DomainError):
        C.eval_h(spec, sets, np.array([np.nan, 0.0]), 50000, 9)
    with pytest.raises(DomainError):
        C.eval_h(spec, sets, x, 10, 9)
    with pytest.raises(DomainError):
        C.eval_h(K.hilbert(), sets, np.array([3.0]), 50000, 9)
