import math

import numpy as np
import pytest

import rieszlab
from rieszlab import kernels as K
from rieszlab import decomposition, measures, rng, search
from rieszlab.errors import DomainError, ToleranceError


def test_eval_kernel_frozen_values():
    assert K.eval_kernel(K.riesz(2, 1), [1.0, 0.0]) == pytest.approx(
        1 / (2 * math.pi), rel=1e-14
    )
    assert K.eval_kernel(K.hilbert(), [2.0]) == pytest.approx(
        1 / (2 * math.pi), rel=1e-14
    )
    # diagonal second order at e_j: (Gamma(2)/pi) * (1 - 1/2)
    assert K.eval_kernel(K.second_order(2, 1, 1), [1.0, 0.0]) == pytest.approx(
        1 / (2 * math.pi), rel=1e-14
    )
    # off-diagonal vanishes on the axes
    assert K.eval_kernel(K.second_order(2, 1, 2), [1.0, 0.0]) == 0.0


def test_hilbert_is_signed_reciprocal():
    spec = K.hilbert()
    for x in (0.25, 1.0, -3.0):
        assert K.eval_kernel(spec, [x]) == pytest.approx(1 / (math.pi * x), rel=1e-14)


def test_hilbert_is_riesz_of_dimension_one():
    assert K.hilbert() == K.riesz(1, 1)


def test_spec_validation():
    with pytest.raises(DomainError):
        K.KernelSpec(0, K.RIESZ)
    with pytest.raises(DomainError):
        K.KernelSpec(2, "hilbert")
    with pytest.raises(DomainError):
        K.second_order(1, 1, 1)
    with pytest.raises(DomainError):
        K.riesz(3, 4)
    with pytest.raises(DomainError):
        K.KernelSpec(2, "cauchy")


def test_positive_integer_checks_share_one_validator():
    # every count-like input refuses 0, -1 and 1.5 the same way
    spec = K.riesz(2, 1)
    sites = [
        ("dimension n", lambda v: K.KernelSpec(v, K.RIESZ)),
        ("dimension n", lambda v: measures.PointMassMeasure(v, [1.0], [[0.0]])),
        ("dimension", lambda v: decomposition.CellUnion(v, 0, [])),
        ("n", K.dimensional_constant),
        ("mass count", lambda v: search.SearchProblem(spec, v, 1000, 1)),
        ("iteration budget", lambda v: search.SearchProblem(spec, 2, 1000, 1, v)),
        ("restart count", lambda v: search.SearchProblem(spec, 2, 1000, 1, 8, v)),
        ("thread count", lambda v: rng.run_chunked(1000, None, 1, 1, threads=v)),
    ]
    for what, site in sites:
        for bad in (0, -1):
            with pytest.raises(DomainError, match="^%s must be a positive" % what):
                site(bad)
        with pytest.raises(DomainError, match="^%s must be an integer$" % what):
            site(1.5)


def test_origin_rejected():
    with pytest.raises(DomainError):
        K.eval_kernel(K.riesz(2, 1), [0.0, 0.0])
    with pytest.raises(DomainError):
        K.eval_omega_gradient(K.riesz(2, 1), np.zeros(2))


@pytest.mark.parametrize(
    "spec",
    [K.riesz(1, 1), K.riesz(3, 2), K.second_order(2, 1, 2), K.second_order(4, 3, 3), K.hilbert()],
)
def test_homogeneity_degree_minus_n(spec):
    gen = np.random.default_rng(101)
    for _ in range(50):
        x = gen.normal(size=spec.n)
        while np.linalg.norm(x) < 1e-3:
            x = gen.normal(size=spec.n)
        for s in (0.5, 2.0, 7.25, 1e-3):
            lhs = K.eval_kernel(spec, s * x)
            rhs = s ** (-spec.n) * K.eval_kernel(spec, x)
            assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize(
    "spec",
    [K.riesz(2, 1), K.riesz(5, 3), K.second_order(3, 1, 2), K.second_order(3, 2, 2)],
)
def test_gradient_matches_finite_differences(spec):
    gen = np.random.default_rng(7)
    h = 1e-5
    for _ in range(40):
        x = gen.normal(size=spec.n)
        r = np.linalg.norm(x)
        if not 0.5 <= r <= 2.0:
            x = x / r * (0.5 + 1.5 * gen.random())
        g = K.eval_omega_gradient(spec, x)
        for axis in range(spec.n):
            e = np.zeros(spec.n)
            e[axis] = h
            fd = (K.profile(spec, x + e) - K.profile(spec, x - e)) / (2 * h)
            assert abs(g[axis] - fd) <= 1e-6


def _every_kernel(n):
    specs = [K.riesz(n, j) for j in range(1, n + 1)]
    if n == 1:
        return specs + [K.hilbert()]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return specs + [K.second_order(n, i, j) for i, j in pairs]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_kernel_values_match_profile_formula(n):
    # K = Omega(x) |x|^-n; kernel_values takes integer powers of 1/|x|^2
    # instead, so the two agree to rounding on the scale sup|Omega| |x|^-n
    gen = np.random.default_rng(300 + n)
    x = gen.normal(size=(400, n)) * gen.uniform(0.05, 20.0, size=(400, 1))
    r2 = np.sum(x * x, axis=1)
    for spec in _every_kernel(n):
        want = K.omega(spec, x) * r2 ** (-n / 2)
        scale = K.omega_sup(spec) * r2 ** (-n / 2)
        got = K.kernel_values(spec, x)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
        offsets = {spec.i - 1: x[:, spec.i - 1], spec.j - 1: x[:, spec.j - 1]}
        assert np.array_equal(K.kernel_from_r2(spec, offsets, r2), got)


def test_gradient_frozen_examples():
    # profile x_j/|x| has zero tangential... zero gradient along its own axis
    g = K.eval_omega_gradient(K.riesz(3, 1), np.array([1.0, 0.0, 0.0]))
    assert np.linalg.norm(g) == pytest.approx(0.0, abs=1e-15)
    g = K.eval_omega_gradient(K.riesz(3, 1), np.array([0.0, 1.0, 0.0]))
    assert np.linalg.norm(g) == pytest.approx(1.0, rel=1e-14)
    # diagonal profile x_j^2/|x|^2 - 1/n is critical on its own axis
    g = K.eval_omega_gradient(K.second_order(3, 2, 2), np.array([0.0, 1.0, 0.0]))
    assert np.linalg.norm(g) == pytest.approx(0.0, abs=1e-15)
    # ... and steepest at x_j^2 = |x|^2 / 2, where the slope is exactly 1
    g = K.eval_omega_gradient(
        K.second_order(3, 2, 2), np.array([math.sqrt(0.5), math.sqrt(0.5), 0.0])
    )
    assert np.linalg.norm(g) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_gradient_squared_identities(n):
    # |grad(x_j/|x|)|^2 = 1/|x|^2 - x_j^2/|x|^4      (<= 1/|x|^2)
    # |grad(x_i x_j/|x|^2)|^2 = (x_i^2 + x_j^2)/|x|^4 - 4 x_i^2 x_j^2/|x|^6
    # |grad(x_j^2/|x|^2)|^2 = (4 x_j^2/|x|^4)(1 - x_j^2/|x|^2)   (<= 4/|x|^2)
    gen = np.random.default_rng(n)
    X = gen.normal(size=(200, n))
    r2 = np.sum(X * X, axis=1)

    g = K.profile_gradient(K.riesz(n, 1), X)
    lhs = np.sum(g * g, axis=1)
    rhs = 1 / r2 - X[:, 0] ** 2 / r2**2
    assert np.allclose(lhs, rhs, rtol=1e-10)
    assert np.all(lhs <= 1 / r2 * (1 + 1e-12))

    if n >= 2:
        g = K.profile_gradient(K.second_order(n, 1, 2), X)
        lhs = np.sum(g * g, axis=1)
        rhs = (X[:, 0] ** 2 + X[:, 1] ** 2) / r2**2 - 4 * X[:, 0] ** 2 * X[:, 1] ** 2 / r2**3
        assert np.allclose(lhs, rhs, rtol=1e-10)
        assert np.all(lhs <= 5 / r2 * (1 + 1e-12))

        g = K.profile_gradient(K.second_order(n, 2, 2), X)
        lhs = np.sum(g * g, axis=1)
        rhs = 4 * X[:, 1] ** 2 / r2**2 * (1 - X[:, 1] ** 2 / r2)
        assert np.allclose(lhs, rhs, rtol=1e-10)
        assert np.all(lhs <= 4 * X[:, 1] ** 2 / r2**2 * (1 + 1e-12))
        assert np.all(lhs <= 4 / r2 * (1 + 1e-12))


def test_dimensional_constant_values():
    assert K.dimensional_constant(1) == pytest.approx(2 / math.pi, rel=1e-12)
    assert K.dimensional_constant(2) == pytest.approx(0.5, rel=1e-12)
    assert K.dimensional_constant(3) == pytest.approx(4 / (3 * math.pi), rel=1e-12)


def test_dimensional_constant_sqrt_decay():
    prev = K.dimensional_constant(1)
    for n in range(2, 401):
        cur = K.dimensional_constant(n)
        assert cur < prev
        prev = cur
    for n in range(10, 201):
        assert 0.75 <= K.dimensional_constant(n) * math.sqrt(n) <= 0.85
    # no overflow at extreme dimension; limit is sqrt(2/pi)
    big = K.dimensional_constant(10**6) * math.sqrt(10**6)
    assert big == pytest.approx(math.sqrt(2 / math.pi), rel=1e-5)


def test_sphere_l1_closed_forms_and_bounds():
    for n in (1, 2, 3, 7):
        got = K.sphere_l1_norm(K.riesz(n, 1))
        assert got == pytest.approx(2 / math.pi, rel=1e-15)
    off = K.sphere_l1_norm(K.second_order(3, 1, 2))
    assert off == pytest.approx(2 / math.pi, rel=1e-15)
    # n = 2: E|cos^2 - 1/2| = 1/pi, times c |S^1| = 2
    diag2 = K.sphere_l1_norm(K.second_order(2, 1, 1))
    assert diag2 == pytest.approx(2 / math.pi, rel=1e-15)
    # n = 3: theta_j is uniform on [-1, 1], E|t^2 - 1/3| = 4 / (9 sqrt 3)
    diag3 = K.sphere_l1_norm(K.second_order(3, 1, 1))
    assert diag3 == pytest.approx(4 / (3 * math.sqrt(3)), rel=1e-15)


SPHERE_FAMILIES = {
    "riesz": lambda n: K.riesz(n, 1),
    "off-diagonal": lambda n: K.second_order(n, 1, 2),
    "diagonal": lambda n: K.second_order(n, 1, 1),
}


@pytest.mark.parametrize("family", sorted(SPHERE_FAMILIES))
def test_sphere_l1_norm_matches_oracle(family):
    # the quadrature used to give up at n = 10..16 and beyond; 435 is the
    # largest n whose second-order normalization is a double
    for n in [*range(2, 65), 100, 200, 435]:
        spec = SPHERE_FAMILIES[family](n)
        assert K.sphere_l1_norm(spec) == pytest.approx(
            K.sphere_l1_quadrature(spec), rel=1e-12
        ), n


def test_sphere_l1_quadrature_oracle():
    # closed form is exact for the first-order kernels
    for n in (1, 2, 3, 5, 8):
        q = K.sphere_l1_quadrature(K.riesz(n, 1))
        assert q == pytest.approx(2 / math.pi, rel=1e-10)
    # off-diagonal second order integrates to 2/pi in every dimension:
    # c |S^{n-1}| = n and E|theta_i theta_j| = 2/(pi n)
    for n in (2, 3, 5):
        q = K.sphere_l1_quadrature(K.second_order(n, 1, 2))
        assert q == pytest.approx(2 / math.pi, rel=1e-9)
        assert q <= 1.0
    # diagonal values stay below 2 and grow with n
    vals = [K.sphere_l1_quadrature(K.second_order(n, 1, 1)) for n in (2, 3, 5, 8)]
    assert vals[0] == pytest.approx(2 / math.pi, rel=1e-9)
    assert all(v < 2.0 for v in vals)
    assert vals == sorted(vals)


def test_quadrature_needs_the_kinks_as_panel_breaks():
    # the two Gauss-Legendre orders disagree across an unlisted kink
    def f(x):
        return np.abs(x - 0.3)

    with pytest.raises(ToleranceError):
        K._quad(f, 0.0, 1.0)
    assert K._quad(f, 0.0, 1.0, (0.3,)) == pytest.approx(0.29, rel=1e-14)


def test_sphere_l1_mc_matches_quadrature():
    for spec, seed in (
        (K.riesz(3, 2), 7),
        (K.second_order(3, 1, 2), 8),
        (K.second_order(4, 2, 2), 9),
    ):
        est = K.sphere_l1_norm_mc(spec, 200_000, seed=seed)
        q = K.sphere_l1_quadrature(spec)
        assert abs(est.value - q) <= 3 * est.standard_error
        assert isinstance(est, rieszlab.Estimate)
        assert (est.samples, est.method, est.threshold) == (200_000, "mc", None)


def test_sphere_mean_zero():
    for spec, seed in (
        (K.riesz(2, 1), 3),
        (K.riesz(5, 4), 4),
        (K.second_order(3, 1, 2), 5),
        (K.second_order(3, 3, 3), 6),
        (K.hilbert(), 7),
    ):
        est = K.sphere_mean_zero_check(spec, 100_000, seed=seed)
        assert abs(est.value) <= 3 * est.standard_error + 1e-12


def test_mc_requires_minimum_samples():
    with pytest.raises(DomainError):
        K.sphere_l1_norm_mc(K.riesz(2, 1), 999, seed=1)


def test_lipschitz_ratio_riesz_dimension_free():
    spec = K.riesz(4, 1)
    xi = np.array([1.0, 0.0, 0.0, 0.0])
    r = K.lipschitz_condition_ratio(spec, xi, 0.1, 100_000, seed=11)
    assert 0.0 < r <= 2.0


def test_lipschitz_ratio_second_order():
    spec = K.second_order(3, 1, 2)
    xi = np.array([0.0, 0.0, 1.0])
    r = K.lipschitz_condition_ratio(spec, xi, 0.05, 100_000, seed=11)
    assert 0.0 < r <= math.sqrt(5.0) * 1.1


def test_lipschitz_ratio_rejects_endpoint():
    spec = K.riesz(4, 1)
    xi = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        K.lipschitz_condition_ratio(spec, xi, 0.25, 10_000, seed=1)
    with pytest.raises(DomainError):
        K.lipschitz_condition_ratio(spec, xi, 0.0, 10_000, seed=1)
    with pytest.raises(DomainError):
        K.lipschitz_condition_ratio(spec, 2 * xi, 0.1, 10_000, seed=1)


def test_surface_and_volume_constants():
    assert K.sphere_surface_area(1) == pytest.approx(2.0, rel=1e-14)
    assert K.sphere_surface_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert K.sphere_surface_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert K.ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert K.ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert K.ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-14)


def test_surface_and_volume_constants_exact_in_low_dimension():
    assert K.ball_volume(1) == 2.0
    assert K.ball_volume(2) == math.pi
    assert K.sphere_surface_area(1) == 2.0
    assert K.sphere_surface_area(2) == 2.0 * math.pi
    assert K.sphere_surface_area(3) == 4.0 * math.pi
    for n in range(1, 60):
        gamma_form = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
        assert K.ball_volume(n) == pytest.approx(gamma_form, rel=1e-14)
        assert K.sphere_surface_area(n) == pytest.approx(n * gamma_form, rel=1e-14)
