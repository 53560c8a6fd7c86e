import math

import numpy as np
import pytest

from rieszlab import constructions, kernels, levelset, measures, rng, search
from rieszlab.errors import DomainError


def test_generator_is_a_pure_function_of_its_cell():
    a = rng.generator(42, rng.LEVELSET, unit=3, chunk=5).random(16)
    b = rng.generator(42, rng.LEVELSET, unit=3, chunk=5).random(16)
    assert np.array_equal(a, b)
    for other in (
        rng.generator(43, rng.LEVELSET, unit=3, chunk=5),
        rng.generator(42, rng.EXHAUSTION, unit=3, chunk=5),
        rng.generator(42, rng.LEVELSET, unit=4, chunk=5),
        rng.generator(42, rng.LEVELSET, unit=3, chunk=6),
    ):
        assert not np.array_equal(a, other.random(16))


def test_check_seed_bounds():
    assert rng.check_seed(0) == 0
    assert rng.check_seed(np.uint64(7)) == 7
    assert rng.check_seed(2**64 - 1) == 2**64 - 1
    for bad in (-1, 2**64, 1.5, "3", None):
        with pytest.raises(DomainError):
            rng.check_seed(bad)


def test_thread_count_must_be_positive():
    def body(gen, size, chunk):
        return size

    for bad in (0, -1, 1.0):
        with pytest.raises(DomainError):
            rng.run_chunked(5000, body, 1, rng.LEVELSET, threads=bad)


def test_one_sample_floor_for_every_estimator():
    # a float count is refused up front, not by a TypeError while chunking
    spec = kernels.riesz(2, 1)
    nu = measures.PointMassMeasure(2, np.array([1.0]), np.zeros((1, 2)))
    for bad in (2000.0, rng.MIN_SAMPLES - 1):
        with pytest.raises(DomainError):
            levelset.mc_levelset(spec, nu, 1.0, bad, 1)
        with pytest.raises(DomainError):
            kernels.sphere_l1_norm_mc(spec, bad, 1)
        with pytest.raises(DomainError):
            constructions.build_exhaustion(nu, 1.0, bad, 1)
        with pytest.raises(DomainError):
            search.SearchProblem(spec, 2, bad, 1)


def test_derive_seed_stability():
    first = rng.derive_seed(123, rng.SEARCH_REEVAL)
    assert first == rng.derive_seed(123, rng.SEARCH_REEVAL)
    assert 0 <= first < 2**63
    assert first != rng.derive_seed(123, rng.SEARCH_REEVAL, unit=1)
    assert first != rng.derive_seed(124, rng.SEARCH_REEVAL)


def test_chunk_sizes():
    assert rng.chunk_sizes(5) == [5]
    assert rng.chunk_sizes(rng.CHUNK) == [rng.CHUNK]
    assert rng.chunk_sizes(rng.CHUNK + 5) == [rng.CHUNK, 5]
    assert rng.chunk_sizes(3 * rng.CHUNK) == [rng.CHUNK] * 3
    with pytest.raises(DomainError):
        rng.chunk_sizes(0)


def test_run_chunked_thread_count_is_invisible():
    total = 3 * rng.CHUNK + 17

    def body(gen, size, chunk_index):
        x = gen.random(size)
        return float(np.sum(x)), float(np.dot(x, x)), size

    single = rng.run_chunked(total, body, 9, rng.LEVELSET, unit=2, threads=1)
    many = rng.run_chunked(total, body, 9, rng.LEVELSET, unit=2, threads=4)
    assert single == many
    # chunk indices arrive in order with the declared sizes
    seen = []
    rng.run_chunked(
        total,
        lambda g, s, c: seen.append((c, s)),
        9,
        rng.LEVELSET,
    )
    assert seen == [(0, rng.CHUNK), (1, rng.CHUNK), (2, rng.CHUNK), (3, 17)]


def test_combine_mean_se_pools_exactly():
    gen = np.random.default_rng(31)
    values = gen.normal(2.0, 0.7, size=1000)
    pieces = np.array_split(values, 7)
    partials = [
        (float(np.sum(p)), float(np.dot(p, p)), p.size) for p in pieces
    ]
    mean, se, count = rng.combine_mean_se(partials)
    assert count == 1000
    assert mean == pytest.approx(float(np.mean(values)), rel=1e-13)
    want_se = float(np.std(values, ddof=1)) / math.sqrt(1000)
    assert se == pytest.approx(want_se, rel=1e-10)
    _, se1, _ = rng.combine_mean_se([(2.0, 4.0, 1)])
    assert se1 == math.inf


def test_uniform_sphere_and_ball():
    gen = rng.generator(12, rng.SPHERE_NORM)
    for n in (1, 2, 5):
        pts = rng.uniform_sphere(gen, 4000, n)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        assert np.max(np.abs(np.mean(pts, axis=0))) < 6.0 / math.sqrt(4000)
    ball = rng.uniform_ball(gen, 4000, 3)
    radii = np.linalg.norm(ball, axis=1)
    assert np.all(radii < 1.0)
    # radius^3 is uniform on (0, 1)
    assert abs(np.mean(radii**3) - 0.5) < 6.0 * 0.29 / math.sqrt(4000)


@pytest.mark.parametrize("n", [2, 3, 5, 20])
def test_uniform_star_direction_law(n):
    # theta_j^2 is Beta(1, (n - 1) / 2): E|theta_j| = G(3/2) G(b + 1) / G(b + 3/2)
    m, j = 200_000, n // 2
    x = rng.uniform_star(rng.generator(n, rng.LEVELSET), m, n, j)
    r = np.linalg.norm(x, axis=1)
    tj = np.abs(x[:, j]) / r
    b = (n - 1) / 2
    want = math.exp(math.lgamma(1.5) + math.lgamma(b + 1) - math.lgamma(b + 1.5))
    assert abs(tj.mean() - want) <= 4.0 * tj.std() / math.sqrt(m)
    assert abs(np.mean(np.sign(x[:, j]))) <= 4.0 / math.sqrt(m)
    # inside the unit star, with r^n uniform below |theta_j|
    u = r**n / tj
    assert np.all(u < 1.0 + 1e-12)
    assert abs(u.mean() - 0.5) <= 4.0 * math.sqrt(1 / 12 / m)


def test_scale_star_scales_each_unit_point():
    # one unit draw serves every scale: point i of the map is scale_i times
    # the unit star's point i
    for n in (2, 3, 6):
        unit = rng.unit_star(rng.generator(3, rng.LEVELSET), 500, n)
        scale = np.linspace(0.5, 2.0, 500)
        scaled = rng.scale_star(unit, n - 1, scale)
        assert np.allclose(scaled, scale * rng.scale_star(unit, n - 1, 1.0), rtol=1e-15, atol=0)


@pytest.mark.parametrize("n,i,j", [(2, 0, 1), (3, 2, 0), (5, 1, 3), (10, 0, 9)])
def test_pair_star_direction_law(n, i, j):
    # (theta_i^2, theta_j^2, rest^2) is Dirichlet(1, 1, (n - 2) / 2):
    # E theta_i^2 = E theta_j^2 = 2 / (n + 2)
    m = 200_000
    unit = rng.unit_pair_star(rng.generator(n, rng.LEVELSET), m, n)
    x = rng.scale_pair_star(unit, i, j, 1.0)
    r = np.sqrt(np.einsum("ij,ij->j", x, x))
    for d in (i, j):
        t2 = (x[d] / r) ** 2
        assert abs(t2.mean() - 2.0 / (n + 2)) <= 4.0 * t2.std() / math.sqrt(m)
        assert abs(np.mean(np.sign(x[d]))) <= 4.0 / math.sqrt(m)
    assert abs(np.mean(np.sign(x[i] * x[j]))) <= 4.0 / math.sqrt(m)
    # inside the unit star, with r^n uniform below |theta_i theta_j|
    u = r**n / np.abs(x[i] * x[j] / (r * r))
    assert np.all(u < 1.0 + 1e-12)
    assert abs(u.mean() - 0.5) <= 4.0 * math.sqrt(1 / 12 / m)


def _diagonal_quantiles(n, bins):
    """The angles phi = arcsin |theta_j| that cut the law proportional to
    |B - 1/n| Beta(1/2, (n-1)/2) of B = theta_j^2 into equal bins: in phi the
    density is proportional to |sin^2 phi - 1/n| cos^(n-2) phi on [0, pi/2],
    summed by the midpoint rule.
    """
    phi = (np.arange(1 << 20) + 0.5) * (math.pi / 2) / (1 << 20)
    cum = np.cumsum(np.abs(np.sin(phi) ** 2 - 1.0 / n) * np.cos(phi) ** (n - 2))
    return np.interp(np.arange(1, bins) / bins, cum / cum[-1], phi)


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_diagonal_star_direction_law(n):
    # the kept B = theta_j^2 follows |B - 1/n| Beta(1/2, (n-1)/2): a chi-square
    # test over 20 equally likely bins (19 degrees of freedom; 45 is its
    # 0.07% quantile)
    m, j, bins = 200_000, n - 1, 20
    unit = rng.unit_diagonal_star(rng.generator(n, rng.LEVELSET), m, n)
    x = rng.scale_star(unit, j, 1.0)
    r = np.sqrt(np.einsum("ij,ij->j", x, x))
    b = (x[j] / r) ** 2
    got = np.bincount(np.searchsorted(_diagonal_quantiles(n, bins), np.arcsin(np.sqrt(b))))
    assert np.sum((got - m / bins) ** 2 / (m / bins)) < 45.0
    assert abs(np.mean(np.sign(x[j]))) <= 4.0 / math.sqrt(m)
    # inside the unit star, with r^n uniform below |theta_j^2 - 1/n|
    u = r**n / np.abs(b - 1.0 / n)
    assert np.all(u < 1.0 + 1e-9)
    assert abs(u.mean() - 0.5) <= 4.0 * math.sqrt(1 / 12 / m)


def test_unit_second_order_stars_have_the_asked_size_and_repeat():
    for n in (2, 3, 7):
        for draw in (rng.unit_pair_star, rng.unit_diagonal_star):
            a = draw(rng.generator(5, rng.LEVELSET, chunk=n), 1000, n)
            b = draw(rng.generator(5, rng.LEVELSET, chunk=n), 1000, n)
            assert all(p.shape[-1] == 1000 for p in a)
            assert all(np.array_equal(p, q) for p, q in zip(a, b))
