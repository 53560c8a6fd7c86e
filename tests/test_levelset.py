import math
import time
import tracemalloc

import numpy as np
import pytest

import rieszlab
from rieszlab import decomposition as D
from rieszlab import kernels as K
from rieszlab import levelset as L
from rieszlab import measures as M
from rieszlab import rng
from rieszlab.errors import DomainError, ToleranceError


def line_measure(gen, count):
    return M.PointMassMeasure(
        n=1,
        masses=gen.uniform(0.2, 3.0, size=count),
        centers=np.sort(gen.normal(size=count))[:, None] * 4.0,
    )


def test_two_pole_frozen_interval_solution():
    # unit poles at -1, 1 at threshold 1: endpoints solve pi x^2 - 2x - pi = 0
    nu = M.PointMassMeasure(
        n=1, masses=np.array([1.0, 1.0]), centers=np.array([[-1.0], [1.0]])
    )
    root = (1.0 + math.sqrt(1.0 + math.pi**2)) / math.pi
    plus, minus = L.hilbert_levelset_sides(nu, 1.0)
    assert plus[1] == pytest.approx((1.0, root), rel=1e-12)
    assert minus[0] == pytest.approx((-root, -1.0), rel=1e-12)
    est = L.hilbert_levelset_exact(nu, 1.0)
    assert est.value == pytest.approx(4.0 / math.pi, rel=1e-12)
    assert est.standard_error == 0.0 and est.samples == 0


@pytest.mark.parametrize("method,tol", [("vieta", 1e-10), ("bisection", 1e-8)])
def test_line_functional_constant(method, tol):
    # lambda |{|T nu| > lambda}| / ||nu|| = 2/pi for every positive measure;
    # the legacy method names route to the one interval solver, so every
    # name gives the same value and all meet the tighter vieta bound
    gen = np.random.default_rng(17)
    for count in (1, 2, 3, 5, 8):
        nu = line_measure(gen, count)
        for lam in (0.5, 1.0, 2.0):
            est = L.levelset_measure(K.hilbert(), nu, lam, method=method)
            assert est.value == L.hilbert_levelset_exact(nu, lam).value
            assert est.method == "interval"
            got = lam * est.value / M.total_variation(nu)
            assert got == pytest.approx(2.0 / math.pi, rel=min(tol, 1e-10))


def test_sides_structure():
    gen = np.random.default_rng(29)
    nu = line_measure(gen, 5)
    lam = 1.3
    plus, minus = L.hilbert_levelset_sides(nu, lam)
    cs = np.sort(nu.centers[:, 0])
    a = nu.masses[np.argsort(nu.centers[:, 0])]
    # positive intervals open at the poles, negative ones close at them
    assert np.allclose([l for l, _ in plus], cs)
    assert np.allclose([r for _, r in minus], cs[::-1][::-1])
    for _, r in plus:
        val = float(np.sum(a / (r - cs)) / math.pi)
        assert val == pytest.approx(lam, rel=1e-9)
    for l, _ in minus:
        val = float(np.sum(a / (l - cs)) / math.pi)
        assert val == pytest.approx(-lam, rel=1e-9)
    tv = M.total_variation(nu)
    assert math.fsum(r - l for l, r in plus) == pytest.approx(
        tv / (math.pi * lam), rel=1e-10
    )
    assert math.fsum(r - l for l, r in minus) == pytest.approx(
        tv / (math.pi * lam), rel=1e-10
    )


def assert_line_identity(nu):
    for lam in (0.5, 1.0, 2.0):
        got = lam * L.hilbert_levelset_exact(nu, lam).value / M.total_variation(nu)
        assert got == pytest.approx(2.0 / math.pi, rel=1e-12)


@pytest.mark.parametrize("count", [1, 2, 5, 50, 120, 1000])
def test_line_identity_up_to_a_thousand_masses(count):
    nu = line_measure(np.random.default_rng(count), count)
    start = time.perf_counter()
    L.hilbert_levelset_sides(nu, 1.0)
    assert time.perf_counter() - start < 1.0
    assert_line_identity(nu)


def test_line_identity_on_cz_point_masses():
    # two bumps of a level-6 grid on [0, 1), split at depth 9: 43 masses
    x = (np.arange(64) + 0.5) / 64
    inside = (np.abs(x - 0.3) < 0.12) | (np.abs(x - 0.72) < 0.07)
    r2 = (x - 0.5) ** 2
    values = np.where(inside, 1.25 + np.cos(7.0 * r2), 0.75 * np.exp(-r2))
    f = D.GridFunction(6, D.DyadicCube(0, (0,)), values)
    nu = D.cz_decompose(f, 1.0, 9).point_masses
    assert nu.count > 40
    assert_line_identity(nu)


@pytest.mark.parametrize(
    "centers,lam",
    [
        (np.sort(np.random.default_rng(5).uniform(-1e6, 1e6, 40)), 1.0),
        (np.arange(30) * 1e-6, 1e3),
    ],
)
def test_interval_endpoints_solve_the_level_equation(centers, lam):
    a = np.random.default_rng(7).uniform(0.2, 3.0, len(centers))
    nu = M.PointMassMeasure(1, a, centers[:, None])
    plus, minus = L.hilbert_levelset_sides(nu, lam)
    for (_, r), (l, _) in zip(plus, minus):
        assert np.sum(a / (r - centers)) / math.pi == pytest.approx(lam, rel=1e-9)
        assert np.sum(a / (l - centers)) / math.pi == pytest.approx(-lam, rel=1e-9)


def test_line_identity_with_huge_masses():
    # {T nu > 1} runs about 6e299 past the last pole but about 1/2 past the first
    nu = M.PointMassMeasure(1, np.array([1e300, 1e300]), np.array([[0.0], [1.0]]))
    got = L.hilbert_levelset_exact(nu, 1.0).value / 2e300
    assert got == pytest.approx(2.0 / math.pi, rel=1e-12)


def three_masses(e):
    centers = np.array([[0.0], [1.0], [2.0]])
    return M.PointMassMeasure(1, np.full(3, 10.0**e), centers)


@pytest.mark.parametrize("e", [-300, -175, -155, 155, 175, 300])
def test_line_identity_at_extreme_weight_to_gap_ratios(e):
    # sum w and the pole gaps are more than 2^508 apart
    nu = three_masses(e)
    got = L.hilbert_levelset_exact(nu, 1.0).value / M.total_variation(nu)
    assert got == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_line_clamped_gap_root_keeps_relative_accuracy():
    # rho = 1e300 dwarfs the spread; the gap root beside the lighter mass is
    # w_0 / (rho + 1) = 1e-200
    nu = M.PointMassMeasure(
        1, math.pi * np.array([1e100, 1e300]), np.array([[0.0], [1.0]])
    )
    plus, _, _ = L.hilbert_levelset_intervals(nu, 1.0)
    assert plus[0][1] == pytest.approx(1e-200, rel=1e-14)


def test_line_tiny_gap_beside_wide_spread_is_exact_or_refused():
    # rho is 2^530 times the smallest gap but below the spread, so no limit
    # may be taken: the volume is exact, or the solve is refused
    nu = M.PointMassMeasure(1, np.ones(3), np.array([[0.0], [1e-160], [1.0]]))
    try:
        got = L.hilbert_levelset_exact(nu, 1.0).value / 3.0
    except ToleranceError:
        return
    assert got == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_poles_merged_by_rounding_keep_the_identity():
    # shifted to the first pole the last two centers would round to one
    # point; measured from their own poles the roots between them stay apart
    nu = M.PointMassMeasure(1, np.ones(3), np.array([[-1e20], [1.0], [1.0 + 2**-52]]))
    got = L.hilbert_levelset_exact(nu, 1.0).value / 3.0
    assert got == pytest.approx(2.0 / math.pi, rel=1e-12)


def mp_line_lengths(a, c):
    """Interval lengths of sum a / (pi (x - c)) = 1 past each pole, then of
    the same after x -> -x, for sorted c: 1400-bit roots, each measured from
    its nearer pole and certified by a sign change within 2^-300 of it."""
    mp = pytest.importorskip("mpmath")
    with mp.workprec(1400):
        w = [mp.mpf(float(x)) / mp.pi for x in a]
        out = []
        for side in (1, -1):
            cs = [mp.mpf(side * float(x)) for x in c][::side]
            ws = w[::side]
            n = len(cs)

            def r(p, tau):  # tau / (tau - d_k), d_k = c_k - c_p
                return [tau / (tau - (ck - cs[p])) for ck in cs]

            def G(p, tau):  # tau (F(c_p + tau) - 1)
                return sum(wk * rk for wk, rk in zip(ws, r(p, tau))) - tau

            def q(p, tau):
                return sum(wk * rk**2 for wk, rk in zip(ws, r(p, tau)))

            lengths = []
            for j in range(n):
                p, tau = j, sum(ws)
                if j < n - 1:
                    half = (cs[j + 1] - cs[j]) / 2
                    p, tau = (j + 1, -half) if G(j, half) > 0 else (j, half)
                for _ in range(200):  # Newton from past the root
                    g = G(p, tau)
                    step = tau * g / (g - q(p, tau))
                    tau -= step
                    if abs(step) < abs(tau) * mp.mpf(2) ** -600:
                        break
                eps = mp.mpf(2) ** -300
                assert G(p, tau * (1 - eps)) * G(p, tau * (1 + eps)) <= 0
                lengths.append(float(tau + cs[p] - cs[j]))
            out += lengths[::side]
        return np.array(out)


def assert_lengths_match_mpmath(a, c):
    a, c = np.asarray(a, float), np.asarray(c, float)
    got = L._line_lengths(a, c, 1.0)
    want = mp_line_lengths(a, c)
    normal = want >= np.finfo(float).tiny
    assert np.all(np.abs(got - want)[normal] <= 1e-15 * want[normal]), (got, want)


@pytest.mark.parametrize(
    "masses,centers",
    [((1.0, 1.0, 1.0), (0.0, 1e-16, 1.0)), ((1e100, 1e-120), (0.0, 1.0))],
)
def test_line_lengths_beside_tiny_gaps_and_light_masses_match_mpmath(masses, centers):
    # a gap of 1e-16 beside a spread of 1, and a length of 1e-220 beside a mass
    # 1e220 times heavier: each root must be measured from its nearer pole
    assert_lengths_match_mpmath(masses, centers)


def test_line_lengths_match_mpmath_across_the_double_range():
    # N = 2..5, gaps 10^-200..1, centers scaled by 10^+-50 and masses up to
    # 10^+-300: every length in the normal range is within 1e-15 of mpmath
    gen = np.random.default_rng(7)
    for _ in range(100):
        n = int(gen.integers(2, 6))
        gaps = 10.0 ** gen.uniform(-200, 0, n - 1)
        c = np.cumsum(np.concatenate([[0.0], gaps])) * 10.0 ** gen.uniform(-50, 50)
        e = gen.uniform(0, 300)
        if np.all(np.diff(c) > 0):
            assert_lengths_match_mpmath(10.0 ** gen.uniform(-e, e, n), c)


@pytest.mark.parametrize("a", [1e-300, 1e-150, 3.7, 1e150, 1e300])
@pytest.mark.parametrize("lam", [1e-300, 1e-5, 0.8, 1e5, 1e300])
def test_line_single_pole_lengths_are_a_over_pi_lambda(a, lam):
    # one pole: F = w / x crosses 1 at x = w = a / (pi lam) on each side
    nu = M.PointMassMeasure(1, np.array([a]), np.array([[-2.5]]))
    w = a / (math.pi * lam)
    if 0.0 < w < math.inf:
        plus, minus, lengths = L.hilbert_levelset_intervals(nu, lam)
        assert lengths == [w, w]
        assert plus == [(-2.5, -2.5 + w)] and minus == [(-2.5 - w, -2.5)]
    else:
        with pytest.raises(DomainError):
            L.hilbert_levelset_intervals(nu, lam)


def test_exact_solver_rejects_duplicates_and_bad_threshold():
    nu = M.PointMassMeasure(
        n=1, masses=np.array([1.0, 2.0]), centers=np.array([[0.5], [0.5]])
    )
    with pytest.raises(DomainError):
        L.hilbert_levelset_exact(nu, 1.0)
    ok = M.PointMassMeasure(n=1, masses=np.array([1.0]), centers=np.array([[0.0]]))
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            L.hilbert_levelset_exact(ok, bad)


def test_unit_levelset_constant_scaling():
    # a closed form in every dimension, n = 12..14 and 44..68 included
    for n in range(1, 201):
        assert L.unit_levelset_constant(n) * n == pytest.approx(
            2.0 / math.pi, rel=1e-12
        )
        assert L.unit_levelset_constant(n) <= K.dimensional_constant(n) + 1e-15
    assert L.unit_levelset_constant(1) == pytest.approx(
        K.dimensional_constant(1), rel=1e-12
    )


@pytest.mark.parametrize("n", [12, 13, 50])
def test_mc_levelset_runs_in_high_dimension(n):
    # the star volumes need 2/(pi n) at every n the API accepts
    nu = M.PointMassMeasure(
        n=n,
        masses=np.array([1.0, 2.0]),
        centers=np.vstack([np.zeros(n), np.full(n, 0.1)]),
    )
    est = L.mc_levelset(K.riesz(n, 1), nu, 1.0, 2000, seed=n)
    assert math.isfinite(est.value) and est.value > 0.0
    assert est.standard_error > 0.0


def test_single_mass_closed_form():
    nu = M.PointMassMeasure(
        n=3, masses=np.array([2.0]), centers=np.array([[0.5, -1.0, 2.0]])
    )
    est = L.single_mass_levelset_exact(K.riesz(3, 2), nu, 0.7)
    assert est.value == pytest.approx(2.0 / 0.7 * 2.0 / (3.0 * math.pi), rel=1e-12)
    assert est.method == "single-mass"
    two = M.PointMassMeasure(
        n=3, masses=np.array([1.0, 1.0]), centers=np.array([[0.0] * 3, [1.0] * 3])
    )
    with pytest.raises(DomainError):
        L.single_mass_levelset_exact(K.riesz(3, 2), two, 1.0)


def test_covering_balls_contain_level_set():
    gen = np.random.default_rng(37)
    for n in (1, 2, 3):
        spec = K.hilbert() if n == 1 else K.riesz(n, 1)
        nu = M.PointMassMeasure(
            n=n,
            masses=gen.uniform(0.2, 2.0, size=3),
            centers=gen.normal(size=(3, n)),
        )
        lam = 0.9
        rho = L.covering_radii(spec, nu, lam)
        pts = gen.normal(size=(500, n)) * 5.0
        dist = np.linalg.norm(pts[:, None, :] - nu.centers[None, :, :], axis=2)
        outside = np.all(dist > rho[None, :], axis=1) & np.all(dist > 1e-9, axis=1)
        vals = np.abs(M.transform_many(spec, nu, pts[outside]))
        assert np.all(vals <= lam * (1.0 + 1e-12))


def test_mc_matches_exact_within_three_se():
    nu = M.PointMassMeasure(
        n=1, masses=np.array([1.0, 1.0]), centers=np.array([[-1.0], [1.0]])
    )
    exact = L.hilbert_levelset_exact(nu, 1.0).value
    est = L.mc_levelset(K.hilbert(), nu, 1.0, 100000, seed=42)
    assert abs(est.value - exact) <= 3.0 * est.standard_error
    assert est.samples == 100000 and est.method == "mc"

    for n in (2, 3):
        one = M.PointMassMeasure(
            n=n, masses=np.array([1.5]), centers=np.array([[0.25] * n])
        )
        spec = K.riesz(n, 1)
        exact = L.single_mass_levelset_exact(spec, one, 0.8).value
        est = L.mc_levelset(spec, one, 0.8, 100000, seed=43)
        assert abs(est.value - exact) <= 3.0 * est.standard_error

    spec = K.second_order(2, 1, 2)
    one = M.PointMassMeasure(n=2, masses=np.array([1.0]), centers=np.zeros((1, 2)))
    exact = L.single_mass_levelset_exact(spec, one, 1.0).value
    est = L.mc_levelset(spec, one, 1.0, 100000, seed=44)
    assert abs(est.value - exact) <= 3.0 * est.standard_error


def test_mc_determinism_and_thread_independence():
    nu = M.PointMassMeasure(
        n=2,
        masses=np.array([1.0, 0.5]),
        centers=np.array([[0.0, 0.0], [1.0, 0.0]]),
    )
    spec = K.riesz(2, 1)
    a = L.mc_levelset(spec, nu, 1.0, 50000, seed=9)
    b = L.mc_levelset(spec, nu, 1.0, 50000, seed=9)
    c = L.mc_levelset(spec, nu, 1.0, 50000, seed=9, threads=4)
    assert (a.value, a.standard_error) == (b.value, b.standard_error)
    assert (a.value, a.standard_error) == (c.value, c.standard_error)
    d = L.mc_levelset(spec, nu, 1.0, 50000, seed=10)
    assert d.value != a.value


def two_masses():
    return M.PointMassMeasure(2, np.array([1.0, 0.5]), np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_mc_values_are_pinned():
    # 50,000 samples at seed 9, as first drawn by the one-component proposal;
    # the second-order row since its components are stars
    line = M.PointMassMeasure(1, np.array([1.0, 0.5, 2.0]), np.array([[0.0], [0.4], [1.5]]))
    single = M.PointMassMeasure(3, np.array([2.5]), np.array([[0.3, -0.2, 0.1]]))
    cases = [
        (K.riesz(2, 1), two_masses(), 1.0, 0.45983696558851284, 0.0021312059952638945),
        (K.riesz(3, 1), single, 0.5, 1.06051485155296, 0.0008023083594595281),
        (K.second_order(2, 1, 2), two_masses(), 1.0, 0.46651287972307315, 0.0021320626357072725),
        (K.hilbert(), line, 0.8, 2.7805198487262452, 0.01283336700412831),
    ]
    for spec, nu, lam, value, se in cases:
        est = L.mc_levelset(spec, nu, lam, 50000, seed=9)
        assert repr(est) == repr(rng.Estimate(value, se, 50000, "mc", lam))


@pytest.fixture
def unit_draws(monkeypatch):
    """The sizes of the unit draws mc_levelset makes, in order."""
    made = []

    def unit(self, gen, size, draw=L._Proposal.unit):
        made.append(size)
        return draw(self, gen, size)

    monkeypatch.setattr(L._Proposal, "unit", unit)
    return made


@pytest.mark.parametrize(
    "spec", [K.riesz(2, 1), K.riesz(3, 2), K.second_order(3, 1, 2), K.hilbert()],
    ids=["riesz2", "riesz3", "second3", "line"],
)
def test_mc_kept_units_after_another_seed_equal_the_first_result(spec, unit_draws):
    gen = np.random.default_rng(4)
    nu = M.PointMassMeasure(spec.n, gen.uniform(0.5, 1.5, 3), gen.normal(size=(3, spec.n)))
    units = {}
    first = L.mc_levelset(spec, nu, 1.0, 5000, seed=21, units=units)
    other = L.mc_levelset(spec, nu, 1.0, 5000, seed=22, units=units)
    assert len(unit_draws) == 2 and len(units) == 2
    kept = L.mc_levelset(spec, nu, 1.0, 5000, seed=21, units=units)
    assert len(unit_draws) == 2
    plain = L.mc_levelset(spec, nu, 1.0, 5000, seed=21)
    assert repr(kept) == repr(first) == repr(plain) and other.value != first.value


def test_mc_kernels_of_one_n_share_kept_units():
    # unit draws are keyed by the family of their components: a Riesz and
    # two second-order calls on one seed and one dict map their own draws
    nu = two_masses_3d()
    specs = (K.riesz(3, 1), K.second_order(3, 1, 2), K.second_order(3, 2, 2))
    units = {}
    shared = [repr(L.mc_levelset(s, nu, 1.0, 5000, seed=4, units=units)) for s in specs]
    again = [repr(L.mc_levelset(s, nu, 1.0, 5000, seed=4, units=units)) for s in specs]
    plain = [repr(L.mc_levelset(s, nu, 1.0, 5000, seed=4)) for s in specs]
    assert len(units) == 3
    assert shared == again == plain


def test_mc_without_units_draws_every_call(unit_draws):
    for _ in range(2):
        L.mc_levelset(K.riesz(3, 1), two_masses_3d(), 1.0, 40000, seed=5)
    assert unit_draws == 2 * [rng.CHUNK, rng.CHUNK, 40000 - 2 * rng.CHUNK]


def test_mc_units_keep_the_first_chunks_within_the_byte_bound(unit_draws):
    # n = 5 stars take 9 doubles a point: three full chunks fit in the
    # bound, a fourth does not
    nu = M.PointMassMeasure(5, np.array([1.0, 0.5]), np.array([[0.0] * 5, [0.8, 0.3, 0, 0, 0]]))
    units = {}
    first = L.mc_levelset(K.riesz(5, 1), nu, 1.0, 60000, seed=8, units=units)
    assert sorted(key[1] for key in units) == [0, 1, 2]
    held = sum(a.nbytes for block in units.values() for a in block)
    assert held == 3 * rng.CHUNK * 9 * 8 <= rng.UNIT_CACHE_BYTES
    again = L.mc_levelset(K.riesz(5, 1), nu, 1.0, 60000, seed=8, units=units)
    assert unit_draws == [rng.CHUNK] * 3 + [60000 - 3 * rng.CHUNK] * 2
    assert repr(again) == repr(first)


def two_masses_3d():
    return M.PointMassMeasure(3, np.array([1.0, 0.5]), np.array([[0.0, 0.0, 0.0], [0.8, 0.3, 0.0]]))


def test_mc_units_threads_agree_on_multi_chunk_draws(unit_draws):
    spec, nu = K.riesz(3, 1), two_masses_3d()
    units = {}
    one = L.mc_levelset(spec, nu, 1.0, 40000, seed=6, threads=2, units=units)
    assert len(units) == 3
    two = L.mc_levelset(spec, nu, 1.0, 40000, seed=6, threads=2, units=units)
    kept_one = L.mc_levelset(spec, nu, 1.0, 40000, seed=6, units=units)
    plain = L.mc_levelset(spec, nu, 1.0, 40000, seed=6)
    assert len(unit_draws) == 6
    assert repr(one) == repr(two) == repr(kept_one) == repr(plain)


def test_mc_kept_arrays_are_read_only():
    units = {}
    L.mc_levelset(K.riesz(2, 1), two_masses(), 1.0, 2000, seed=7, units=units)
    (block,) = units.values()
    for a in block:
        with pytest.raises(ValueError):
            a[0] = 0.5


def test_mc_thread_independence_across_tiles():
    # 40 masses: a full chunk takes one mass per tile, the last chunk two
    gen = np.random.default_rng(23)
    nu = M.PointMassMeasure(
        n=3, masses=gen.uniform(0.5, 1.5, 40), centers=gen.normal(size=(40, 3))
    )
    assert M.PAIR_BUDGET // 7232 < nu.count
    for spec in (K.riesz(3, 2), K.second_order(3, 1, 3), K.second_order(3, 2, 2)):
        one = L.mc_levelset(spec, nu, 1.0, 40000, seed=12)
        two = L.mc_levelset(spec, nu, 1.0, 40000, seed=12, threads=2)
        assert repr(one) == repr(two)
        assert one.standard_error > 0.0


def test_mc_memory_does_not_grow_with_masses():
    # the parent design held (samples, masses, n) arrays: 280 MB here
    gen = np.random.default_rng(5)
    nu = M.PointMassMeasure(
        n=2, masses=np.ones(5000), centers=gen.uniform(-10.0, 10.0, (5000, 2))
    )
    tracemalloc.start()
    try:
        est = L.mc_levelset(K.riesz(2, 1), nu, 1.0, 1000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.standard_error > 0.0
    assert peak < 32 * 2**20


@pytest.mark.parametrize("seed", [0, 1])
def test_mc_all_miss_reports_rule_of_three_bound(seed):
    # 10^4 unit masses spread far apart in 5-D: a draw hits with probability
    # about SHRINK sum(a) / (sum sqrt(a))^2 = 1e-4, and not one of 1000
    # draws does; the bound is 3 V / m, V the total volume of the components
    spec = K.riesz(5, 1)
    nu = M.PointMassMeasure(
        n=5,
        masses=np.ones(10_000),
        centers=np.random.default_rng(0).normal(size=(10_000, 5)) * 100,
    )
    est = L.mc_levelset(spec, nu, 1.0, 1000, seed=seed)
    reach = float(np.sum(nu.masses / (L.SHRINK * L.star_thresholds(nu, 1.0))))
    assert est.value == 0.0
    assert est.standard_error > 0.0
    assert est.standard_error == pytest.approx(
        3.0 * reach * 2 / (5 * math.pi) / 1000, rel=1e-12
    )
    # a numpy zero: the relative error is inf, not a ZeroDivisionError
    with np.errstate(divide="ignore"):
        assert est.standard_error / est.value == math.inf
    # second-order kernels draw from their stars too, of volume
    # (a_k / t'_k) |{|K| > 1}|, and hit as often: the diagonal kernel, whose
    # sphere norm is not 2 / pi, misses with every draw at these seeds (the
    # off-diagonal x_1 x_2 kernel hits once at seed 1)
    spec = K.second_order(5, 2, 2)
    est = L.mc_levelset(spec, nu, 1.0, 1000, seed=seed)
    vstar = reach * L.unit_levelset_volume(spec)
    assert est.value == 0.0
    assert est.standard_error == pytest.approx(3.0 * vstar / 1000, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_mc_stars_hit_where_the_balls_missed(seed):
    # 100 masses spread apart in 20-D: the covering balls are so much larger
    # than the level set that 1000 draws from them all miss; the stars are
    # 5.5 times smaller per mass and take sqrt(a) shares of lambda, not
    # lambda / N, so about 1% of the draws hit
    spec = K.riesz(20, 1)
    nu = M.PointMassMeasure(
        n=20,
        masses=np.ones(100),
        centers=np.random.default_rng(0).normal(size=(100, 20)) * 100,
    )
    est = L.mc_levelset(spec, nu, 1.0, 1000, seed=seed)
    assert est.value > 0.0
    assert est.standard_error > 0.0


def riesz_measure(gen, n, count):
    return M.PointMassMeasure(
        n=n, masses=gen.uniform(0.2, 3.0, count), centers=gen.normal(size=(count, n))
    )


@pytest.mark.parametrize("n,j", [(2, 1), (2, 2), (3, 2), (5, 1), (5, 5)])
def test_star_draws_lie_in_their_stars(n, j):
    # centers far apart, so the components are disjoint and each draw's
    # component is the one about its nearest center
    gen = np.random.default_rng(10 * n + j)
    nu = riesz_measure(gen, n, 6)
    nu = M.PointMassMeasure(n, nu.masses, nu.centers * 1000.0)
    lam = 0.7
    t = L.star_thresholds(nu, lam)
    assert math.fsum(t) == pytest.approx(lam, rel=1e-12)
    assert np.allclose(t / np.sqrt(nu.masses), t[0] / math.sqrt(nu.masses[0]))
    t = L.SHRINK * t
    # component k is drawn with probability proportional to a_k / t'_k
    p = (nu.masses / t) / np.sum(nu.masses / t)
    specs = (K.riesz(n, j), K.second_order(n, 1, j), K.second_order(n, 1, 2),
             K.second_order(n, 2, 2))
    for spec in dict.fromkeys(specs):
        pts = L._Proposal(spec, nu, lam).draw(gen, 20000)
        off = pts[:, None, :] - nu.centers[None, :, :]
        idx = np.argmin(np.sum(off * off, axis=2), axis=1)
        off = pts - nu.centers[idx]
        # the star {a_k |K(. - c_k)| > t'_k}
        vals = nu.masses[idx] * np.abs(K.kernel_values(spec, off))
        assert np.all(vals >= t[idx] * (1.0 - 1e-12))
        counts = np.bincount(idx, minlength=nu.count)
        assert np.all(np.abs(counts - 20000 * p) <= 4.0 * np.sqrt(20000 * p * (1 - p)))


@pytest.mark.parametrize(
    "spec",
    [K.riesz(2, 1), K.riesz(3, 1), K.second_order(3, 1, 2), K.hilbert()],
    ids=["2", "3", "second3", "line"],
)
def test_mc_agrees_with_plain_box_sampling(spec):
    # overlapping components: a point in several of them must weigh
    # 1 / q with q counting all of them; the reference samples a box around
    # the covering balls uniformly and counts hits
    n = spec.n
    gen = np.random.default_rng(90 + n)
    nu = M.PointMassMeasure(
        n=n, masses=gen.uniform(0.3, 2.0, 4), centers=gen.normal(size=(4, n)) * 0.3
    )
    est = L.mc_levelset(spec, nu, 1.0, 200_000, seed=5)
    rho = np.max(L.covering_radii(spec, nu, 1.0))
    lo, hi = nu.centers.min(axis=0) - rho, nu.centers.max(axis=0) + rho
    m = 400_000
    pts = lo + (hi - lo) * gen.random((m, n))
    hits = np.abs(M.transform_many(spec, nu, pts)) > 1.0
    box = float(np.prod(hi - lo))
    p = hits.mean()
    ref, ref_se = box * p, box * math.sqrt(p * (1 - p) / m)
    assert abs(est.value - ref) <= 4.0 * math.hypot(est.standard_error, ref_se)


def se_honesty_ratio(spec, nu, lam, exact, seeds=400, samples=4000):
    """RMS reported SE over the RMS error about the exact value."""
    ests = [L.mc_levelset(spec, nu, lam, samples, seed) for seed in range(seeds)]
    se = math.sqrt(math.fsum(e.standard_error**2 for e in ests) / seeds)
    spread = math.sqrt(math.fsum((e.value - exact) ** 2 for e in ests) / seeds)
    return se / spread


@pytest.mark.parametrize(
    "spec",
    [K.riesz(2, 1), K.riesz(3, 2), K.riesz(5, 1), K.second_order(3, 1, 2), K.hilbert()],
    ids=["riesz2", "riesz3", "riesz5", "second3", "line3"],
)
def test_mc_standard_error_matches_the_spread_over_seeds(spec):
    # exact cases: one mass for n >= 2, three masses on the line; a stratified
    # proposal read as iid overstates the SE, here 1.4 to 1.6 times at n = 3, 5
    n = spec.n
    if n == 1:
        nu = M.PointMassMeasure(1, np.array([1.0, 0.5, 2.0]), np.array([[0.0], [0.4], [1.5]]))
    else:
        nu = M.PointMassMeasure(n, np.array([1.3]), np.full((1, n), 0.2))
    exact = L.levelset_measure(spec, nu, 0.8).value
    assert 0.8 <= se_honesty_ratio(spec, nu, 0.8, exact) <= 1.25


def test_mc_diagonal_standard_error_matches_the_spread_over_seeds():
    spec = K.second_order(3, 2, 2)
    nu = M.PointMassMeasure(3, np.array([1.3]), np.full((1, 3), 0.2))
    exact = L.single_mass_levelset_exact(spec, nu, 0.8).value
    assert 0.8 <= se_honesty_ratio(spec, nu, 0.8, exact) <= 1.25


@pytest.mark.parametrize("n,i,j", [(2, 1, 2), (3, 1, 2), (3, 2, 2), (5, 1, 1), (10, 3, 3)])
def test_mc_second_order_single_mass_within_three_se_of_closed_form(n, i, j):
    # the components are the stars themselves: a draw hits unless it falls in
    # the rim between SHRINK t and t
    spec = K.second_order(n, i, j)
    a, lam = 1.7, 0.6
    nu = M.PointMassMeasure(n=n, masses=np.array([a]), centers=np.full((1, n), 0.3))
    est = L.mc_levelset(spec, nu, lam, 40000, seed=90 + n + i + j)
    exact = L.single_mass_levelset_exact(spec, nu, lam).value
    assert est.standard_error > 0.0
    assert abs(est.value - exact) <= 3.0 * est.standard_error
    assert est.standard_error / est.value < 0.2 / math.sqrt(40000)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_mc_single_mass_within_three_se_of_closed_form(n):
    a, lam = 1.7, 0.6
    nu = M.PointMassMeasure(n=n, masses=np.array([a]), centers=np.full((1, n), 0.3))
    est = L.mc_levelset(K.riesz(n, 1), nu, lam, 40000, seed=80 + n)
    assert est.standard_error > 0.0
    assert abs(est.value - 2.0 * a / (math.pi * n * lam)) <= 3.0 * est.standard_error


def test_auto_route_single_center_test_agrees_with_merging():
    spec = K.riesz(2, 1)
    up = np.nextafter(2.0, 3.0)
    cases = (
        [[0.5, 0.5]],
        [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]],
        [[0.0, -0.0], [-0.0, 0.0]],
        [[-0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
        [[1.0, 2.0], [1.0, up]],
        [[1.0, 2.0], [1.0, 2.0], [1.0 + 1e-15, 2.0]],
    )
    routes = []
    for centers in cases:
        nu = M.PointMassMeasure(2, np.ones(len(centers)), np.array(centers))
        one = M.merge_duplicate_centers(nu).count == 1
        est = L.levelset_measure(spec, nu, 1.0, samples=1000, seed=1)
        assert est.method == ("single-mass" if one else "mc")
        routes.append(est.method)
    assert routes == ["single-mass"] * 4 + ["mc"] * 2


@pytest.mark.parametrize(
    "masses,centers",
    [((1e-20,) * 3, (0.0, 1.0, 2.0)), ((1e-12,) * 2, (1e6, 1e6 + 1.0))],
)
def test_line_identity_keeps_intervals_below_the_double_spacing(masses, centers):
    # each interval is far shorter than the spacing of doubles at its pole,
    # so the rounded endpoints alone would lose it
    nu = M.PointMassMeasure(1, np.array(masses), np.array(centers)[:, None])
    got = L.hilbert_levelset_exact(nu, 1.0).value / M.total_variation(nu)
    assert got == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_mc_standard_error_scaling():
    nu = M.PointMassMeasure(
        n=1, masses=np.array([1.0, 1.0]), centers=np.array([[-1.0], [1.0]])
    )
    small = L.mc_levelset(K.hilbert(), nu, 1.0, 50000, seed=5)
    big = L.mc_levelset(K.hilbert(), nu, 1.0, 200000, seed=5)
    ratio = big.standard_error / small.standard_error
    assert 0.4 <= ratio <= 0.6


@pytest.mark.parametrize(
    "masses,lam",
    [((1.0,), 1.0), ((2.5,), 0.7), ((0.5, 0.5), 1.0), ((0.3, 0.3, 0.3), 2.0)],
)
def test_mc_sharp_cover_cases_report_real_error(masses, lam):
    # one 1-D mass, or equal masses at one center: the covering balls at lam
    # are the level set itself, so the proposal has to be strictly wider
    nu = M.PointMassMeasure(
        n=1, masses=np.array(masses), centers=np.full((len(masses), 1), 0.3)
    )
    exact = 2.0 * M.total_variation(nu) / (math.pi * lam)
    for spec in (K.riesz(1, 1), K.hilbert()):
        est = L.mc_levelset(spec, nu, lam, 50000, seed=71)
        wide = L.mc_levelset(spec, nu, lam, 200000, seed=71)
        for e in (est, wide):
            assert e.standard_error > 0.0
            assert abs(e.value - exact) <= 3.0 * e.standard_error
        assert 1.8 <= est.standard_error / wide.standard_error <= 2.2


def test_mc_validation():
    nu = M.PointMassMeasure(n=1, masses=np.array([1.0]), centers=np.array([[0.0]]))
    with pytest.raises(DomainError):
        L.mc_levelset(K.hilbert(), nu, 1.0, 100, seed=1)
    with pytest.raises(DomainError):
        L.mc_levelset(K.hilbert(), nu, 1.0, 5000, seed=-3)
    with pytest.raises(DomainError):
        L.mc_levelset(K.riesz(2, 1), nu, 1.0, 5000, seed=1)


def test_mc_refuses_thresholds_whose_sums_overflow():
    # the cover volume grows like 1/lambda: the squared weight sums overflow
    # (SE 0 at 1e-150, nan at 1e-200) and at 1e-300 K underflows (value 0)
    nu = M.PointMassMeasure(
        n=2, masses=np.array([1.0, 2.0]), centers=np.array([[0.0, 0.0], [1.0, 0.0]])
    )
    est = L.mc_levelset(K.riesz(2, 1), nu, 1e-100, 20000, seed=3)
    assert est.value > 0.0
    assert math.isfinite(est.standard_error) and est.standard_error > 0.0
    for lam in (1e-150, 1e-200, 1e-300):
        with pytest.raises(DomainError):
            L.mc_levelset(K.riesz(2, 1), nu, lam, 20000, seed=3)


def test_levelset_monotone_in_threshold():
    gen = np.random.default_rng(53)
    nu = line_measure(gen, 4)
    vals = [L.hilbert_levelset_exact(nu, lam).value for lam in (0.25, 0.5, 1.0, 2.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_router_and_functional():
    # line kernel routes to the interval solver even with duplicate centers
    dup = M.PointMassMeasure(
        n=1,
        masses=np.array([1.0, 1.0, 0.5]),
        centers=np.array([[0.0], [0.0], [2.0]]),
    )
    est = L.weaktype_functional(K.hilbert(), dup, 0.7)
    assert est.method == "interval"
    assert est.value == pytest.approx(2.0 / math.pi, rel=1e-10)

    one = M.PointMassMeasure(n=4, masses=np.array([3.0]), centers=np.zeros((1, 4)))
    est = L.weaktype_functional(K.riesz(4, 1), one, 2.0)
    assert est.method == "single-mass"
    assert est.value == pytest.approx(L.unit_levelset_constant(4), rel=1e-12)

    two = M.PointMassMeasure(
        n=2, masses=np.array([1.0, 1.0]), centers=np.array([[0.0, 0.0], [3.0, 0.0]])
    )
    with pytest.raises(DomainError):
        L.weaktype_functional(K.riesz(2, 1), two, 1.0)  # needs samples and seed
    est = L.weaktype_functional(K.riesz(2, 1), two, 1.0, samples=20000, seed=3)
    assert est.method == "mc"
    assert est.standard_error > 0.0

    # every path returns one Estimate type; the functional keeps the level-set
    # estimate's samples, method and threshold and scales value and SE by
    # lambda / ||nu||
    for nu, lam, kw in (
        (dup, 0.7, {}),
        (one, 2.0, {}),
        (two, 1.5, {"samples": 20000, "seed": 3}),
    ):
        spec = K.hilbert() if nu.n == 1 else K.riesz(nu.n, 1)
        level = L.levelset_measure(spec, nu, lam, **kw)
        est = L.weaktype_functional(spec, nu, lam, **kw)
        assert isinstance(level, rieszlab.Estimate)
        assert isinstance(est, rieszlab.Estimate)
        assert (est.samples, est.method, est.threshold) == (
            level.samples, level.method, lam
        )
        scale = lam / M.total_variation(nu)
        assert est.value == level.value * scale
        assert est.standard_error == level.standard_error * scale


def test_exact_values_translation_and_scale_invariant():
    gen = np.random.default_rng(61)
    nu = line_measure(gen, 3)
    lam = 0.9
    base = L.hilbert_levelset_exact(nu, lam).value
    shifted = M.PointMassMeasure(n=1, masses=nu.masses, centers=nu.centers + 17.0)
    assert L.hilbert_levelset_exact(shifted, lam).value == pytest.approx(
        base, rel=1e-10
    )
    # dilating space by s rescales both the level and the volume
    s = 2.5
    wide = M.PointMassMeasure(n=1, masses=nu.masses, centers=nu.centers * s)
    assert L.hilbert_levelset_exact(wide, lam / s).value == pytest.approx(
        base * s, rel=1e-10
    )
