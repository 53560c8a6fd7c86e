"""Level sets of kernel transforms of point masses.

An exact interval solver for the one dimensional kernel, a closed form for a
single mass in any dimension, and a covering-ball Monte Carlo estimator for
everything else. All estimators report the volume of {|T nu| > lambda}.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dlasd4

from . import kernels, measures
from .errors import DomainError, ToleranceError, as_positive
from .rng import (
    LEVELSET,
    LEVELSET_RETRY,
    check_samples,
    check_seed,
    combine_mean_se,
    generator,
    run_chunked,
    uniform_ball,
)

_POLE_TRIES = 64


@dataclass(frozen=True)
class LevelSetEstimate:
    """Volume of {|T nu| > threshold}; exact methods report zero error."""

    value: float
    standard_error: float
    samples: int
    method: str
    threshold: float


@dataclass(frozen=True)
class FunctionalEstimate:
    """threshold * volume / total variation, errors propagated linearly."""

    value: float
    standard_error: float
    samples: int
    method: str
    threshold: float


def _sorted_line_measure(nu):
    if nu.n != 1:
        raise DomainError("exact interval solver requires dimension 1")
    c = nu.centers[:, 0]
    order = np.argsort(c, kind="stable")
    c = c[order]
    a = nu.masses[order]
    if np.any(np.diff(c) == 0.0):
        raise DomainError(
            "duplicate centers; apply merge_duplicate_centers first"
        )
    return a, c


def _plus_roots(a, c, lam):
    """Right endpoints of {T nu > lam}, one per pole, for sorted centers c.

    The endpoints solve the secular equation sum_k w_k / (x - c_k) = 1 with
    w = a / (pi lam), one in each gap (c_i, c_{i+1}) and one beyond c_max.
    With d = sqrt(c - c_0), sigma^2 = x - c_0 and rho z^2 = w it is LAPACK's
    singular value secular equation 1 + rho sum z_k^2 / (d_k^2 - sigma^2) = 0,
    which dlasd4 solves stably in O(N) per root (R.-C. Li, LAPACK Working
    Note 89). It returns d_k - sigma and d_k + sigma, whose product gives
    x_i - c_i to relative accuracy; adding c_i rounds it once more.
    """
    w = a / (math.pi * lam)
    if len(c) == 1:
        return c + w
    rho = float(np.sum(w))
    # an exact power-of-two rescaling keeps d^2 and rho below 1 inside LAPACK
    s = math.ldexp(1.0, math.frexp(max(c[-1] - c[0], rho))[1])
    d = np.sqrt((c - c[0]) / s)
    if not np.all(np.diff(d) > 0.0):
        raise ToleranceError("poles merged when shifted; interval endpoints lost")
    z = np.sqrt(w / rho)
    length = np.empty(len(c))
    for i in range(len(c)):
        delta, _, work, info = dlasd4(i, d, z, rho / s)
        length[i] = -delta[i] * work[i] * s
        if info != 0 or not math.isfinite(length[i]):
            raise ToleranceError("secular equation solver did not converge")
    return c + length


def hilbert_levelset_sides(nu, lam):
    """Intervals of {T nu > lam} and {T nu < -lam} on the line.

    Each positive-side interval opens at a pole; each negative-side interval
    closes at one (the reflection x -> -x swaps the sides).
    """
    lam = as_positive(lam, "threshold")
    a, c = _sorted_line_measure(nu)
    rp = _plus_roots(a, c, lam)
    rm = _plus_roots(a[::-1], -c[::-1], lam)
    plus = [(float(c[k]), float(rp[k])) for k in range(len(c))]
    minus = [(-float(rm[k]), float(c[::-1][k])) for k in range(len(c))][::-1]
    return plus, minus


def sides_volume(plus, minus):
    """Total length of the intervals of hilbert_levelset_sides."""
    return math.fsum(r - l for l, r in plus) + math.fsum(r - l for l, r in minus)


def hilbert_levelset_exact(nu, lam):
    """Exact volume of {|T nu| > lam} for the one dimensional kernel."""
    plus, minus = hilbert_levelset_sides(nu, lam)
    return LevelSetEstimate(sides_volume(plus, minus), 0.0, 0, "interval", lam)


@lru_cache(maxsize=None)
def unit_levelset_constant(n):
    """Volume of {|K| > 1} for a unit coordinate-kernel mass in dimension n.

    Equals 2 / (pi n): in polar coordinates the radial integral of r^(n-1)
    up to |Omega(theta)|^(1/n) is |Omega(theta)| / n, so the volume is the
    sphere L^1 norm over n. The closed form is only served once the
    quadrature oracle confirms it for this n.
    """
    quad = kernels.sphere_l1_quadrature(kernels.riesz(n, 1))
    if abs(quad - 2.0 / math.pi) > 1e-8:
        raise ToleranceError(
            "sphere quadrature disagrees with the closed form constant",
            partial=quad / n,
        )
    return 2.0 / (math.pi * n)


def unit_levelset_volume(spec):
    """(volume of {|K| > 1} at unit mass, whether it is a closed form)."""
    if spec.kind == kernels.RIESZ:
        return unit_levelset_constant(spec.n), True
    return kernels.sphere_l1_quadrature(spec) / spec.n, False


def single_mass_levelset_exact(spec, nu, lam):
    """|{|a K(x - c)| > lam}| = (a / lam) |{|K| > 1}| by -n homogeneity."""
    lam = as_positive(lam, "threshold")
    kernels.check_dimension(spec, nu)
    if nu.count != 1:
        raise DomainError("closed form requires a single mass; use mc_levelset")
    vol, _ = unit_levelset_volume(spec)
    value = float(nu.masses[0]) / lam * vol
    return LevelSetEstimate(value, 0.0, 0, "single-mass", lam)


def covering_radii(spec, nu, lam):
    """Ball radii rho_k with rho_k^n = N sup|Omega| a_k / lam.

    Outside the union of B(c_k, rho_k) the triangle inequality gives
    |T nu| <= sum_k a_k sup|Omega| / rho_k^n = lam, so the open level set
    is contained in the union.
    """
    lam = as_positive(lam, "threshold")
    sup = kernels.omega_sup(spec)
    return (nu.count * sup * nu.masses / lam) ** (1.0 / spec.n)


def mc_levelset(spec, nu, lam, samples, seed, threads=1):
    """Monte Carlo volume of {|T nu| > lam}.

    Points are drawn from a union of balls that strictly contains the level
    set, ball k with probability proportional to its volume, and each hit is
    weighted by the union volume over its cover count. For n >= 2 these are
    the covering balls at lam: |Omega| is not constant on the sphere, so
    they are never the level set itself. For n = 1 |Omega| is constant, and
    the covering balls of one mass (or of equal masses at one center) are
    exactly the level set, so every draw would hit with the same weight.
    There the balls are the covering balls at lam / 2, twice the volume,
    which a single mass hits with probability 1/2. The weights therefore
    always have positive variance: the SE is a genuine sampling error, never
    0 by construction. When not one of the m draws hits, the value is 0.0
    and the SE is the rule-of-three bound 3 * (union volume) / m: a hit
    probability above 3/m would have given a hit with probability above
    95%. The value is then a numpy zero, so a relative error se / value is
    inf rather than a ZeroDivisionError. The estimate is unbiased and byte
    identical across thread counts for a fixed seed.

    Each chunk makes one pass over tiles of masses (measures.kernel_tiles):
    r2 is formed once per (sample, mass) pair and gives the pole test, the
    cover count and K, so memory is bounded whatever the number of masses.
    """
    lam = as_positive(lam, "threshold")
    kernels.check_dimension(spec, nu)
    check_samples(samples)
    check_seed(seed)

    n = spec.n
    rho = covering_radii(spec, nu, lam / 2.0 if n == 1 else lam)
    rho2 = rho * rho
    pole2 = measures.POLE_RADIUS**2
    vball = kernels.ball_volume(n)
    vols = vball * rho**n
    vtot = float(np.sum(vols))
    # the weights are vtot / cover, and combine_mean_se squares their sum
    if not math.isfinite((samples * vtot) * (samples * vtot)):
        raise DomainError("threshold too small: the MC sums overflow; scale nu and it up")
    pick = np.cumsum(vols) / vtot
    centers = nu.centers
    masses = nu.masses
    count = nu.count

    def draw(gen, size):
        idx = np.searchsorted(pick, gen.random(size), side="right")
        idx = np.minimum(idx, count - 1)
        return centers[idx] + rho[idx, None] * uniform_ball(gen, size, n)

    def evaluate(pts):
        """(|T nu| > lam, cover count, at a pole) for each row of pts."""
        rows = pts.shape[0]
        total = np.zeros(rows)
        cover = np.zeros(rows, dtype=np.int32)
        pole = np.zeros(rows, dtype=bool)
        # rows at a pole carry inf or nan; they are redrawn by the caller
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for tile, r2, vals in measures.kernel_tiles(spec, nu, pts):
                pole |= np.any(r2 <= pole2, axis=0)
                cover += np.sum(r2 <= rho2[tile, None], axis=0, dtype=np.int32)
                vals *= masses[tile, None]
                total += vals.sum(axis=0)
        return np.abs(total) > lam, np.maximum(cover, 1), pole

    def body(gen, size, chunk_index):
        pts = draw(gen, size)
        hit, cover, pole = evaluate(pts)
        # a draw can land on a pole only with vanishing probability; redraw
        # those rows from the retry stream so the estimate stays unbiased
        for tries in range(_POLE_TRIES):
            rows = np.flatnonzero(pole)
            if rows.size == 0:
                break
            retry = generator(seed, LEVELSET_RETRY, unit=chunk_index, chunk=tries)
            pts[rows] = draw(retry, rows.size)
            hit[rows], cover[rows], pole[rows] = evaluate(pts[rows])
        else:
            raise ToleranceError("could not draw sample points off the poles")
        w = np.where(hit, vtot / cover, 0.0)
        return float(np.sum(w)), float(np.sum(w * w)), size

    partials = run_chunked(samples, body, seed, LEVELSET, threads=threads)
    mean, se, m = combine_mean_se(partials)
    if mean == 0.0:
        return LevelSetEstimate(np.float64(0.0), 3.0 * vtot / m, m, "mc", lam)
    return LevelSetEstimate(mean, se, m, "mc", lam)


def levelset_measure(
    spec, nu, lam, method="auto", samples=None, seed=None, threads=1
):
    """Volume of {|T nu| > lam}, routed to the best available estimator.

    auto prefers the exact interval solver in dimension 1 (method interval,
    also accepted as vieta or bisection), then the single-mass closed form,
    then Monte Carlo. Exact paths merge duplicate centers first; the Monte
    Carlo path takes the measure as given.
    """
    kernels.check_dimension(spec, nu)
    # second-order kernels need n >= 2, so n = 1 is the Hilbert kernel
    if method == "auto":
        if spec.n == 1:
            method = "interval"
        elif measures.merge_duplicate_centers(nu).count == 1:
            method = "single-mass"
        else:
            method = "mc"
    if method in ("interval", "vieta", "bisection"):
        if spec.n != 1:
            raise DomainError("interval solver applies to the n = 1 kernel only")
        return hilbert_levelset_exact(measures.merge_duplicate_centers(nu), lam)
    if method == "single-mass":
        return single_mass_levelset_exact(
            spec, measures.merge_duplicate_centers(nu), lam
        )
    if method == "mc":
        if samples is None or seed is None:
            raise DomainError("mc method requires samples and seed")
        return mc_levelset(spec, nu, lam, samples, seed, threads)
    raise DomainError("unknown method %r" % (method,))


def weaktype_functional(
    spec, nu, lam, method="auto", samples=None, seed=None, threads=1
):
    """threshold * |{|T nu| > threshold}| / ||nu||.

    For the one dimensional kernel this is 2/pi for every positive measure
    and every threshold; in general it is bounded by a constant of order
    1/sqrt(n) times the kernel's sphere norm.
    """
    est = levelset_measure(
        spec, nu, lam, method=method, samples=samples, seed=seed, threads=threads
    )
    scale = est.threshold / measures.total_variation(nu)
    return FunctionalEstimate(
        est.value * scale,
        est.standard_error * scale,
        est.samples,
        est.method,
        est.threshold,
    )
