"""Level sets of kernel transforms of point masses.

Exact interval solvers for the one dimensional kernel, a closed form for a
single mass in any dimension, and a covering-ball Monte Carlo estimator for
everything else. All estimators report the volume of {|T nu| > lambda}.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

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
_BRACKET_TRIES = 200


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


def _line_transform(a, c, x):
    return float(np.sum(a / (x - c)) / math.pi)


def _plus_roots_vieta(a, c, lam):
    """Right endpoints of {T nu > lam}, one per pole, via the companion matrix.

    The endpoints are the roots of pi lam prod(x - c_k) = sum_k a_k
    prod_{j != k}(x - c_j); centering and scaling the poles first keeps the
    polynomial well conditioned.
    """
    mu = float(np.mean(c))
    s = float(np.max(np.abs(c - mu)))
    if s == 0.0:
        s = 1.0
    cs = (c - mu) / s
    coeffs = math.pi * lam * s * np.poly(cs)
    for k in range(len(cs)):
        coeffs[1:] -= a[k] * np.poly(np.delete(cs, k))
    roots = np.roots(coeffs)
    spread = max(1.0, float(np.max(np.abs(roots.real))))
    if roots.size and float(np.max(np.abs(roots.imag))) > 1e-7 * spread:
        raise ToleranceError("interval endpoints lost accuracy to rounding")
    return np.sort(roots.real) * s + mu


def _plus_roots_bisection(a, c, lam):
    """Same endpoints, one bracketed root per gap between consecutive poles."""

    def f(x):
        return _line_transform(a, c, x) - lam

    tv = float(np.sum(a))
    roots = []
    for k in range(len(c)):
        left = c[k]
        if k + 1 < len(c):
            # the transform falls to -inf at the next pole
            off = (c[k + 1] - left) / 4.0
            hi = c[k + 1] - off
            for _ in range(_BRACKET_TRIES):
                if f(hi) < 0.0:
                    break
                off /= 2.0
                hi = c[k + 1] - off
            else:
                raise ToleranceError("could not bracket an interval endpoint")
        else:
            # beyond the last pole T nu <= tv / (pi (x - c_max))
            hi = left + tv / (math.pi * lam)
            for _ in range(_BRACKET_TRIES):
                if f(hi) < 0.0:
                    break
                hi = left + 2.0 * (hi - left)
            else:
                raise ToleranceError("could not bracket an interval endpoint")
        off = (hi - left) / 2.0
        lo = left + off
        for _ in range(_BRACKET_TRIES):
            if f(lo) > 0.0:
                break
            off /= 2.0
            lo = left + off
        else:
            raise ToleranceError("could not bracket an interval endpoint")
        roots.append(brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16))
    return np.asarray(roots)


_PLUS_SOLVERS = {"vieta": _plus_roots_vieta, "bisection": _plus_roots_bisection}


def hilbert_levelset_sides(nu, lam, method="vieta"):
    """Intervals of {T nu > lam} and {T nu < -lam} on the line.

    Each positive-side interval opens at a pole; each negative-side interval
    closes at one (the reflection x -> -x swaps the sides).
    """
    lam = as_positive(lam, "threshold")
    if method not in _PLUS_SOLVERS:
        raise DomainError("method must be 'vieta' or 'bisection'")
    solve = _PLUS_SOLVERS[method]
    a, c = _sorted_line_measure(nu)
    rp = solve(a, c, lam)
    rm = solve(a[::-1], -c[::-1], lam)
    plus = [(float(c[k]), float(rp[k])) for k in range(len(c))]
    minus = [(-float(rm[k]), float(c[::-1][k])) for k in range(len(c))][::-1]
    return plus, minus


def sides_volume(plus, minus):
    """Total length of the intervals of hilbert_levelset_sides."""
    return math.fsum(r - l for l, r in plus) + math.fsum(r - l for l, r in minus)


def hilbert_levelset_exact(nu, lam, method="vieta"):
    """Exact volume of {|T nu| > lam} for the one dimensional kernel."""
    plus, minus = hilbert_levelset_sides(nu, lam, method)
    return LevelSetEstimate(sides_volume(plus, minus), 0.0, 0, method, lam)


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

    auto prefers the exact interval solver in dimension 1, then the
    single-mass closed form, then Monte Carlo. Exact paths merge duplicate
    centers first; the Monte Carlo path takes the measure as given.
    """
    kernels.check_dimension(spec, nu)
    # second-order kernels need n >= 2, so n = 1 is the Hilbert kernel
    if method == "auto":
        if spec.n == 1:
            method = "vieta"
        elif measures.merge_duplicate_centers(nu).count == 1:
            method = "single-mass"
        else:
            method = "mc"
    if method in ("vieta", "bisection"):
        if spec.n != 1:
            raise DomainError("interval solver applies to the n = 1 kernel only")
        return hilbert_levelset_exact(
            measures.merge_duplicate_centers(nu), lam, method
        )
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
