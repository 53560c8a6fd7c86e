"""Level sets of kernel transforms of point masses.

An exact interval solver for the one dimensional kernel, a closed form for a
single mass in any dimension, and a Monte Carlo estimator for everything
else, drawing from covering balls mixed with the kernel's own stars. All
estimators report the volume of {|T nu| > lambda}. Only the line solver
needs scipy (LAPACK's dlasd4); it imports it on first use.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, measures
from .errors import DomainError, ToleranceError, as_positive
from .rng import (
    LEVELSET,
    LEVELSET_RETRY,
    check_samples,
    check_seed,
    chunk_sizes,
    combine_mean_se,
    generator,
    run_chunked,
    uniform_ball,
    uniform_star,
)

_POLE_TRIES = 64
_RHO_RANGE = 500  # log2 of the rho to pole gap ratio where _plus_roots takes limits
# share of each chunk that mc_levelset draws from the covering balls when it
# also draws from the stars: the defensive part of the mixture
BALL_SHARE = 0.1


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
    """Lengths x_i - c_i of the intervals of {T nu > lam}, one per pole, for
    sorted centers c; each interval opens at its pole c_i.

    The right endpoints solve the secular equation sum_k w_k / (x - c_k) = 1
    with w = a / (pi lam), one in each gap (c_i, c_{i+1}) and one beyond
    c_max. With d = sqrt(c - c_0), sigma^2 = x - c_0 and rho z^2 = w it is
    LAPACK's singular value secular equation
    1 + rho sum z_k^2 / (d_k^2 - sigma^2) = 0, which dlasd4 solves stably in
    O(N) per root (R.-C. Li, LAPACK Working Note 89). It returns d_k - sigma
    and d_k + sigma, whose product gives x_i - c_i to relative accuracy.

    dlasd4 fails once rho = sum w and the pole gaps are about 2^508 apart.
    Below 2^-_RHO_RANGE times the smallest gap each length is w_i to an ulp.
    Above cap = 2^_RHO_RANGE times the spread, the gap roots are solved at
    rho = cap with d scaled by the spread: sum z^2 / (x - c)^2 is at least
    z_i^2 / (x - c_i)^2 and 1 / spread^2, so that moves x_i - c_i by a factor
    below 1 + 2^-_RHO_RANGE / z_i; it is done only where z_i > 2^(60 - _RHO_RANGE).
    """
    w = a / (math.pi * lam)
    if len(c) == 1:
        return w
    rho = float(np.sum(w))
    if rho < float(np.min(np.diff(c))) * 2.0**-_RHO_RANGE:
        return w
    z = np.sqrt(w / rho)
    spread = c[-1] - c[0]
    cap = spread * 2.0**_RHO_RANGE
    last = _secular_scale(c, rho, max(spread, rho))
    clamp = rho > cap and np.min(z[:-1]) > 2.0 ** (60 - _RHO_RANGE)
    inner = _secular_scale(c, cap, spread) if clamp else last
    from scipy.linalg.lapack import dlasd4
    length = np.empty(len(c))
    for i in range(len(c)):
        r, s, d = last if i == len(c) - 1 else inner
        delta, _, work, info = dlasd4(i, d, z, r / s)
        length[i] = -delta[i] * work[i] * s
        if info != 0 or not math.isfinite(length[i]):
            raise ToleranceError("secular equation solver did not converge")
    return length


def _secular_scale(c, rho, size):
    """(rho, s, d) for dlasd4, d^2 = (c - c_0) / s below 1 for s > size."""
    s = math.ldexp(1.0, math.frexp(size)[1])
    d = np.sqrt((c - c[0]) / s)
    if not np.all(np.diff(d) > 0.0):
        raise ToleranceError("poles merged when shifted; interval endpoints lost")
    return rho, s, d


def hilbert_levelset_intervals(nu, lam):
    """(plus, minus, volume): the intervals of {T nu > lam} and {T nu < -lam}
    on the line as (left, right) pairs, and their total length.

    Each positive-side interval opens at a pole; each negative-side interval
    closes at one (the reflection x -> -x swaps the sides). The volume sums
    the lengths that _plus_roots finds to relative accuracy, not right - left
    of the rounded endpoints, so an interval shorter than the spacing of
    doubles near its pole still counts.
    """
    lam = as_positive(lam, "threshold")
    a, c = _sorted_line_measure(nu)
    lp = _plus_roots(a, c, lam)
    lm = _plus_roots(a[::-1], -c[::-1], lam)
    rp = c + lp
    rm = -c[::-1] + lm
    plus = [(float(c[k]), float(rp[k])) for k in range(len(c))]
    minus = [(-float(rm[k]), float(c[::-1][k])) for k in range(len(c))][::-1]
    return plus, minus, math.fsum(lp) + math.fsum(lm)


def hilbert_levelset_sides(nu, lam):
    """Intervals of {T nu > lam} and {T nu < -lam} on the line."""
    plus, minus, _ = hilbert_levelset_intervals(nu, lam)
    return plus, minus


def hilbert_levelset_exact(nu, lam):
    """Exact volume of {|T nu| > lam} for the one dimensional kernel."""
    _, _, volume = hilbert_levelset_intervals(nu, lam)
    return LevelSetEstimate(volume, 0.0, 0, "interval", lam)


def unit_levelset_constant(n):
    """Volume of {|K| > 1} for a unit Riesz mass in dimension n: 2 / (pi n).

    In polar coordinates the radial integral of r^(n-1) up to
    |Omega(theta)|^(1/n) is |Omega(theta)| / n, so the volume is the sphere
    L^1 norm, 2 / pi, over n.
    """
    return 2.0 / (math.pi * n)


def unit_levelset_volume(spec):
    """Volume of {|K| > 1} at unit mass: the sphere L^1 norm over n."""
    return kernels.sphere_l1_norm(spec) / spec.n


def single_mass_levelset_exact(spec, nu, lam):
    """|{|a K(x - c)| > lam}| = (a / lam) |{|K| > 1}| by -n homogeneity."""
    lam = as_positive(lam, "threshold")
    kernels.check_dimension(spec, nu)
    if nu.count != 1:
        raise DomainError("closed form requires a single mass; use mc_levelset")
    value = float(nu.masses[0]) / lam * unit_levelset_volume(spec)
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


def star_thresholds(nu, lam):
    """Shares t_k = lam s_k / sum(s) of lam, with s_k = sqrt(a_k / max a).

    They sum to lam, so where |T nu| > lam some a_k |K(x - c_k)| exceeds
    t_k: the stars S_k = {a_k |K(. - c_k)| > t_k} cover the level set. Their
    total volume (sum_k a_k / t_k) |{|K| > 1}| is least for t proportional
    to sqrt(a). Dividing by max a before the square root keeps the shares
    exact when the masses and lam are scaled by a power of two.
    """
    s = np.sqrt(nu.masses / nu.masses.max())
    return lam * s / s.sum()


class _Proposal:
    """Where mc_levelset draws its points, and the density it weights by.

    Ball rows come from the covering balls, ball k with probability
    proportional to its volume. For Riesz kernels with n >= 2 a chunk's
    first round(BALL_SHARE * size) rows are ball rows and the rest come from
    the stars of star_thresholds, star k with probability proportional to
    |S_k| = (a_k / t_k) 2 / (pi n). Elsewhere every row is a ball row.
    """

    def __init__(self, spec, nu, lam):
        n = spec.n
        self.spec, self.nu, self.lam = spec, nu, lam
        self.rho = covering_radii(spec, nu, lam / 2.0 if n == 1 else lam)
        self.rho2 = self.rho * self.rho
        vols = kernels.ball_volume(n) * self.rho**n
        self.vtot = float(np.sum(vols))
        self.ball_pick = np.cumsum(vols) / self.vtot
        self.t = None
        if spec.kind == kernels.RIESZ and n >= 2:
            self.t = star_thresholds(nu, lam)
            reach = nu.masses / self.t
            vols = reach * unit_levelset_constant(n)
            self.vstar = float(np.sum(vols))
            self.star_pick = np.cumsum(vols) / self.vstar
            # S_k is c_k plus the unit star of uniform_star scaled by this
            self.scale = (reach * kernels.normalization(spec)) ** (1.0 / n)

    def ball_rows(self, size):
        return size if self.t is None else round(BALL_SHARE * size)

    def max_weight(self, samples):
        """min(V_ball / alpha, V_star / (1 - alpha)), alpha the share of ball
        rows over the chunks of `samples` (V_ball with the balls alone).

        Wherever the level set is, q >= alpha / V_ball and
        q >= (1 - alpha) / V_star, so this bounds the weight of a hit (up to
        the rounding of each chunk's share), and a draw hits with
        probability at least |set| / bound.
        """
        if self.t is None:
            return self.vtot
        share = sum(map(self.ball_rows, chunk_sizes(samples))) / samples
        return min(self.vtot / share, self.vstar / (1.0 - share))

    def draw(self, gen, size, balls):
        """(mass index, point) per row; the first `balls` rows from the balls."""
        nu, n = self.nu, self.spec.n
        u = gen.random(size)
        idx = np.empty(size, dtype=np.intp)
        idx[:balls] = np.searchsorted(self.ball_pick, u[:balls], side="right")
        if balls < size:
            idx[balls:] = np.searchsorted(self.star_pick, u[balls:], side="right")
        np.minimum(idx, nu.count - 1, out=idx)
        pts = np.take(nu.centers, idx, axis=0)
        pts[:balls] += self.rho[idx[:balls], None] * uniform_ball(gen, balls, n)
        if balls < size:
            scale = self.scale[idx[balls:]]
            pts[balls:] += uniform_star(gen, size - balls, n, self.spec.j - 1, scale)
        return idx, pts

    def evaluate(self, pts):
        """(|T nu| > lam, balls and stars that hold the row, at a pole).

        One pass over tiles of masses (measures.kernel_tiles): r2 is formed
        once per (row, mass) pair and gives the pole test, the ball count
        and K; a_k K gives the star count and T nu.
        """
        rows = pts.shape[0]
        total = np.zeros(rows)
        cover = np.zeros(rows, dtype=np.int32)
        star = np.zeros(rows, dtype=np.int32)
        pole = np.zeros(rows, dtype=bool)
        pole2 = measures.POLE_RADIUS**2
        masses, t = self.nu.masses, self.t
        # rows at a pole carry inf or nan; they are redrawn by the caller
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for tile, r2, vals in measures.kernel_tiles(self.spec, self.nu, pts):
                pole |= np.any(r2 <= pole2, axis=0)
                cover += np.sum(r2 <= self.rho2[tile, None], axis=0, dtype=np.int32)
                vals *= masses[tile, None]
                if t is not None:
                    star += np.sum(
                        np.abs(vals) > t[tile, None], axis=0, dtype=np.int32
                    )
                total += vals.sum(axis=0)
        return np.abs(total) > self.lam, cover, star, pole

    def weights(self, hit, cover, star, balls):
        """1 / q at the hits and 0 elsewhere, for a chunk with `balls` ball rows.

        q mixes the ball and star densities cover / V_ball and star / V_star
        in the chunk's own shares (a deterministic mixture allocation, Owen &
        Zhou, JASA 2000), so the estimate stays unbiased.
        """
        if self.t is None:
            return np.where(hit, self.vtot / np.maximum(cover, 1), 0.0)
        size = hit.size
        q = (balls / self.vtot) * cover + ((size - balls) / self.vstar) * star
        return np.divide(size, q, out=np.zeros(size), where=hit)


def mc_levelset(spec, nu, lam, samples, seed, threads=1):
    """Monte Carlo volume of {|T nu| > lam}.

    Points come from a defensive mixture (Hesterberg, Technometrics 1995)
    that strictly contains the level set, and each hit x is weighted by
    1 / q(x), q the mixture density. Its parts:

    - the covering balls at lam (covering_radii): |Omega| is not constant
      on the sphere for n >= 2, so they are never the level set itself;
    - for Riesz kernels with n >= 2, the stars S_k = {a_k |K(. - c_k)| > t_k}
      of star_thresholds, t_k proportional to sqrt(a_k) and summing to lam.
      They cover the level set with the least total volume. A share
      BALL_SHARE of each chunk's rows still comes from the balls, so the
      proposal is strictly wider than the set even where one star is the
      whole set (one mass). Second-order kernels draw from the balls alone.

    For n = 1 |Omega| is constant, and the covering balls of one mass (or of
    equal masses at one center) are exactly the level set, so every draw
    would hit with the same weight. There the balls are the covering balls
    at lam / 2, twice the volume, which a single mass hits with probability
    1/2. The weights therefore always have positive variance: the SE is a
    genuine sampling error, never 0 by construction. When not one of the m
    draws hits, the value is 0.0 and the SE is the rule-of-three bound
    3 min(V_ball / alpha, V_star / (1 - alpha)) / m, alpha the share of ball
    rows (3 V_ball / m with the balls alone): a hit probability above 3/m
    would have given a hit with probability above 95%. The value is then a
    numpy zero, so a relative error se / value is inf rather than a
    ZeroDivisionError. The estimate is unbiased and byte identical across
    thread counts for a fixed seed.
    """
    lam = as_positive(lam, "threshold")
    kernels.check_dimension(spec, nu)
    check_samples(samples)
    check_seed(seed)

    prop = _Proposal(spec, nu, lam)
    cap = prop.max_weight(samples)
    # combine_mean_se squares the sum of the weights
    if not math.isfinite((samples * cap) * (samples * cap)):
        raise DomainError("threshold too small: the MC sums overflow; scale nu and it up")

    def body(gen, size, chunk_index):
        balls = prop.ball_rows(size)
        _, pts = prop.draw(gen, size, balls)
        hit, cover, star, pole = prop.evaluate(pts)
        # a draw can land on a pole only with vanishing probability; redraw
        # those rows from the retry stream, each from its own component, so
        # the estimate stays unbiased
        for tries in range(_POLE_TRIES):
            rows = np.flatnonzero(pole)
            if rows.size == 0:
                break
            retry = generator(seed, LEVELSET_RETRY, unit=chunk_index, chunk=tries)
            _, pts[rows] = prop.draw(retry, rows.size, np.count_nonzero(rows < balls))
            hit[rows], cover[rows], star[rows], pole[rows] = prop.evaluate(pts[rows])
        else:
            raise ToleranceError("could not draw sample points off the poles")
        w = prop.weights(hit, cover, star, balls)
        return float(np.sum(w)), float(np.sum(w * w)), size

    partials = run_chunked(samples, body, seed, LEVELSET, threads=threads)
    mean, se, m = combine_mean_se(partials)
    if mean == 0.0:
        return LevelSetEstimate(np.float64(0.0), 3.0 * cap / m, m, "mc", lam)
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
        elif np.all(nu.centers == nu.centers[0]):
            # every center equals the first (so -0.0 == 0.0): one mass
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
