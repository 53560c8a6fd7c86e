"""Level sets of kernel transforms of point masses.

An exact interval solver for the one dimensional kernel, a closed form for a
single mass in any dimension, and a Monte Carlo estimator for everything
else, drawing from covering balls mixed with the kernel's own stars. All
estimators report the volume of {|T nu| > lambda}. The line solver is plain
numpy, measuring each root from its nearer pole to keep relative accuracy.
"""

import dataclasses
import math

import numpy as np

from . import kernels, measures
from .errors import DomainError, ToleranceError, as_positive
from .rng import (
    LEVELSET,
    LEVELSET_RETRY,
    Estimate,
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
_TILE = 1 << 15  # pole sum entries per tile of roots in _line_lengths
_TOL = 2.0**-26  # a relative Newton step below this leaves an error near _TOL^2
_SIDES = np.array([1, -1])
# share of each chunk that mc_levelset draws from the covering balls when it
# also draws from the stars: the defensive part of the mixture
BALL_SHARE = 0.1


def _line_lengths(a, c, lam):
    """Lengths of the intervals of {T nu > lam}, then of {T nu < -lam}, per
    pole of the sorted centers c: with w = a / (pi lam), the roots past each
    pole of F(x) = sum_k w_k / (x - c_k) = 1, after x -> -x on the minus side.

    Each root is measured from its nearer pole c_p (R.-C. Li, LAPACK Working
    Note 89) with offsets d_k = c_k - c_p from the input, exact for close poles
    (Sterbenz). There G = tau (F - 1) = sum_k w_k r_k - tau, tau = x - c_p,
    r_k = tau / (tau - d_k) in [-1, 1], is concave: Newton's step from past the
    root (a gap's midpoint, or rho = sum w past the last pole) stays past it,
    and multiplies tau by q / (q - G), q = sum_k w_k r_k^2 > 0, so no difference
    of near values enters it. The one scaling kept is a power of two that
    brings rho and the spread below 2^1020, so no sum overflows.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = a / (math.pi * lam)
        rho = float(np.add.reduce(w))
        if not 0.0 < rho < math.inf:
            raise DomainError("interval lengths under- or overflow at this threshold")
        n = len(c)
        top = math.frexp(max(rho, c[-1] / 2 - c[0] / 2))[1]
        scale = math.ldexp(1.0, min(0, 1020 - top))
        w, c, rho = w * scale, c * scale, rho * scale
        # row j opens at c_j on the plus side, row n + j closes there on the
        # minus side; its partner is the next pole outward, itself for the last
        own = np.arange(2 * n) % n
        side = np.repeat(_SIDES, n)[:, None]
        partner = np.minimum(np.maximum(own + side[:, 0], 0), n - 1)
        lengths = np.empty(2 * n)
        step = max(1, _TILE // n)  # rows per tile, so memory stays O(N _TILE)
        for t in range(0, 2 * n, step):
            o, p, s = own[t : t + step], partner[t : t + step], side[t : t + step]
            gap = s * (c[p] - c[o])[:, None]
            tau = np.where(gap > 0.0, 0.5 * gap, rho)
            d = s * (c - c[o][:, None])
            for i in range(64):
                u = tau - d
                r = tau / u
                # w_k r_k as tau (w_k / u_k) keeps its digits where r_k is subnormal
                wr = tau * (w / u)
                wr = np.where(np.isfinite(wr), wr, w * r)
                g = np.add.reduce(wr, 1, keepdims=True) - tau
                q = np.add.reduce(wr * r, 1, keepdims=True)
                if i == 0:
                    # G > 0: root in the partner's half; from there r_k and G negate
                    flip = (g > 0.0) & (gap > 0.0)
                    tau, g = np.where(flip, -tau, tau), np.where(flip, -g, g)
                    d = s * (c - c[np.where(flip[:, 0], p, o)][:, None])
                new = tau * np.fmin(q / (q - g), 1.0)
                # a root below the normal range stops moving, or is 0 (nan: skipped)
                if np.fmin.reduce(new / tau, None) >= 1.0 - _TOL:
                    break
                tau = new
            else:
                raise ToleranceError("secular equation solver did not converge")
            lengths[t : t + step] = (new + np.where(flip, gap, 0.0))[:, 0]
    return lengths / scale


def hilbert_levelset_intervals(nu, lam):
    """(plus, minus, volume): the intervals of {T nu > lam} and {T nu < -lam}
    on the line as (left, right) pairs, and their total length.

    Each positive-side interval opens at a pole; each negative-side interval
    closes at one (the reflection x -> -x swaps the sides). The volume sums
    the lengths that _line_lengths finds to relative accuracy, not right - left
    of the rounded endpoints, so an interval shorter than the spacing of
    doubles near its pole still counts.
    """
    lam = as_positive(lam, "threshold")
    if nu.n != 1:
        raise DomainError("exact interval solver requires dimension 1")
    order = nu.centers[:, 0].argsort(kind="stable")
    c = nu.centers[order, 0]
    if np.logical_or.reduce(c[1:] == c[:-1]):
        raise DomainError("duplicate centers; apply merge_duplicate_centers first")
    lengths = _line_lengths(nu.masses[order], c, lam)
    lp, lm = lengths[: len(c)], lengths[len(c) :]
    plus = list(zip(c.tolist(), (c + lp).tolist()))
    minus = list(zip((c - lm).tolist(), c.tolist()))
    return plus, minus, math.fsum(lengths)


# perfbench/tracer.py wraps this by name: keep it through cleanups
def hilbert_levelset_sides(nu, lam):
    """Intervals of {T nu > lam} and {T nu < -lam} on the line."""
    plus, minus, _ = hilbert_levelset_intervals(nu, lam)
    return plus, minus


def hilbert_levelset_exact(nu, lam):
    """Exact volume of {|T nu| > lam} for the one dimensional kernel."""
    _, _, volume = hilbert_levelset_intervals(nu, lam)
    return Estimate(volume, 0.0, 0, "interval", lam)


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
    return Estimate(value, 0.0, 0, "single-mass", lam)


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
        return Estimate(np.float64(0.0), 3.0 * cap / m, m, "mc", lam)
    return Estimate(mean, se, m, "mc", lam)


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
    return dataclasses.replace(
        est, value=est.value * scale, standard_error=est.standard_error * scale
    )
