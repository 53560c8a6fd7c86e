"""Level sets of kernel transforms of point masses.

An exact interval solver for the one dimensional kernel, a closed form for a
single mass in any dimension, and a Monte Carlo estimator for everything
else, drawing from one component per mass: the kernel's own star. All
estimators report the volume of {|T nu| > lambda}. The line solver is plain
numpy, measuring each root from its nearer pole to keep relative accuracy.
"""

import dataclasses
import math

import numpy as np

from . import kernels, measures
from .errors import DomainError, ToleranceError, as_positive
from .rng import (
    CHUNK,
    LEVELSET,
    LEVELSET_RETRY,
    MIN_SAMPLES,
    UNIT_CACHE_BYTES,
    Estimate,
    check_samples,
    check_seed,
    combine_mean_se,
    generator,
    run_chunked,
    scale_star,
    # perfbench/tracer.py wraps this by name: keep it through cleanups
    uniform_ball,
    unit_diagonal_star,
    unit_pair_star,
    unit_star,
)

_POLE_TRIES = 64
_TILE = 1 << 15  # pole sum entries per tile of roots in _line_lengths
_TOL = 2.0**-26  # a relative Newton step below this leaves an error near _TOL^2
_SIDES = np.array([1, -1])
# mc_levelset's components sit at SHRINK times the star thresholds, so they
# strictly contain the level set: one mass drawn MIN_SAMPLES times misses at
# least once except with probability 2^-40
SHRINK = 2.0 ** (-40 / MIN_SAMPLES)


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
    """(plus, minus, lengths): the intervals of {T nu > lam} and
    {T nu < -lam} on the line as (left, right) pairs, and their lengths,
    plus side first.

    Each positive-side interval opens at a pole; each negative-side interval
    closes at one (the reflection x -> -x swaps the sides). The lengths are
    the ones _line_lengths finds to relative accuracy, not right - left of
    the rounded endpoints, so an interval shorter than the spacing of
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
    return plus, minus, lengths.tolist()


# perfbench/tracer.py wraps this by name: keep it through cleanups
def hilbert_levelset_sides(nu, lam):
    """Intervals of {T nu > lam} and {T nu < -lam} on the line."""
    plus, minus, _ = hilbert_levelset_intervals(nu, lam)
    return plus, minus


def hilbert_levelset_exact(nu, lam):
    """Exact volume of {|T nu| > lam} for the one dimensional kernel."""
    _, _, lengths = hilbert_levelset_intervals(nu, lam)
    return Estimate(math.fsum(lengths), 0.0, 0, "interval", lam)


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
    is contained in the union. mc_levelset does not draw from these balls
    (see _Proposal); the benchmark tracer reports their volume.
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


def _unit_interval(gen, m, n):
    """The unit star of the one dimensional kernel, the interval (-1, 1),
    drawn as a unit ball in the shape of rng.unit_star: t = 1 on the one
    star axis and no other coordinates. base and sign are both x, one array:
    copysign puts back the sign that base already carries."""
    x = uniform_ball(gen, m, 1).T
    return np.empty((0, m)), np.zeros(1), np.ones((1, 1)), x[0], x


class _Proposal:
    """Where mc_levelset draws its points, and the density it weights by.

    Mass k has one component, the star {a_k |K(. - c_k)| > t'_k} at the
    threshold t'_k = SHRINK t_k of star_thresholds, of volume
    (a_k / t'_k) |{|K| > 1}| (unit_levelset_volume): c_k plus the unit star
    {r^n < |P(theta)|} of the raw profile P scaled by (a_k c / t'_k)^(1/n),
    c the normalization. For n = 1 it is the interval about c_k of radius
    sup|Omega| a_k / t'_k. Component k is picked with probability
    |component k| / V, so a point held by `count` components has density
    count / V.

    A draw is a unit draw, which depends on no measure (the picking uniforms
    and a unit star per point, drawn by unit_draw: rng.unit_star for Riesz
    kernels, rng.unit_pair_star for x_i x_j / |x|^(n+2),
    rng.unit_diagonal_star for the diagonal kernels, _unit_interval for
    n = 1), followed by this proposal's map, place: pick by searchsorted,
    then rng.scale_star scales the star to the component's size on the
    star axes `axes` and shifts it to the center. draw(gen, size) is the two
    in turn; the pole retries of mc_levelset call it on their own stream.
    """

    def __init__(self, spec, nu, lam):
        n = spec.n
        self.spec, self.nu, self.lam = spec, nu, lam
        self.t = SHRINK * star_thresholds(nu, lam)
        reach = nu.masses / self.t
        if n == 1:
            # 2 sup|Omega|, so that reach times it is 2 (reach sup|Omega|)
            self.unit_draw, unit_volume = _unit_interval, 2.0 * kernels.omega_sup(spec)
        elif spec.kind == kernels.RIESZ:
            # 2 / (pi n) rounds unlike (2 / pi) / n: Riesz volumes keep it
            self.unit_draw, unit_volume = unit_star, unit_levelset_constant(n)
        else:
            self.unit_draw = unit_diagonal_star if spec.diagonal else unit_pair_star
            unit_volume = unit_levelset_volume(spec)
        # the star axes follow the draw: a Riesz kernel reads x_j alone,
        # whatever its i
        pair = self.unit_draw is unit_pair_star
        self.axes = (spec.i - 1, spec.j - 1) if pair else (spec.j - 1,)
        vols = reach * unit_volume
        # star k is c_k plus the unit star scaled by this
        self.scale = (reach * kernels.normalization(spec)) ** (1.0 / n)
        self.vtot = float(np.sum(vols))
        self.pick = np.cumsum(vols) / self.vtot

    def unit(self, gen, size):
        """The draws of `size` points that depend on no measure, as a tuple
        of arrays: the uniforms that pick the components, then the pieces of
        a unit star (unit_draw). A function of the generator's cell, size, n
        and unit_draw.
        """
        return (gen.random(size),) + self.unit_draw(gen, size, self.spec.n)

    def place(self, block):
        """The points of a unit block: each in the component its uniform
        picks, its star scaled to that component's size."""
        idx = np.searchsorted(self.pick, block[0], side="right")
        np.minimum(idx, self.nu.count - 1, out=idx)
        # coordinate rows, the layout measures.kernel_tiles works in
        cols = np.take(self.nu.centers.T, idx, axis=1)
        cols += scale_star(block[1:], self.axes, self.scale[idx])
        return cols.T

    def draw(self, gen, size):
        """`size` points, each uniform in a component picked by volume."""
        return self.place(self.unit(gen, size))

    def evaluate(self, pts):
        """(|T nu| > lam, components that hold the row, at a pole).

        One pass over tiles of masses (measures.kernel_tiles): r2 is formed
        once per (row, mass) pair and gives the pole test and K; a_k K gives
        the star test, the one inside test of every kernel, and T nu.
        """
        rows = pts.shape[0]
        total = np.zeros(rows)
        count = np.zeros(rows, dtype=np.int32)
        pole = np.zeros(rows, dtype=bool)
        pole2 = measures.POLE_RADIUS**2
        masses, t = self.nu.masses, self.t
        # rows at a pole carry inf or nan; they are redrawn by the caller
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for tile, r2, vals in measures.kernel_tiles(self.spec, self.nu, pts):
                pole |= np.any(r2 <= pole2, axis=0)
                vals *= masses[tile, None]
                inside = np.abs(vals) > t[tile, None]
                count += np.sum(inside, axis=0, dtype=np.int32)
                total += vals.sum(axis=0)
        return np.abs(total) > self.lam, count, pole

    def weights(self, hit, count):
        """1 / q = V / count at the hits and 0 elsewhere."""
        return np.divide(self.vtot, count, out=np.zeros(hit.size), where=hit)


def mc_levelset(spec, nu, lam, samples, seed, threads=1, units=None):
    """Monte Carlo volume of {|T nu| > lam}.

    Points come from one iid mixture, _Proposal: one component per mass, the
    kernel's own star at a share SHRINK t_k of lam (on the line an
    interval), picked in proportion to its volume. The shares SHRINK t_k
    sum to less than lam, so where |T nu| > lam some component holds the
    point with room to spare: the mixture strictly contains the level set,
    and each hit x is weighted by 1 / q(x) = V / count(x), V the total
    volume. The weights therefore always have positive
    variance, even where one star is nearly the whole set (one mass): the SE
    is a genuine sampling error, never 0 by construction, and as the rows
    are iid it is the honest one.

    When not one of the m draws hits, the value is 0.0 and the SE is the
    rule-of-three bound 3 V / m: a hit probability above 3/m would have
    given a hit with probability above 95%. The value is then a numpy zero,
    so a relative error se / value is inf rather than a ZeroDivisionError.
    The estimate is unbiased and byte identical across thread counts for a
    fixed seed.

    A search restart evaluates many measures on one seed (common random
    numbers) and passes a dict as units: each chunk's unit draw
    (_Proposal.unit) is kept there under (seed, chunk, size, n, unit_draw),
    read-only, and mapped again by every later call with that dict: the same
    points, bit for bit, with no generator made. The unit draw function
    (rng.unit_star, unit_pair_star, unit_diagonal_star or _unit_interval)
    names the law of the draw, so kernels of one n may share the dict. Only
    the first chunks of a draw are kept, up to UNIT_CACHE_BYTES. Without
    units nothing is kept. Chunks have their own keys, so threads may share
    the dict within a call.
    """
    lam = as_positive(lam, "threshold")
    kernels.check_dimension(spec, nu)
    check_samples(samples)
    seed = check_seed(seed)

    prop = _Proposal(spec, nu, lam)
    # combine_mean_se squares the sum of the weights, each at most V
    if not math.isfinite((samples * prop.vtot) * (samples * prop.vtot)):
        raise DomainError("threshold too small: the MC sums overflow; scale nu and it up")

    def unit(gen, size, chunk_index):
        if units is None:
            return prop.unit(gen, size)
        key = (seed, chunk_index, size, spec.n, prop.unit_draw)
        block = units.get(key)
        if block is None:
            block = prop.unit(gen, size)
            # the chunks before this one are full: keep it if all fit
            per_point = sum(a.nbytes for a in block) // size
            if (chunk_index * CHUNK + size) * per_point <= UNIT_CACHE_BYTES:
                for a in block:
                    a.flags.writeable = False
                units[key] = block
        return block

    def body(gen, size, chunk_index):
        # no name holds the unit draw, so a draw nothing keeps is freed
        # before the kernel sums
        pts = prop.place(unit(gen, size, chunk_index))
        hit, count, pole = prop.evaluate(pts)
        # a draw can land on a pole only with vanishing probability; redraw
        # those rows from the retry stream, so the estimate stays unbiased
        for tries in range(_POLE_TRIES):
            rows = np.flatnonzero(pole)
            if rows.size == 0:
                break
            retry = generator(seed, LEVELSET_RETRY, unit=chunk_index, chunk=tries)
            pts[rows] = prop.draw(retry, rows.size)
            hit[rows], count[rows], pole[rows] = prop.evaluate(pts[rows])
        else:
            raise ToleranceError("could not draw sample points off the poles")
        w = prop.weights(hit, count)
        return float(np.sum(w)), float(np.sum(w * w)), size

    partials = run_chunked(samples, body, seed, LEVELSET, threads=threads)
    mean, se, m = combine_mean_se(partials)
    if mean == 0.0:
        return Estimate(np.float64(0.0), 3.0 * prop.vtot / m, m, "mc", lam)
    return Estimate(mean, se, m, "mc", lam)


def levelset_measure(
    spec, nu, lam, method="auto", samples=None, seed=None, threads=1, units=None
):
    """Volume of {|T nu| > lam}, routed to the best available estimator.

    auto prefers the exact interval solver in dimension 1 (method interval,
    also accepted as vieta or bisection), then the single-mass closed form,
    then Monte Carlo. Exact paths merge duplicate centers first; the Monte
    Carlo path takes the measure as given, and units as mc_levelset does.
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
        return mc_levelset(spec, nu, lam, samples, seed, threads, units)
    raise DomainError("unknown method %r" % (method,))


def weaktype_functional(
    spec, nu, lam, method="auto", samples=None, seed=None, threads=1, units=None
):
    """threshold * |{|T nu| > threshold}| / ||nu||.

    For the one dimensional kernel this is 2/pi for every positive measure
    and every threshold; in general it is bounded by a constant of order
    1/sqrt(n) times the kernel's sphere norm.
    """
    est = levelset_measure(
        spec, nu, lam, method=method, samples=samples, seed=seed, threads=threads,
        units=units,
    )
    scale = est.threshold / measures.total_variation(nu)
    return dataclasses.replace(
        est, value=est.value * scale, standard_error=est.standard_error * scale
    )
