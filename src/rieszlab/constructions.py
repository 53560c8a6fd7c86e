"""Mean-zero cancellation integrals and measure-matched exhaustion sets.

The cancellation integral pits a compactly supported density against the
point mass holding its total weight and integrates the transform of the
difference outside a dimension-scaled ball, with the tail controlled by the
gradient decay of the kernel. Exhaustion sets realize prescribed volumes as
ball-minus-prior-balls regions with Monte Carlo calibrated radii.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import kernels, measures
from .errors import DomainError, ToleranceError, as_int, as_point, as_positive
from .rng import (
    EXHAUSTION,
    check_samples,
    check_seed,
    generator,
    uniform_ball,
)

TAIL_RELATIVE = 1e-6
_MAX_PANELS = 80
_MAX_GROW = 12
_MAX_BISECT = 200
_RADIAL_ORDER = 16
_EDGE_GRADE = 45


def annulus_kernel_l1(spec, radius=1.0):
    """Integral of |K| over the annulus radius < |y| < n * radius.

    Radially the kernel trades its -n homogeneity against the volume
    element, leaving the sphere norm times int_radius^{n radius} dt / t,
    which is log n.
    """
    radius = as_positive(radius, "radius")
    n = spec.n
    if n < 2:
        raise DomainError("the annulus between r and n r is empty for n = 1")
    return kernels.sphere_l1_norm(spec) * math.log(n)


def _direction_rule(n, quad_depth):
    """Direction nodes and weights integrating over the unit sphere."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        count = 16 << quad_depth
        angles = (np.arange(count) + 0.5) * (2.0 * math.pi / count)
        nodes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return nodes, np.full(count, 2.0 * math.pi / count)
    if n == 3:
        polar = 4 << quad_depth
        azi = 8 << quad_depth
        t, wt = leggauss(polar)
        phi = (np.arange(azi) + 0.5) * (2.0 * math.pi / azi)
        s = np.sqrt(1.0 - t**2)
        nodes = np.stack(
            [
                np.repeat(s, azi) * np.cos(np.tile(phi, polar)),
                np.repeat(s, azi) * np.sin(np.tile(phi, polar)),
                np.repeat(t, azi),
            ],
            axis=1,
        )
        weights = np.repeat(wt, azi) * (2.0 * math.pi / azi)
        return nodes, weights
    raise DomainError("outer quadrature is implemented for n <= 3")


def _density_nodes(b, quad_depth):
    """Midpoints and weights of the grid cells refined by quad_depth levels."""
    level = b.level + quad_depth
    values = b.refined_values(level).ravel()
    side = 1 << (level - b.box.level)
    axes = [np.arange(side, dtype=float)] * b.n
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, b.n)
    cell = 2.0**-level
    origin = np.asarray(b.box.coords, dtype=float) * b.box.side
    pts = origin + (mesh + 0.5) * cell
    keep = values > 0.0
    return pts[keep], values[keep] * cell**b.n


def _transform_closure(spec, b, quad_depth):
    """Evaluator for T(b dm) on a batch of outside points.

    In one dimension the transform of a cell indicator is a log difference,
    so the piecewise-constant density transforms in closed form. Higher
    dimensions use the midpoint rule on the refined cells, summed as the
    transform of point masses at the midpoints; there the evaluation points
    keep a distance of order r from the support.
    """
    n = b.n
    if n == 1:
        idx = np.nonzero(b.values.ravel() > 0.0)[0]
        cell = 2.0**-b.level
        lo = (b.origin[0] + idx) * cell
        vals = b.values.ravel()[idx]
        scale = kernels.normalization(spec)

        def transform(y):
            u = y[:, 0:1]
            per = np.log(np.abs(u - lo)) - np.log(np.abs(u - lo - cell))
            return scale * (per @ vals)

        return transform

    pts, wts = _density_nodes(b, quad_depth)
    nodes = measures.PointMassMeasure(n, wts, pts)
    return lambda y: measures.transform_many(spec, nodes, y)


def _radial_breaks(edge, n):
    """Panel endpoints for the first octave [edge, 2 edge].

    For n = 1 the integrand has a log singularity at the support edge, so
    the octave is graded geometrically toward it; the skipped sliver of
    width edge * 2^-45 contributes below every stated tolerance.
    """
    if n > 1:
        return edge, [2.0 * edge]
    start = edge * (1.0 + 2.0**-_EDGE_GRADE)
    breaks = [edge * (1.0 + 2.0**-j) for j in range(_EDGE_GRADE - 1, -1, -1)]
    return start, breaks


def gradient_decay_constant(spec):
    """G with |grad K(x)| <= G / |x|^(n+1), from the profile's closed forms."""
    return kernels.normalization(spec) * kernels.profile_gradient_sup(
        spec
    ) + spec.n * kernels.omega_sup(spec)


@dataclass(frozen=True)
class CancellationResult:
    """Integral of |T(b dm) - a K(. - c)| outside the n r ball, with the
    value normalized by the sphere norm times the total variation."""

    value: float
    ratio: float
    cutoff_radius: float


def cancellation_integral(spec, b, a, c, r, quad_depth=2):
    """Integrate |T(b dm) - a K(. - c)| over {|y - c| > n r}.

    The difference has zero total mass, so the integrand decays one power
    faster than the kernel; panels double outward until the gradient-decay
    tail bound drops below 1e-6 of the accumulated value.
    """
    n = spec.n
    kernels.check_dimension(spec, b)
    c = as_point(c, n, "center")
    r = as_positive(r, "support radius")
    if not 0 <= as_int(quad_depth, "quad_depth") <= 6:
        raise DomainError("quad_depth must be an integer in [0, 6]")
    a = float(a)
    # written so that a nan or infinite mass fails too
    if not abs(a - b.l1_norm) <= 1e-10 * max(1.0, b.l1_norm):
        raise DomainError("point mass must equal the density's integral")

    # farthest vertex of every positive cell must stay inside B(c, r); in
    # units of r, so that the squares neither overflow nor underflow, and a
    # coordinate past r escapes before any square is taken
    idx = np.argwhere(b.values > 0.0)
    if idx.size:
        cell = 2.0**-b.level
        origin = np.asarray(b.origin, dtype=np.int64)
        lo = (origin + idx) * cell
        far = np.maximum(np.abs(lo - c), np.abs(lo + cell - c)) / r
        if np.max(far) > 1.0 + 1e-12 or np.max(
            np.sqrt(np.sum(far**2, axis=1))
        ) > 1.0 + 1e-12:
            raise DomainError("density support escapes the stated ball")
    else:
        return CancellationResult(0.0, 0.0, n * r)

    transform = _transform_closure(spec, b, quad_depth)
    dirs, dweights = _direction_rule(n, quad_depth)
    radial_t, radial_w = leggauss(_RADIAL_ORDER)
    tail_scale = (
        b.l1_norm
        * r
        * gradient_decay_constant(spec)
        * kernels.sphere_surface_area(n)
        * 2.0 ** (n - 1)
    )
    norm_scale = kernels.sphere_l1_norm(spec) * (b.l1_norm + abs(a))

    def integrand(y):
        return np.abs(transform(y) - a * kernels.kernel_values(spec, y - c))

    value = 0.0
    lo, pending = _radial_breaks(n * r, n)
    for _ in range(_MAX_PANELS + len(pending)):
        hi = pending.pop(0) if pending else 2.0 * lo
        # near either end of the double range a panel's radii or kernel
        # values stop being finite: refused below, so no warning either
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rho = 0.5 * (hi - lo) * radial_t + 0.5 * (hi + lo)
            rw = 0.5 * (hi - lo) * radial_w
            y = c + (rho[:, None, None] * dirs[None, :, :]).reshape(-1, n)
            f = integrand(y).reshape(_RADIAL_ORDER, len(dirs))
            value += float(rw @ (f @ dweights * rho ** (n - 1)))
        if not (math.isfinite(hi) and math.isfinite(value)):
            raise DomainError(
                "support radius %r leaves the double range: the cancellation "
                "panel out to radius %r is not finite" % (r, hi)
            )
        lo = hi
        if pending:
            continue
        # the bound needs lo >= 2 r, true once the first octave is done
        tail = tail_scale / (lo - r)
        if tail <= TAIL_RELATIVE * value or tail <= 1e-12 * norm_scale:
            return CancellationResult(value, value / norm_scale, lo)
    raise ToleranceError("cancellation tail failed to converge", value)


@dataclass(frozen=True)
class ExhaustionSet:
    """B(center, radius) minus all earlier balls, with its measured volume.

    Membership (and thus disjointness from every earlier set) is structural:
    a point belongs here only if every earlier ball rejects it.
    """

    index: int
    center: np.ndarray
    radius: float
    volume: float
    volume_se: float
    prior_centers: np.ndarray
    prior_radii: np.ndarray

    @property
    def n(self):
        return self.center.shape[0]

    def sample_ball(self, gen, count):
        """Uniform draws from the carrying ball; filter with contains."""
        return self.center + self.radius * uniform_ball(gen, count, self.n)

    def contains(self, points):
        points = np.asarray(points, dtype=float)
        own = np.linalg.norm(points - self.center, axis=-1) < self.radius
        return own & _outside_balls(points, self.prior_centers, self.prior_radii)


def _outside_balls(points, centers, radii):
    """Whether each point lies outside every ball B(centers[k], radii[k]),
    folded one ball at a time so no (points, balls, n) array is built."""
    out = np.ones(points.shape[:-1], dtype=bool)
    for c, r in zip(centers, radii):
        out &= np.linalg.norm(points - c, axis=-1) >= r
    return out


def _freeze(arr):
    arr = np.asarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def build_exhaustion(nu, lam, mc_samples, seed):
    """Regions E_k = B(c_k, r_k) minus earlier balls with |E_k| = a_k / lam.

    The first radius is closed form. Later radii are found by bisection on
    the Monte Carlo volume over one common point pool per set (the estimate
    is then a nondecreasing step function of the radius), stopping when the
    estimate is within three standard errors of the target volume.
    """
    lam = as_positive(lam, "threshold")
    check_samples(mc_samples)
    check_seed(seed)
    n = nu.n
    vball = kernels.ball_volume(n)
    targets = nu.masses / lam

    sets = [
        ExhaustionSet(
            1,
            _freeze(nu.centers[0]),
            (float(targets[0]) / vball) ** (1.0 / n),
            float(targets[0]),
            0.0,
            _freeze(np.empty((0, n))),
            _freeze(np.empty(0)),
        )
    ]
    for k in range(1, nu.count):
        center = nu.centers[k]
        target = float(targets[k])
        prior_centers = np.array([s.center for s in sets])
        prior_radii = np.array([s.radius for s in sets])
        # a ball holding the combined volume of everything so far cannot be
        # eaten entirely by the earlier balls, so it brackets the target
        r_hi = (float(np.sum(targets[: k + 1])) / vball) ** (1.0 / n)

        solved = None
        for grow in range(_MAX_GROW):
            gen = generator(seed, EXHAUSTION, unit=k, chunk=grow)
            pool = center + r_hi * uniform_ball(gen, mc_samples, n)
            own = np.linalg.norm(pool - center, axis=1)
            fresh = _outside_balls(pool, prior_centers, prior_radii)
            vol_hi = vball * r_hi**n

            def estimate(radius):
                p = float(np.mean(fresh & (own < radius)))
                se = vol_hi * math.sqrt(p * (1.0 - p) / mc_samples)
                return vol_hi * p, se

            est, se = estimate(r_hi)
            best = (abs(est - target), r_hi, est, se)
            if est < target - 3.0 * se:
                r_hi *= 1.5
                continue
            lo_r, hi_r = 0.0, r_hi
            # aim for 1 SE: per-set landings must stay well inside the
            # 3 SE contract or sums over sets drift past their pooled SE
            for _ in range(_MAX_BISECT):
                mid = 0.5 * (lo_r + hi_r)
                est, se = estimate(mid)
                gap = abs(est - target)
                if gap < best[0]:
                    best = (gap, mid, est, se)
                if se > 0.0 and gap <= se:
                    solved = (mid, est, se)
                    break
                if est < target:
                    lo_r = mid
                else:
                    hi_r = mid
            if solved is None and best[0] <= 3.0 * best[3]:
                solved = (best[1], best[2], best[3])
            break
        if solved is None:
            raise ToleranceError(
                "could not match the target volume for set %d" % (k + 1),
                partial=best[1],
            )
        radius, volume, se = solved
        sets.append(
            ExhaustionSet(
                k + 1,
                _freeze(center),
                radius,
                volume,
                se,
                _freeze(prior_centers),
                _freeze(prior_radii),
            )
        )
    return sets
