"""Homogeneous singular-integral kernels K(x) = omega(x/|x|) / |x|^n.

Two families: the Riesz kernels with profile x_j/|x| (at n = 1 the Hilbert
kernel 1/(pi x)) and the second-order kernels with profiles x_i x_j/|x|^2
(i != j) and x_j^2/|x|^2 - 1/n.  Closed forms cover the normalization, the
sphere L^1 norm of every kernel, the profile gradient, and the dimensional
constant; Monte Carlo checkers cover the zero sphere mean and the integral
Lipschitz condition; a deterministic 1-D quadrature path serves as the
independent oracle for sphere integrals.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DomainError, ToleranceError, as_int, as_point

RIESZ = "riesz"
SECOND_ORDER = "riesz2"

_KINDS = (RIESZ, SECOND_ORDER)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel identity: dimension, family, component indices (1-based)."""

    n: int
    kind: str
    i: int = 1
    j: int = 1

    def __post_init__(self):
        for name in ("n", "i", "j"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.n < 1:
            raise DomainError("dimension n must be a positive integer")
        if self.kind not in _KINDS:
            raise DomainError("unknown kernel kind %r" % (self.kind,))
        if self.kind == SECOND_ORDER and self.n < 2:
            # at n = 1 the only second-order profile is identically zero
            raise DomainError("second-order kernels require n >= 2")
        for idx in (self.i, self.j):
            if not 1 <= idx <= self.n:
                raise DomainError("component indices must lie in 1..n")

    @property
    def diagonal(self):
        return self.kind == SECOND_ORDER and self.i == self.j


def riesz(n, j=1):
    return KernelSpec(n, RIESZ, j, j)


def hilbert():
    """The Hilbert kernel 1/(pi x): the Riesz kernel of dimension 1."""
    return riesz(1, 1)


def second_order(n, i, j):
    return KernelSpec(n, SECOND_ORDER, i, j)


def check_dimension(spec, other):
    """DomainError unless other (a measure, density or set) lives in R^n."""
    if other.n != spec.n:
        raise DomainError("kernel and input dimensions differ")


def normalization(spec):
    """Constant multiplying the raw profile; computed in log space."""
    n = spec.n
    if spec.kind == SECOND_ORDER:
        return math.exp(math.lgamma(n / 2 + 1) - (n / 2) * math.log(math.pi))
    return math.exp(math.lgamma((n + 1) / 2) - ((n + 1) / 2) * math.log(math.pi))


def profile(spec, x):
    """Raw 0-homogeneous profile (no normalization). x: array (..., n)."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    if spec.kind == RIESZ:
        return x[..., spec.j - 1] / np.sqrt(r2)
    if spec.i != spec.j:
        return x[..., spec.i - 1] * x[..., spec.j - 1] / r2
    return x[..., spec.j - 1] ** 2 / r2 - 1.0 / spec.n


def omega(spec, x):
    """Normalized profile Omega = normalization * profile."""
    return normalization(spec) * profile(spec, x)


def _inverse_power(inv, e):
    """|x|^-e from inv = 1/|x|^2: integer powers of inv by squaring, and one
    sqrt only when e is odd."""
    out = np.sqrt(inv) if e % 2 else None
    base, p = inv, e // 2
    while p:
        if p & 1:
            out = base if out is None else out * base
        p >>= 1
        if p:
            base = base * base
    return out


def kernel_from_r2(spec, offsets, r2):
    """K from coordinate offsets and r2 = |x|^2, no pole checking.

    offsets[d] holds coordinate d (0-based) of x; only the kernel's own
    components i and j are read, so callers that form r2 one coordinate at a
    time need keep only those. K = c P(x) |x|^-e with P = x_j, e = n + 1
    (Riesz), P = x_i x_j, e = n + 2 (second order, i != j) and
    P = x_j^2 / |x|^2 - 1/n, e = n (second order, i = j).
    """
    n = spec.n
    inv = 1.0 / r2
    xj = offsets[spec.j - 1]
    if spec.kind != SECOND_ORDER:
        p, e = xj, n + 1
    elif spec.diagonal:
        p, e = xj * xj * inv - 1.0 / n, n
    else:
        p, e = offsets[spec.i - 1] * xj, n + 2
    return normalization(spec) * p * _inverse_power(inv, e)


def kernel_values(spec, x):
    """K at a batch of points, no pole checking (callers mask poles)."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    return kernel_from_r2(spec, np.moveaxis(x, -1, 0), r2)


def eval_kernel(spec, x):
    """K at one point; the origin is outside the domain."""
    x = as_point(x, spec.n)
    if np.dot(x, x) == 0.0:
        raise DomainError("kernel undefined at the origin")
    return float(kernel_values(spec, x))


def profile_gradient(spec, x):
    """Gradient of the raw profile. x: array (..., n) of nonzero points."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1, keepdims=True)
    n = spec.n
    grad = np.zeros_like(x)
    if spec.kind == RIESZ:
        j = spec.j - 1
        r = np.sqrt(r2)
        grad += -x[..., j:j + 1] * x / (r2 * r)
        grad[..., j] += 1.0 / r[..., 0]
        return grad
    i, j = spec.i - 1, spec.j - 1
    if i != j:
        grad += -2.0 * (x[..., i:i + 1] * x[..., j:j + 1]) * x / (r2 * r2)
        grad[..., i] += x[..., j] / r2[..., 0]
        grad[..., j] += x[..., i] / r2[..., 0]
        return grad
    grad += -2.0 * x[..., j:j + 1] ** 2 * x / (r2 * r2)
    grad[..., j] += 2.0 * x[..., j] / r2[..., 0]
    return grad


def eval_omega_gradient(spec, x):
    """Closed-form gradient of the raw profile at one nonzero point."""
    x = as_point(x, spec.n)
    if np.dot(x, x) == 0.0:
        raise DomainError("gradient undefined at the origin")
    return profile_gradient(spec, x)


def profile_gradient_sup(spec):
    """sup over x != 0 of |x| * |grad profile(x)|: 1, sqrt(5), or 2."""
    if spec.kind == RIESZ:
        return 1.0
    return 2.0 if spec.diagonal else math.sqrt(5.0)


def omega_sup(spec):
    """sup of |Omega| on the unit sphere, closed form."""
    c = normalization(spec)
    if spec.kind == RIESZ:
        return c
    if spec.diagonal:
        return c * (1.0 - 1.0 / spec.n)
    return c / 2.0


def sphere_surface_area(n):
    """|S^{n-1}| = n |B(0,1)|; counting measure (total mass 2) when n = 1."""
    return n * ball_volume(n)


def ball_volume(n):
    """|B(0,1)| by V_1 = 2, V_2 = pi, V_n = 2 pi / n * V_{n-2}.

    Exact for n = 1, 2 and within about an ulp for the next dimensions, so
    the closed forms of low dimensions hold to the last bits.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    vol = 2.0 if n % 2 else math.pi
    for k in range(4 - n % 2, n + 1, 2):
        vol *= 2.0 * math.pi / k
    return vol


def dimensional_constant(n):
    """|B(0,1)| times the Riesz normalization; decays like n^{-1/2}."""
    if as_int(n, "n") < 1:
        raise DomainError("n must be a positive integer")
    return math.exp(
        math.log(2.0)
        + math.lgamma((n + 1) / 2)
        - math.lgamma(n / 2)
        - 0.5 * math.log(math.pi)
    ) / n


def sphere_l1_norm(spec):
    """int_{S^{n-1}} |Omega| dsigma in closed form.

    2/pi for every Riesz kernel and every off-diagonal second-order kernel
    (there c |S^{n-1}| = n and E|theta_i theta_j| = 2/(pi n)). On the
    diagonal it is n E|theta_j^2 - p| with p = 1/n, the mean absolute
    deviation of theta_j^2 ~ Beta(1/2, (n-1)/2) about its mean:
    n 4 p^{3/2} (1 - p)^{(n-1)/2} / B(1/2, (n-1)/2), taken in log space.
    """
    if not spec.diagonal:
        return 2.0 / math.pi
    n = spec.n
    return math.exp(
        math.log(4.0)
        - 0.5 * math.log(n * math.pi)
        + (n - 1) / 2 * math.log1p(-1.0 / n)
        + math.lgamma(n / 2)
        - math.lgamma((n - 1) / 2)
    )


@dataclass(frozen=True)
class SphereIntegralEstimate:
    value: float
    standard_error: float
    samples: int


def _sphere_mc(spec, func, samples, seed, stream, threads=1):
    rng.check_samples(samples)
    area = sphere_surface_area(spec.n)

    def chunk(gen, m, _c):
        theta = rng.uniform_sphere(gen, m, spec.n)
        vals = func(theta)
        return float(np.sum(vals)), float(np.sum(vals * vals)), m

    mean, se, m = rng.combine_mean_se(
        rng.run_chunked(samples, chunk, seed, stream, threads=threads)
    )
    return SphereIntegralEstimate(mean * area, se * area, m)


def sphere_l1_norm_mc(spec, samples, seed, threads=1):
    return _sphere_mc(
        spec, lambda t: np.abs(omega(spec, t)), samples, seed, rng.SPHERE_NORM, threads
    )


def sphere_mean_zero_check(spec, samples, seed, threads=1):
    """MC estimate of the sphere mean of Omega; should sit within 3 SE of 0."""
    return _sphere_mc(
        spec, lambda t: omega(spec, t), samples, seed, rng.SPHERE_MEAN, threads
    )


def lipschitz_condition_ratio(spec, xi, delta, samples, seed, threads=1):
    """MC estimate of int |Omega(theta - xi delta) - Omega(theta)| dsigma
    over (n * delta * int |Omega| dsigma).

    xi must be a unit vector and delta must lie in (0, 1/n): at delta = 1/n
    the displaced argument may reach the origin where the profile blows up.
    """
    xi = as_point(xi, spec.n, "xi")
    if abs(np.linalg.norm(xi) - 1.0) > 1e-12:
        raise DomainError("xi must be a unit vector")
    if not 0.0 < delta < 1.0 / spec.n:
        raise DomainError("delta must lie in the open interval (0, 1/n)")
    est = _sphere_mc(
        spec,
        lambda t: np.abs(omega(spec, t - delta * xi) - omega(spec, t)),
        samples,
        seed,
        rng.LIPSCHITZ,
        threads,
    )
    return est.value / (spec.n * delta * sphere_l1_norm(spec))


# ---------------------------------------------------------------------------
# Deterministic quadrature oracle for sphere integrals.
#
# Integrands depending on one coordinate reduce over S^{n-1} to
#   |S^{n-2}| * int_0^pi f(cos phi) sin^{n-2} phi dphi        (n >= 2),
# and those depending on two coordinates reduce to a polar integral over the
# unit disk with weight (1 - rho^2)^{(n-4)/2}, smoothed by rho = sin psi.
# ---------------------------------------------------------------------------


def _quad(f, lo, hi, points=()):
    """int_lo^hi f by adaptive quadrature to 1e-12 relative.

    ToleranceError when the error estimate exceeds 1e-10 of max(1, |value|).
    scipy.integrate is imported here, so only the oracle pays for it.
    """
    from scipy import integrate

    val, err = integrate.quad(
        f, lo, hi, points=points or None, epsabs=0.0, epsrel=1e-12, limit=200
    )
    if err > 1e-10 * max(1.0, abs(val)):
        raise ToleranceError("sphere quadrature did not converge", val)
    return val


def _slice_integral(n, f, kinks=()):
    """Reduce int_{S^{n-1}} f(theta_1) dsigma to one angular quadrature.

    kinks: values of theta_1 where f has a derivative jump, passed through as
    quadrature breakpoints so the error estimate stays honest.
    """
    if n == 1:
        return f(1.0) + f(-1.0)
    points = sorted(math.acos(t) for t in kinks if -1.0 < t < 1.0)
    val = _quad(
        lambda p: f(math.cos(p)) * math.sin(p) ** (n - 2), 0.0, math.pi, points
    )
    return sphere_surface_area(n - 1) * val


def abs_coordinate_sphere_integral(n):
    """int_{S^{n-1}} |theta_1| dsigma by quadrature (the V_n oracle)."""
    return _slice_integral(n, abs, kinks=(0.0,))


def sphere_l1_quadrature(spec):
    """Sphere L^1 norm of Omega by quadrature: the oracle of sphere_l1_norm."""
    n = spec.n
    c = normalization(spec)
    if spec.kind == RIESZ:
        return c * abs_coordinate_sphere_integral(n)
    if spec.diagonal:
        root = 1.0 / math.sqrt(n)
        return c * _slice_integral(
            n, lambda t: abs(t * t - 1.0 / n), kinks=(-root, root)
        )
    if n == 2:
        return c * _quad(
            lambda a: abs(math.cos(a) * math.sin(a)), 0.0, 2.0 * math.pi
        )
    # two-coordinate reduction; angular |cos sin| integral equals 2
    radial = _quad(
        lambda psi: math.sin(psi) ** 3 * math.cos(psi) ** (n - 3), 0.0, math.pi / 2
    )
    return c * sphere_surface_area(n - 2) * 2.0 * radial
