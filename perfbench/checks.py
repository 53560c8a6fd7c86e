"""Checks of rieszlab outputs, written apart from the program.

Nothing here imports rieszlab. The kernels are written out from the Gamma
function, the Monte Carlo reference draws from its own numpy generator, and
the Whitney/Calderon-Zygmund checker works on the integer fine lattice.
Every check returns None when it passes and a one-line message when it
fails, so a run can report every fault it finds.
"""

import itertools
import math

import numpy as np

TWO_OVER_PI = 2.0 / math.pi


# --- closed forms ----------------------------------------------------------


def ball_volume(n):
    """V_n = pi^(n/2) / Gamma(n/2 + 1)."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def riesz_constant(n):
    """c_n in R_j(x) = c_n x_j / |x|^(n+1): Gamma((n+1)/2) / pi^((n+1)/2)."""
    return math.gamma((n + 1) / 2) / math.pi ** ((n + 1) / 2)


def second_order_constant(n):
    """Gamma(n/2 + 1) / pi^(n/2), the constant of the kernels of R_i R_j."""
    return math.gamma(n / 2 + 1) / math.pi ** (n / 2)


def single_mass_volume(n, a, lam):
    """|{|a R_j(x)| > lam}| = (a / lam) * 2 / (pi n)."""
    return a / lam * TWO_OVER_PI / n


class Kernel:
    """One kernel: kind 'riesz' (component j) or 'second-order' (i, j)."""

    def __init__(self, kind, n, i=1, j=1):
        self.kind, self.n, self.i, self.j = kind, n, i, j

    def values(self, x):
        """K at the rows of x, shape (..., n)."""
        r2 = np.sum(x * x, axis=-1)
        xj = x[..., self.j - 1]
        if self.kind == "riesz":
            return riesz_constant(self.n) * xj * r2 ** (-(self.n + 1) / 2)
        c = second_order_constant(self.n)
        if self.i != self.j:
            return c * x[..., self.i - 1] * xj * r2 ** (-(self.n + 2) / 2)
        return c * (xj * xj / r2 - 1.0 / self.n) * r2 ** (-self.n / 2)

    def sup_omega(self):
        """sup of |K| on the unit sphere."""
        if self.kind == "riesz":
            return riesz_constant(self.n)
        c = second_order_constant(self.n)
        return c / 2.0 if self.i != self.j else c * (1.0 - 1.0 / self.n)


def transform(kernel, masses, centers, points):
    """T nu at points: sum_k a_k K(x - c_k)."""
    diffs = points[:, None, :] - centers[None, :, :]
    return kernel.values(diffs) @ masses


# --- Monte Carlo reference -------------------------------------------------


def cover_radii(kernel, masses, lam):
    """Radii of balls whose union holds {|T nu| > lam}.

    Off the union, |T nu(x)| <= sum_k a_k sup|Omega| / |x - c_k|^n, and with
    rho_k^n = N sup|Omega| a_k / lam every term is at most lam / N.
    """
    return (len(masses) * kernel.sup_omega() * masses / lam) ** (1.0 / kernel.n)


def plain_levelset(kernel, masses, centers, lam, samples, seed, block=1 << 22):
    """(value, se) of |{|T nu| > lam}|, stratified over the cover balls.

    Ball k gets its share of the samples by volume; each point counts 1 over
    the number of balls that hold it, so the union is counted once.
    """
    masses = np.asarray(masses, dtype=float)
    centers = np.asarray(centers, dtype=float)
    n = kernel.n
    rho = cover_radii(kernel, masses, lam)
    vols = ball_volume(n) * rho**n
    counts = np.maximum(np.ceil(samples * vols / vols.sum()).astype(int), 2)
    owner = np.repeat(np.arange(len(masses)), counts)
    gen = np.random.default_rng(seed)
    step = max(1, block // (len(masses) * n))
    w = np.empty(len(owner))
    for lo in range(0, len(owner), step):
        k = owner[lo : lo + step]
        g = gen.standard_normal((len(k), n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pts = centers[k] + (rho[k] * gen.random(len(k)) ** (1.0 / n))[:, None] * g
        dist = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2)
        cover = np.sum(dist < rho[None, :], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            hit = np.abs(transform(kernel, masses, centers, pts)) > lam
        w[lo : lo + step] = hit / np.maximum(cover, 1)
    total = np.bincount(owner, weights=w)
    square = np.bincount(owner, weights=w * w)
    mean = total / counts
    var = np.maximum(square / counts - mean**2, 0.0) * counts / (counts - 1)
    return float(vols @ mean), float(math.sqrt(np.sum(vols**2 * var / counts)))


def within_se(value, se, ref, ref_se=0.0, k=4.0, what="value"):
    """Is value within k combined standard errors of ref?"""
    if not (math.isfinite(value) and math.isfinite(se) and se > 0.0):
        return "%s: SE %r is not positive and finite" % (what, se)
    bound = k * math.hypot(se, ref_se)
    if abs(value - ref) > bound:
        return "%s: %.17g is %.2f SE from %.17g" % (
            what, value, abs(value - ref) / math.hypot(se, ref_se), ref)
    return None


def close(value, ref, tol, what="value"):
    """Is value within tol of ref, relative to max(1, |ref|)?"""
    if not abs(value - ref) <= tol * max(1.0, abs(ref)):
        return "%s: %.17g differs from %.17g by more than %g" % (what, value, ref, tol)
    return None


# --- integer-lattice Whitney and Calderon-Zygmund checker -------------------


def _layer(cells):
    """Complement cells touching the union: the nearest part of U^c."""
    n = cells.shape[1]
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=n)), dtype=np.int64)
    near = np.unique((cells[:, None, :] + offsets[None, :, :]).reshape(-1, n), axis=0)
    inside = {tuple(c) for c in cells.tolist()}
    return np.array([c for c in near.tolist() if tuple(c) not in inside], dtype=np.int64)


def check_whitney(cells, level, cubes, residual, max_depth):
    """Cubes plus residual tile U exactly, and (2n-1) diam Q <= dist(Q, U^c).

    cells: (m, n) int coordinates of the level-`level` cells of U.
    cubes, residual: lists of (cube level, coords). All arithmetic is on the
    level-max_depth lattice in integers.
    """
    cells = np.asarray(cells, dtype=np.int64)
    n = cells.shape[1]
    scale = 1 << (max_depth - level)
    lo = cells.min(axis=0)
    dims = tuple(int(v) for v in (cells.max(axis=0) - lo + 1) * scale)
    want = np.zeros(dims, dtype=bool)
    for c in cells - lo:
        want[tuple(slice(int(v) * scale, (int(v) + 1) * scale) for v in c)] = True
    painted = np.zeros(dims, dtype=np.int32)
    for k, coords in itertools.chain(cubes, residual):
        if len(coords) != n or k > max_depth:
            return "cube %r at level %d is not on the lattice" % (coords, k)
        s = 1 << (max_depth - k)
        start = [c * s - int(l) * scale for c, l in zip(coords, lo)]
        if any(v < 0 or v + s > d for v, d in zip(start, dims)):
            return "cube %r at level %d leaves U" % (coords, k)
        painted[tuple(slice(v, v + s) for v in start)] += 1
    if np.any(painted > 1):
        return "cubes overlap"
    if not np.array_equal(painted == 1, want):
        return "cubes and residual do not tile U"
    if any(k != max_depth for k, _ in residual):
        return "a residual cell is not at max_depth"
    if not cubes:
        return None
    layer = _layer(cells)
    levels = np.array([k for k, _ in cubes], dtype=np.int64)
    side = np.left_shift(1, max_depth - levels)[:, None]
    qlo = np.array([c for _, c in cubes], dtype=np.int64) * side
    clo = layer * scale
    for a in range(0, len(qlo), 256):
        ql, s = qlo[a : a + 256], side[a : a + 256]
        gap = np.maximum(
            np.maximum(clo[None] - (ql + s)[:, None], ql[:, None] - (clo + scale)[None]),
            0,
        )
        d2 = np.min(np.sum(gap * gap, axis=2), axis=1)
        need = (2 * n - 1) ** 2 * n * s[:, 0] ** 2
        bad = np.flatnonzero(need > d2)
        if bad.size:
            return "separation fails for cube %r" % (cubes[a + bad[0]],)
    return None


def check_cz(level, box, values, lam, doc, max_depth):
    """Check a `cz` document against its grid function f.

    box: (box level, box coords); values: the dense level-`level` array.
    Cubes and residual tile {f > lam} with Whitney separation, the good part
    is f off the set and at most lam, every piece holds the integral of f
    over its cube at the cube's center, the masses sum to int_{f>lam} f, and
    the point-mass measure is those pieces with ||nu|| <= ||f||_1.
    """
    values = np.asarray(values, dtype=float)
    n = values.ndim
    origin = np.array(box[1], dtype=np.int64) << (level - box[0])
    above = values > lam
    cells = np.argwhere(above) + origin
    pieces = doc["pieces"]
    cubes = [(p["cube"]["level"], tuple(p["cube"]["coords"])) for p in pieces if not p["residual"]]
    resid = [(p["cube"]["level"], tuple(p["cube"]["coords"])) for p in pieces if p["residual"]]
    fault = check_whitney(cells, level, cubes, resid, max_depth)
    if fault:
        return fault
    good = np.asarray(doc["good"]["values"], dtype=float).reshape(values.shape)
    if np.any(good > lam):
        return "good part exceeds lambda"
    if not np.array_equal(good, np.where(above, 0.0, values)):
        return "good part is not f off {f > lambda}"
    cell_vol = 2.0 ** (-level * n)
    for p in pieces:
        k, coords = p["cube"]["level"], p["cube"]["coords"]
        side = 2.0**-k
        if k <= level:
            s = 1 << (level - k)
            start = (np.array(coords, dtype=np.int64) << (level - k)) - origin
            mass = math.fsum(values[tuple(slice(v, v + s) for v in start)].ravel()) * cell_vol
        else:
            cell = (np.array(coords, dtype=np.int64) >> (k - level)) - origin
            mass = float(values[tuple(cell)]) * side**n
        if abs(p["mass"] - mass) > 1e-12 * mass:
            return "piece %r holds %r, not the integral %r" % (coords, p["mass"], mass)
        center = [(c + 0.5) * side for c in coords]
        if p["center"] != center:
            return "piece %r is not at its cube's center" % (coords,)
    bad = math.fsum(p["mass"] for p in pieces)
    want = math.fsum(values[above].ravel()) * cell_vol
    if abs(bad - want) > 1e-12 * want:
        return "piece masses sum to %r, not int_{f>lam} f = %r" % (bad, want)
    nu = doc["measure"]["masses"]
    if [m["a"] for m in nu] != [p["mass"] for p in pieces]:
        return "point masses are not the piece masses"
    if [m["c"] for m in nu] != [p["center"] for p in pieces]:
        return "point masses do not sit at the piece centers"
    if math.fsum(m["a"] for m in nu) > math.fsum(values.ravel()) * cell_vol:
        return "||nu|| exceeds ||f||_1"
    return None


# --- other closed-form checks ----------------------------------------------


def check_constants_row(row):
    """A `constants` CSV row of a Riesz kernel against closed forms.

    The sphere norm is a quadrature in the program, so its two columns get
    the program's own quadrature tolerance; the rest are closed forms.
    """
    n = int(row["n"])
    c = riesz_constant(n)
    want = {
        "normalization": (c, 1e-12),
        "sphere_l1": (TWO_OVER_PI, 1e-9),
        "omega_sup": (c, 1e-12),
        "gradient_sup": (1.0, 1e-12),
        "ball_volume": (ball_volume(n), 1e-12),
        "dimensional_constant": (ball_volume(n) * c, 1e-12),
        "single_mass_weaktype": (TWO_OVER_PI / n, 1e-9),
    }
    for key, (ref, tol) in want.items():
        fault = close(float(row[key]), ref, tol, what="constants " + key)
        if fault:
            return fault
    return None


def check_exhaustion(rows, total_mass, lam):
    """Sum of the set volumes within 3 pooled SE of ||nu|| / lam."""
    total = math.fsum(float(r["volume"]) for r in rows)
    se = math.sqrt(math.fsum(float(r["standard_error"]) ** 2 for r in rows))
    target = total_mass / lam
    if abs(total - target) > max(3.0 * se, 1e-12 * target):
        return "exhaustion total %r is %r from %r (pooled SE %r)" % (
            total, total - target, target, se)
    return None


def check_dilation(value, dilated, tol=1e-4):
    """The cancellation integral does not change under dilation."""
    if not (math.isfinite(value) and value > 0.0):
        return "cancellation value %r is not positive" % value
    if abs(dilated - value) > tol * value:
        return "cancellation %r changes to %r under dilation" % (value, dilated)
    return None
