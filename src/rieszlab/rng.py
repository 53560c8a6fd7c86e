"""Counter-based random streams for reproducible Monte Carlo.

Every consumer draws from a Philox generator keyed by the user seed with the
counter preset to (0, chunk, unit, stream).  The draw sequence is therefore a
pure function of (seed, stream, unit, chunk): any schedule that assigns whole
chunks to workers reproduces the single-threaded stream exactly, so estimates
do not depend on the thread count. For the same reason a cell's draws can be
kept and reused where a seed repeats (mc_levelset's units).

The stars of the kernels, {|K| > 1} scaled, are drawn as a unit draw that
depends on n alone and one map, scale_star, that scales and places it.
Every unit draw has one shape, (g, rest, t, base, sign), with t and sign of
shape (k, m) for k star axes: k = 1 for unit_star (Riesz kernels) and
unit_diagonal_star (diagonal second-order ones), k = 2 for unit_pair_star
(off-diagonal ones).
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_int, as_positive_int

# Stream ids, one per Monte Carlo consumer.  Distinct ids give disjoint
# counter ranges under the same seed; none is renumbered (7 was the deleted
# exhaustion-sum evaluator's, 9 annealing's).
SPHERE_NORM = 1
SPHERE_MEAN = 2
LIPSCHITZ = 3
LEVELSET = 4
LEVELSET_RETRY = 5
EXHAUSTION = 6
SEARCH_INIT = 8
SEARCH_REEVAL = 10

# Samples per chunk.  Fixed so that chunk boundaries (and hence results) do
# not depend on the worker count.
CHUNK = 1 << 14
# Fewest samples any Monte Carlo estimate accepts.
MIN_SAMPLES = 1000
# Bytes of unit draws mc_levelset keeps of one (seed, samples): one full
# chunk (n + 4 doubles a point with one star axis, n + 5 with two) up to
# n = 28 (27). At n = 1 base and sign are one array, counted twice: 3
# doubles a point.
UNIT_CACHE_BYTES = 4 << 20


def check_seed(seed):
    seed = as_int(seed, "seed")
    if not 0 <= seed < 2**64:
        raise DomainError("seed must lie in [0, 2**64)")
    return seed


def check_samples(samples):
    samples = as_int(samples, "sample count")
    if samples < MIN_SAMPLES:
        raise DomainError("need at least %d samples" % MIN_SAMPLES)
    return samples


def generator(seed, stream, unit=0, chunk=0):
    """Philox generator for one (seed, stream, unit, chunk) cell."""
    seed = check_seed(seed)
    counter = np.array([0, chunk, unit, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))


def derive_seed(seed, stream, unit=0, chunk=0):
    """Deterministic child seed, used when an op needs fresh randomness."""
    return int(generator(seed, stream, unit, chunk).integers(0, 2**63))


def chunk_sizes(total):
    if total < 1:
        raise DomainError("sample count must be positive")
    full, rem = divmod(total, CHUNK)
    return [CHUNK] * full + ([rem] if rem else [])


class _LazyGenerator:
    """generator(*cell), made on its first use: a chunk whose draws all come
    from kept unit draws builds no Philox generator."""

    __slots__ = ("cell", "gen")

    def __init__(self, *cell):
        self.cell, self.gen = cell, None

    def __getattr__(self, name):
        if self.gen is None:
            self.gen = generator(*self.cell)
        return getattr(self.gen, name)


def run_chunked(total, fn, seed, stream, unit=0, threads=1):
    """Evaluate fn(generator, size, chunk_index) over fixed-size chunks.

    The generator of chunk c is generator(seed, stream, unit, c), made when
    fn first draws from it. Returns the per-chunk results in chunk order
    regardless of threads.
    """
    as_positive_int(threads, "thread count")
    sizes = chunk_sizes(total)

    def one(c):
        return fn(_LazyGenerator(seed, stream, unit, c), sizes[c], c)

    if threads <= 1 or len(sizes) == 1:
        return [one(c) for c in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, range(len(sizes))))


@dataclass(frozen=True)
class Estimate:
    """A value with its standard error; exact methods report zero error.

    samples is 0 on exact paths; threshold is None where none applies (sphere
    integrals).
    """

    value: float
    standard_error: float
    samples: int
    method: str
    threshold: float


def combine_mean_se(partials):
    """Pool per-chunk (sum, sum_sq, count) triples into (mean, se, count)."""
    m = sum(p[2] for p in partials)
    s1 = math.fsum(p[0] for p in partials)
    s2 = math.fsum(p[1] for p in partials)
    mean = s1 / m
    if m > 1:
        var = max(s2 - s1 * s1 / m, 0.0) / (m - 1)
        se = math.sqrt(var / m)
    else:
        se = float("inf")
    return mean, se, m


def uniform_sphere(gen, m, n):
    """m points uniform on S^{n-1} (random signs when n = 1)."""
    g = gen.standard_normal((m, n))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    return g / norms


def uniform_ball(gen, m, n):
    """m points uniform in the open unit ball."""
    d = uniform_sphere(gen, m, n)
    r = gen.random(m) ** (1.0 / n)
    return d * r[:, None]


def unit_star(gen, m, n):
    """The scale-free pieces of m points uniform in the unit star
    {x : |x|^n < |x_j| / |x|}, n >= 2, of a Riesz profile: (g, rest, t, base,
    sign), with t and sign of shape (1, m), one column per point.

    The direction theta has density proportional to |theta_j| on S^{n-1}, so
    theta_j^2 = B is Beta(1, (n-1)/2), drawn by inverse CDF as
    1 - U^(2/(n-1)); the top bit of U gives the sign. The other coordinates
    are rest = sqrt(1 - B) = U^(1/(n-1)) times g, a uniform point of S^{n-2}
    (for n = 2 a sign, the next bit of U), with t = |theta_j|. Then r^n is
    uniform below t: r = base = (t V)^(1/n). None of this depends on j.
    """
    u = gen.random((2, m))
    frac, top = np.modf(2.0 * u[0])
    if n == 2:
        # S^0 is a sign: the next bit of U
        frac, g = np.modf(2.0 * frac)
        g = 2.0 * g[None, :] - 1.0
        rest = frac
    else:
        g = gen.standard_normal((n - 1, m))
        g /= np.sqrt(np.einsum("ij,ij->j", g, g))
        rest = frac ** (1.0 / (n - 1))
    tj = np.sqrt(1.0 - rest * rest)
    return g, rest, tj[None], (tj * u[1]) ** (1.0 / n), top[None] - 0.5


def scale_star(unit, axes, scale):
    """The points of a unit draw's pieces (g, rest, t, base, sign), each
    multiplied by scale (a number or one per point), as an (n, m) array of
    coordinates: coordinate axes[k] (0-based, distinct) is sign[k] t[k] r,
    the others in order g rest r, with r = scale base.
    """
    g, rest, t, base, sign = unit
    r = scale * base
    h = r * rest
    out = np.empty((g.shape[0] + len(axes), base.shape[0]))
    # the rows between star axes hold the rows of g, q star axes below them
    edges = (-1, *sorted(axes), out.shape[0])
    for q in range(len(axes) + 1):
        lo, hi = edges[q] + 1, edges[q + 1]
        np.multiply(g[lo - q : hi - q], h, out=out[lo:hi])
    for a, ta, sa in zip(axes, t, sign):
        np.copysign(ta * r, sa, out=out[a])
    return out


def unit_pair_star(gen, m, n):
    """The scale-free pieces of m points uniform in the unit star
    {x : |x|^n < |x_i x_j| / |x|^2}, i != j, n >= 2, of an off-diagonal
    second-order profile: (g, rest, t, base, sign), with t = (ti, tj) and
    sign = (si, sj) of shape (2, m), one column per point.

    The direction theta has density proportional to |theta_i theta_j| on
    S^{n-1}, so (theta_i^2, theta_j^2, |theta_rest|^2) is Dirichlet(1, 1,
    (n-2)/2): two exponentials and a Gamma((n-2)/2) over their sum, with no
    rejection. The gamma is half the squared norm of n - 2 normals, whose
    direction g is independent of it and uniform on S^{n-3}; the other
    coordinates are rest g (none for n = 2, where rest is 0). theta_i = si ti
    and theta_j = sj tj take random signs (the top two bits of one uniform).
    Then r^n is uniform below ti tj: r = base = (ti tj V)^(1/n). None of this
    depends on i or j.
    """
    e = gen.standard_exponential((2, m))
    g = gen.standard_normal((n - 2, m))
    norm2 = np.einsum("ij,ij->j", g, g)
    g /= np.sqrt(norm2)
    total = e[0] + e[1] + 0.5 * norm2
    rest = np.sqrt(0.5 * norm2 / total)
    t = np.sqrt(e / total)
    u = gen.random((2, m))
    base = (t[0] * t[1] * u[1]) ** (1.0 / n)
    # the signs si - 1/2 and sj - 1/2, from the top two bits of u[0], overwrite u
    np.modf(2.0 * u[0], out=(u[1], u[0]))
    np.floor(2.0 * u[1], out=u[1])
    u -= 0.5
    return g, rest, t, base, u


def unit_diagonal_star(gen, m, n):
    """The scale-free pieces of m points uniform in the unit star
    {x : |x|^n < |x_j^2 / |x|^2 - 1/n|}, n >= 2, of a diagonal second-order
    profile, in unit_star's shape (g, rest, t, base, sign).

    The direction has density proportional to |B - 1/n| on S^{n-1}, with
    B = theta_j^2 ~ Beta(1/2, (n-1)/2) under the uniform law. As B has mean
    1/n there, (B + 1/n) Beta(1/2, (n-1)/2) is the even mixture of
    Beta(3/2, (n-1)/2) and Beta(1/2, (n-1)/2): B is drawn from it and kept
    with probability |B - 1/n| / (B + 1/n): 32% at n = 2, 38% at n = 3,
    rising to 48%. Candidates come in rounds until m are kept, so the draw is
    a function of the generator's state alone; a round of twice the number
    still missing (plus 64) keeps fewer than that number except at the end,
    so few candidates are wasted. The other coordinates are
    sqrt(1 - B) times a uniform point g of S^{n-2}, t = sqrt(B) takes a
    random sign, and r = base = (|B - 1/n| V)^(1/n).
    """
    p = 1.0 / n
    kept = []
    need = m
    while need > 0:
        k = 2 * need + 64
        b = gen.beta(np.where(gen.random(k) < 0.5, 1.5, 0.5), (n - 1) / 2)
        b = b[gen.random(k) * (b + p) < np.abs(b - p)][:need]
        kept.append(b)
        need -= b.size
    b = np.concatenate(kept)
    g = gen.standard_normal((n - 1, m))
    g /= np.sqrt(np.einsum("ij,ij->j", g, g))
    u = gen.random((2, m))
    base = (np.abs(b - p) * u[1]) ** (1.0 / n)
    return g, np.sqrt(1.0 - b), np.sqrt(b)[None], base, u[None, 0] - 0.5
