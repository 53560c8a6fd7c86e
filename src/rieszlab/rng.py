"""Counter-based random streams for reproducible Monte Carlo.

Every consumer draws from a Philox generator keyed by the user seed with the
counter preset to (0, chunk, unit, stream).  The draw sequence is therefore a
pure function of (seed, stream, unit, chunk): any schedule that assigns whole
chunks to workers reproduces the single-threaded stream exactly, so estimates
do not depend on the thread count. For the same reason a cell's draws can be
kept and reused where a seed repeats (mc_levelset's units).

The stars of the kernels, {|K| > 1} scaled, are drawn as a unit draw that
depends on n alone and a map that scales and places it: unit_star and
scale_star for Riesz kernels, unit_pair_star and scale_pair_star for
off-diagonal second-order kernels, unit_diagonal_star and scale_star for
diagonal ones.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_int

# Stream ids, one per Monte Carlo consumer.  Distinct ids give disjoint
# counter ranges under the same seed.
SPHERE_NORM = 1
SPHERE_MEAN = 2
LIPSCHITZ = 3
LEVELSET = 4
LEVELSET_RETRY = 5
EXHAUSTION = 6
EVAL_H = 7
SEARCH_INIT = 8
SEARCH_ANNEAL = 9
SEARCH_REEVAL = 10

# Samples per chunk.  Fixed so that chunk boundaries (and hence results) do
# not depend on the worker count.
CHUNK = 1 << 14
# Fewest samples any Monte Carlo estimate accepts.
MIN_SAMPLES = 1000
# Bytes of unit draws mc_levelset keeps of one (seed, samples): one full
# chunk (n + 4 doubles a point, n + 5 for off-diagonal second-order stars) up
# to n = 28 (27).
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
    if as_int(threads, "thread count") < 1:
        raise DomainError("thread count must be a positive integer")
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
    """The scale-free pieces of m points of uniform_star: (g, rest, tj, base,
    sign), one column per point.

    The unit star {x : |x|^n < |x_j| / |x|}, n >= 2, is the level set
    {|x_j| / |x|^(n+1) > 1} of a Riesz profile. Its direction theta has
    density proportional to |theta_j| on S^{n-1}, so theta_j^2 = B is
    Beta(1, (n-1)/2), drawn by inverse CDF as 1 - U^(2/(n-1)); the top bit of
    U gives the sign. The other coordinates are rest = sqrt(1 - B) =
    U^(1/(n-1)) times g, a uniform point of S^{n-2} (for n = 2 a sign, the
    next bit of U), with tj = |theta_j|. Then r^n is uniform below tj: r =
    base = (tj V)^(1/n) in the unit star. None of this depends on j.
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
    return g, rest, tj, (tj * u[1]) ** (1.0 / n), top - 0.5


def scale_star(unit, j, scale):
    """The points of unit_star's pieces, each multiplied by scale (a number
    or one per point), as an (n, m) array of coordinates: coordinate j
    (0-based) is sign tj r, the others g rest r, with r = scale base.
    """
    g, rest, tj, base, sign = unit
    r = scale * base
    h = r * rest
    out = np.empty((g.shape[0] + 1, g.shape[1]))
    np.multiply(g[:j], h, out=out[:j])
    out[j] = np.copysign(tj * r, sign)
    np.multiply(g[j:], h, out=out[j + 1:])
    return out


def unit_pair_star(gen, m, n):
    """The scale-free pieces of m points uniform in the unit star
    {x : |x|^n < |x_i x_j| / |x|^2}, i != j, n >= 2, of an off-diagonal
    second-order profile: (g, rest, ti, tj, base, si, sj), one column per
    point.

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
    ti, tj = np.sqrt(e / total)
    u = gen.random((2, m))
    frac, si = np.modf(2.0 * u[0])
    sj = np.floor(2.0 * frac)
    return g, rest, ti, tj, (ti * tj * u[1]) ** (1.0 / n), si - 0.5, sj - 0.5


def scale_pair_star(unit, i, j, scale):
    """The points of unit_pair_star's pieces, each multiplied by scale (a
    number or one per point), as an (n, m) array of coordinates: coordinates
    i and j (0-based, distinct) are si ti r and sj tj r, the others g rest r,
    with r = scale base.
    """
    g, rest, ti, tj, base, si, sj = unit
    r = scale * base
    h = r * rest
    lo, hi = min(i, j), max(i, j)
    out = np.empty((g.shape[0] + 2, g.shape[1]))
    np.multiply(g[:lo], h, out=out[:lo])
    np.multiply(g[lo:hi - 1], h, out=out[lo + 1:hi])
    np.multiply(g[hi - 1:], h, out=out[hi + 1:])
    out[i] = np.copysign(ti * r, si)
    out[j] = np.copysign(tj * r, sj)
    return out


def unit_diagonal_star(gen, m, n):
    """The scale-free pieces of m points uniform in the unit star
    {x : |x|^n < |x_j^2 / |x|^2 - 1/n|}, n >= 2, of a diagonal second-order
    profile, in unit_star's shape (g, rest, tj, base, sign), so that
    scale_star places them.

    The direction has density proportional to |B - 1/n| on S^{n-1}, with
    B = theta_j^2 ~ Beta(1/2, (n-1)/2) under the uniform law. As B has mean
    1/n there, (B + 1/n) Beta(1/2, (n-1)/2) is the even mixture of
    Beta(3/2, (n-1)/2) and Beta(1/2, (n-1)/2): B is drawn from it and kept
    with probability |B - 1/n| / (B + 1/n): 32% at n = 2, 38% at n = 3,
    rising to 48%. Candidates come in rounds until m are kept, so the draw is
    a function of the generator's state alone; a round of twice the number
    still missing (plus 64) keeps fewer than that number except at the end,
    so few candidates are wasted. The other coordinates are
    sqrt(1 - B) times a uniform point g of S^{n-2}, tj = sqrt(B) takes a
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
    return g, np.sqrt(1.0 - b), np.sqrt(b), base, u[0] - 0.5


def uniform_star(gen, m, n, j, scale=1.0):
    """m points uniform in the unit star {x : |x|^n < |x_j| / |x|}, n >= 2,
    each multiplied by scale (a number or one per point); j is 0-based.

    The unit draw unit_star followed by the map scale_star: callers that
    draw the same points at many scales keep the first and map it again.
    The result is a column-major (m, n) array.
    """
    return scale_star(unit_star(gen, m, n), j, scale).T

