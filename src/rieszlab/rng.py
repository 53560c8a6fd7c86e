"""Counter-based random streams for reproducible Monte Carlo.

Every consumer draws from a Philox generator keyed by the user seed with the
counter preset to (0, chunk, unit, stream).  The draw sequence is therefore a
pure function of (seed, stream, unit, chunk): any schedule that assigns whole
chunks to workers reproduces the single-threaded stream exactly, so estimates
do not depend on the thread count.
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


def run_chunked(total, fn, seed, stream, unit=0, threads=1):
    """Evaluate fn(generator, size, chunk_index) over fixed-size chunks.

    Returns the per-chunk results in chunk order regardless of threads.
    """
    if as_int(threads, "thread count") < 1:
        raise DomainError("thread count must be a positive integer")
    sizes = chunk_sizes(total)

    def one(c):
        return fn(generator(seed, stream, unit, c), sizes[c], c)

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


def uniform_star(gen, m, n, j, scale=1.0):
    """m points uniform in the unit star {x : |x|^n < |x_j| / |x|}, n >= 2,
    each multiplied by scale (a number or one per point).

    The star is the level set {|x_j| / |x|^(n+1) > 1} of a Riesz profile
    (j is 0-based). Its direction theta has density proportional to
    |theta_j| on S^{n-1}, so theta_j^2 = B is Beta(1, (n-1)/2), drawn by
    inverse CDF as 1 - U^(2/(n-1)); the top bit of U gives the sign. The
    other coordinates are sqrt(1 - B) = U^(1/(n-1)) times a uniform point
    of S^{n-2} (for n = 2 a sign, the next bit of U). Then r^n is uniform
    below |theta_j|. The points are built one coordinate at a time, so the
    result is a column-major (m, n) array.
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
    r = scale * (tj * u[1]) ** (1.0 / n)
    g *= r * rest
    out = np.empty((n, m))
    out[:j] = g[:j]
    out[j] = np.copysign(tj * r, top - 0.5)
    out[j + 1:] = g[j:]
    return out.T
