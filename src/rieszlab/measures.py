"""Finite positive combinations of Dirac masses and their transforms.

The JSON schema is {"n": int, "masses": [{"a": float, "c": [float x n]}]},
masses strictly positive.  Transform evaluation refuses points within
POLE_RADIUS of any center; the maximal truncation enumerates the partial
sums of contributions ordered by decreasing distance (ties enter together).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, PoleError, as_floats, as_int, as_point

POLE_RADIUS = 1e-12
# (point, mass) pairs per tile of the batched transform: each of a tile's
# arrays is 128 kB, so they stay in a core's L2 cache. A full Monte Carlo
# chunk (rng.CHUNK points) takes one mass per tile.
PAIR_BUDGET = 1 << 14


@dataclass(frozen=True)
class PointMassMeasure:
    n: int
    masses: np.ndarray   # (N,), strictly positive
    centers: np.ndarray  # (N, n)

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        centers = np.asarray(self.centers, dtype=float)
        n = as_int(self.n, "dimension n")
        if n < 1:
            raise DomainError("dimension n must be a positive integer")
        if masses.ndim != 1 or masses.size < 1:
            raise DomainError("at least one mass is required")
        if centers.shape != (masses.size, self.n):
            raise DomainError("centers must have shape (N, n)")
        if not np.all(np.isfinite(masses)) or not np.all(masses > 0):
            raise DomainError("masses must be finite and strictly positive")
        if not np.all(np.isfinite(centers)):
            raise DomainError("centers must be finite")
        masses.flags.writeable = False
        centers.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "centers", centers)

    @property
    def count(self):
        return self.masses.size

    def to_json_dict(self):
        return {
            "n": self.n,
            "masses": [
                {"a": float(a), "c": [float(v) for v in c]}
                for a, c in zip(self.masses, self.centers)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj):
        try:
            n = obj["n"]
            entries = obj["masses"]
            masses = [e["a"] for e in entries]
            centers = [e["c"] for e in entries]
        except (KeyError, TypeError) as exc:
            raise DomainError("malformed measure object: %s" % exc) from exc
        if len(entries) == 0:
            raise DomainError("measure must carry at least one mass")
        return cls(n, as_floats(masses, "masses"), as_floats(centers, "centers"))


def measure_from_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError("invalid measure JSON: %s" % exc) from exc
    return PointMassMeasure.from_json_dict(obj)


def measure_to_json(nu):
    return json.dumps(nu.to_json_dict(), sort_keys=True)


def total_variation(nu):
    # correctly rounded, so cell-exact mass identities survive the sum
    return math.fsum(nu.masses)


def merge_duplicate_centers(nu):
    """Sum masses sharing exactly equal centers; output in lexicographic
    center order (delta measures at one point add)."""
    order = np.lexsort(nu.centers.T[::-1])
    centers = nu.centers[order]
    masses = nu.masses[order]
    keep_centers = [centers[0]]
    keep_masses = [masses[0]]
    for c, a in zip(centers[1:], masses[1:]):
        if np.array_equal(c, keep_centers[-1]):
            keep_masses[-1] = keep_masses[-1] + a
        else:
            keep_centers.append(c)
            keep_masses.append(a)
    return PointMassMeasure(nu.n, np.array(keep_masses), np.array(keep_centers))


def kernel_tiles(spec, nu, points):
    """(mass slice, r2, K) over tiles of masses, for a batch of points.

    r2 = |x - c_k|^2 is formed once per (point, mass) pair, one coordinate
    at a time, and K is derived from it. The arrays are (tile, points): one
    row per mass, so sums over masses run down the first axis, vectorised
    over the points. A tile holds PAIR_BUDGET // points masses (at least
    one), so memory stays bounded whatever the number of masses. No pole
    checks: pairs at a pole carry inf or nan.
    """
    cols = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    width = max(1, PAIR_BUDGET // max(cols.shape[1], 1))
    keep = {spec.i - 1, spec.j - 1}
    for start in range(0, nu.count, width):
        tile = slice(start, start + width)
        centers = nu.centers[tile]
        offsets = [None] * spec.n
        r2 = None
        for d in range(spec.n):
            diff = cols[d] - centers[:, d, None]
            if d in keep:
                offsets[d] = diff
                sq = diff * diff
            else:
                sq = np.multiply(diff, diff, out=diff)
            if r2 is None:
                r2 = sq
            else:
                r2 += sq
        yield tile, r2, kernels.kernel_from_r2(spec, offsets, r2)


def transform_many(spec, nu, points):
    """T nu at a batch of points, no pole checks (callers mask poles)."""
    total = np.zeros(np.shape(points)[0])
    for tile, _, vals in kernel_tiles(spec, nu, points):
        vals *= nu.masses[tile, None]
        total += vals.sum(axis=0)
    return total


def _off_poles(spec, nu, x):
    """(x, |x - c_k|) for a point x farther than POLE_RADIUS from every c_k."""
    kernels.check_dimension(spec, nu)
    x = as_point(x, spec.n)
    dists = np.linalg.norm(nu.centers - x, axis=1)
    if np.min(dists) <= POLE_RADIUS:
        raise PoleError("evaluation point within %g of a mass center" % POLE_RADIUS)
    return x, dists


def eval_transform(spec, nu, x):
    """T nu(x) = sum a_k K(x - c_k); x must avoid every pole."""
    x, _ = _off_poles(spec, nu, x)
    return float(transform_many(spec, nu, x[None, :])[0])


def eval_max_truncation(spec, nu, x):
    """T^# nu(x): sup over truncation radii of |sum_{|x-c_k|>eps} a_k K(x-c_k)|.

    For finitely many masses this is the max over the N+1 partial sums taken
    in order of decreasing distance, with equal distances entering together.
    """
    x, dists = _off_poles(spec, nu, x)
    terms = nu.masses * kernels.kernel_values(spec, x[None, :] - nu.centers)
    order = np.argsort(-dists, kind="stable")
    d_sorted = dists[order]
    sums = np.cumsum(terms[order])
    best = 0.0
    for idx in range(nu.count):
        if idx == nu.count - 1 or d_sorted[idx + 1] != d_sorted[idx]:
            best = max(best, abs(float(sums[idx])))
    return best
