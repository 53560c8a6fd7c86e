"""Dyadic Whitney decomposition and the good/bad/point-mass splitting.

Open sets are finite unions of half-open level-L dyadic cells, so every
distance, containment, and measure statement is checked in exact integer
arithmetic on the level-max_depth lattice.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_floats, as_int, as_ints, as_positive, as_positive_int
from .measures import PointMassMeasure, _row_ids

_MAX_FINE_CELLS = 1 << 22
_SLICE_OPS = 1 << 23


@dataclass(frozen=True)
class DyadicCube:
    """Half-open cube prod_i [m_i 2^-k, (m_i + 1) 2^-k): a grid's box."""

    level: int
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "level", as_int(self.level, "cube level"))
        coords = tuple(as_int(c, "cube coordinate") for c in self.coords)
        if len(coords) < 1:
            raise DomainError("cube needs at least one coordinate")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self):
        return len(self.coords)

    @property
    def side(self):
        return 2.0 ** (-self.level)

    def to_json_dict(self):
        return {"level": self.level, "coords": list(self.coords)}

    @staticmethod
    def from_json_dict(doc):
        try:
            return DyadicCube(doc["level"], tuple(doc["coords"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError("malformed cube document: %s" % exc) from exc


@dataclass(frozen=True, eq=False)
class CellUnion:
    """Finite union of half-open level-`level` cells.

    cells is a read-only int64 (count, n) table of cell coordinates, unique
    rows in lexicographic order; any table or nested list of integers in.
    """

    n: int
    level: int
    cells: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", as_positive_int(self.n, "dimension"))
        object.__setattr__(self, "level", as_int(self.level, "cell level"))
        cells = as_ints(self.cells, "cell coordinate")
        if cells.shape == (0,):
            cells = cells.reshape(0, self.n)
        if cells.ndim != 2 or cells.shape[1] != self.n:
            raise DomainError("every cell needs exactly n coordinates")
        cells = cells[_row_ids(cells)[1]]
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def count(self):
        return len(self.cells)

    @property
    def measure(self):
        return self.count * 2.0 ** (-self.level * self.n)

    def to_json_dict(self):
        return {
            "n": self.n,
            "L": self.level,
            "cells": self.cells.tolist(),
        }

    @staticmethod
    def from_json_dict(doc):
        try:
            return CellUnion(doc["n"], doc["L"], doc["cells"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError("malformed cell-set document: %s" % exc) from exc


def cells_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError("cell-set input is not valid JSON: %s" % exc) from exc
    return CellUnion.from_json_dict(doc)


def cells_to_json(union):
    return json.dumps(union.to_json_dict(), sort_keys=True)


def _rows_lookup(table, rows):
    """How many times each of `rows` appears in `table` (both int64 (m, k))."""
    ids, first = _row_ids(np.concatenate([table, rows]))
    counts = np.bincount(ids[: len(table)], minlength=len(first))
    return counts[ids[len(table):]]


def _check_depth(max_depth, level):
    # below 2^62 in size, so max_depth and every level near it fit in int64
    max_depth = as_int(max_depth, "max_depth")
    if max_depth < level or abs(max_depth) >= 1 << 62:
        raise DomainError("max_depth must be an integer >= the cell level, below 2^62")
    return max_depth


def _fine_distances(union, max_depth):
    """Fine-lattice corners and exact squared distances to the complement.

    Works on the level-max_depth lattice: each fine cell's squared euclidean
    distance to the complement of U is an integer there, realized against the
    layer of complement cells touching U (any shortest segment to the
    complement first crosses that layer).
    """
    n, level, cells, count = union.n, union.level, union.cells, union.count
    # the shift alone is refused before a huge one is taken
    shift = n * (max_depth - level)
    if shift >= _MAX_FINE_CELLS.bit_length() or count << shift > _MAX_FINE_CELLS:
        raise DomainError(
            "refinement too large: %d cells at depth %d exceed the %d fine-cell cap"
            % (count, max_depth, _MAX_FINE_CELLS)
        )
    scale = 1 << (max_depth - level)

    # in Python integers, before any int64 product can wrap: no lattice value
    # below exceeds (|cell| + 2) * scale in size
    extent = (max(-int(cells.min()), int(cells.max())) + 2) * scale
    if n * (2 * extent) ** 2 >= 1 << 53:
        raise DomainError("cell coordinates too large for exact arithmetic")

    # the complement cells touching U: U's cells moved by the 3^n offsets,
    # deduplicated, less U itself
    offsets = np.indices((3,) * n, dtype=np.int64).reshape(n, -1).T - 1
    ring = (cells[:, None, :] + offsets).reshape(-1, n)
    ring = ring[_row_ids(ring)[1]]
    lows = ring[_rows_lookup(cells, ring) == 0] * scale
    highs = lows + scale

    mesh = np.stack(
        np.meshgrid(*([np.arange(scale, dtype=np.int64)] * n), indexing="ij"),
        axis=-1,
    ).reshape(-1, n)
    block = max(1, _SLICE_OPS // max(1, len(lows)))

    corners = np.empty((count * scale**n, n), dtype=np.int64)
    d2 = np.empty(count * scale**n, dtype=np.int64)
    row = 0
    for base in cells * scale:
        for start in range(0, len(mesh), block):
            pts = base + mesh[start : start + block]
            g1 = lows[None, :, :] - pts[:, None, :] - 1
            g2 = pts[:, None, :] - highs[None, :, :]
            g = np.maximum(np.maximum(g1, g2), 0)
            dist = np.min(np.sum(g * g, axis=2), axis=1)
            corners[row : row + len(pts)] = pts
            d2[row : row + len(pts)] = dist
            row += len(pts)
    return corners, d2


def whitney_decompose(union, max_depth):
    """Split U into maximal dyadic cubes comparable to their boundary distance.

    Returns (cubes, residual), two read-only int64 tables in lexicographic
    row order. Each row (k, m_1 .. m_n) of cubes is a disjoint dyadic cube
    passing (2n - 1) diam(Q) <= dist(Q, complement of U) in integer
    arithmetic; each row (m_1 .. m_n) of residual is a level-max_depth cell
    whose boundary distance falls below the finest window. Together they
    tile U exactly.
    """
    if union.count == 0:
        raise DomainError("cannot decompose an empty set")
    max_depth = _check_depth(max_depth, union.level)
    n = union.n
    corners, d2 = _fine_distances(union, max_depth)

    # window k holds boundary distances in [2n sqrt(n) 2^-k, 4n sqrt(n) 2^-k);
    # in fine units (level m = max_depth) that is 4 n^3 4^(m-k) <= d2 <
    # 4 n^3 4^(m-k+1), so k is read off the binary length of d2 // (4 n^3)
    q = d2 // (4 * n**3)
    residual_mask = q == 0
    fine = corners[~residual_mask]
    fine_d2 = d2[~residual_mask]
    _, exponent = np.frexp(q[~residual_mask].astype(np.float64))
    levels = max_depth - (exponent.astype(np.int64) - 1) // 2

    # each fine cell's window names a candidate cube; a maximal cube is the
    # coarsest candidate holding some fine cell, so walk the levels coarse
    # first and give each unassigned cell (level max_depth + 1) the first
    # candidate that holds it
    cube_levels = np.full(len(fine), max_depth + 1)
    for k in np.unique(levels):
        shift = max_depth - k
        rows = np.flatnonzero(cube_levels > max_depth)
        rows = rows[_rows_lookup(fine[levels == k] >> shift, fine[rows] >> shift) > 0]
        cube_levels[rows] = k

    # exact verification: every fine cell has a cube, each cube holds all of
    # its fine cells (so it lies in U), and the separation inequality holds
    if np.any(cube_levels > max_depth):
        raise RuntimeError("whitney construction failed to cover a cell")
    shift = max_depth - cube_levels
    keys = np.concatenate([cube_levels[:, None], fine >> shift[:, None]], axis=1)
    ids, first = _row_ids(keys)
    keys = keys[first]
    counts = np.bincount(ids)
    min_d2 = np.full(len(keys), np.iinfo(np.int64).max)
    np.minimum.at(min_d2, ids, fine_d2)
    shift = max_depth - keys[:, 0]
    # clamped so the shift cannot wrap: no cube holds 2^62 fine cells
    if np.any(counts != 1 << np.minimum(n * shift, 62)):
        raise RuntimeError("whitney cube escapes the input set")
    if np.any((2 * n - 1) ** 2 * n << (2 * shift) > min_d2):
        raise RuntimeError("whitney separation violated")

    residual = corners[residual_mask]
    residual = residual[np.lexsort(residual.T[::-1])]
    keys.flags.writeable = False
    residual.flags.writeable = False
    return keys, residual


class GridFunction:
    """Nonnegative piecewise-constant function on the level-L cells of a box."""

    def __init__(self, level, box, values):
        if not isinstance(box, DyadicCube):
            raise DomainError("bounding box must be a dyadic cube")
        level = as_int(level, "grid level")
        # 2^-1074 <= 2^(-n L) < 2^1024: the cell volume is a positive double
        if not -1074 <= -level * box.n <= 1023:
            raise DomainError(
                "grid level %d: cell volume 2^%d is not a finite positive double"
                % (level, -level * box.n)
            )
        # a box of 2^63 or more cells could never be given its values
        if not 0 <= (level - box.level) * box.n < 63:
            raise DomainError("grid level must be >= the box level (< 2^63 cells)")
        side = 1 << (level - box.level)
        # absolute cell coordinates become int64 rows downstream
        corner = [c * side for c in box.coords]
        as_ints(corner + [c + side - 1 for c in corner], "grid cell coordinate")
        shape = (side,) * box.n
        values = np.asarray(values, dtype=float)
        if values.size != side**box.n:
            raise DomainError(
                "expected %d cell values, got %d" % (side**box.n, values.size)
            )
        values = values.reshape(shape).copy()
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise DomainError("cell values must be finite and nonnegative")
        values.flags.writeable = False
        self.level = level
        self.box = box
        self.values = values

    @property
    def n(self):
        return self.box.n

    @property
    def cell_volume(self):
        return 2.0 ** (-self.level * self.n)

    @property
    def origin(self):
        """Absolute level-`level` coordinates of the box corner."""
        shift = self.level - self.box.level
        return tuple(c << shift for c in self.box.coords)

    @property
    def l1_norm(self):
        # cell volumes are powers of two, so this sum is correctly rounded
        return math.fsum(self.values.ravel()) * self.cell_volume

    @property
    def sup_norm(self):
        return float(np.max(self.values))

    def refined_values(self, level):
        """Cell values re-expressed on the finer level-`level` lattice."""
        if level < self.level:
            raise DomainError("refinement level must be >= the grid level")
        out = self.values
        factor = 1 << (level - self.level)
        for axis in range(self.n):
            out = np.repeat(out, factor, axis=axis)
        return out

    def to_json_dict(self):
        return {
            "n": self.n,
            "L": self.level,
            "box": self.box.to_json_dict(),
            "values": [float(v) for v in self.values.ravel()],
        }

    @staticmethod
    def from_json_dict(doc):
        try:
            return GridFunction(
                doc["L"],
                DyadicCube.from_json_dict(doc["box"]),
                as_floats(doc["values"], "cell values"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError("malformed grid document: %s" % exc) from exc


def grid_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError("grid input is not valid JSON: %s" % exc) from exc
    return GridFunction.from_json_dict(doc)


def grid_to_json(f):
    return json.dumps(f.to_json_dict(), sort_keys=True)


def cells_above(f, threshold):
    """Level-L cells of the grid where the value strictly exceeds threshold."""
    origin = np.asarray(f.origin, dtype=np.int64)
    return CellUnion(f.n, f.level, np.argwhere(f.values > threshold) + origin)


@dataclass(frozen=True)
class CZDecomposition:
    """Good/bad split of a grid function f at a threshold.

    pieces is a read-only int64 table of cube rows (k, m_1 .. m_n): the
    Whitney cubes of {f > threshold}, then residual_count residual cells at
    max_depth. good is f off that set and each piece f on its cube;
    point_masses holds each piece's integral at its cube center, in row
    order (None when there is no piece).
    """

    threshold: float
    f: GridFunction
    pieces: np.ndarray
    residual_count: int
    point_masses: object

    @property
    def good(self):
        f = self.f
        return GridFunction(
            f.level, f.box, np.where(f.values > self.threshold, 0.0, f.values)
        )

    @property
    def residual_measure(self):
        # a count times a power of two, so exact
        r = self.residual_count
        return r * 2.0 ** (-self.f.n * int(self.pieces[-1, 0])) if r else 0.0

    @property
    def bad_l1(self):
        nu = self.point_masses
        return 0.0 if nu is None else math.fsum(nu.masses)

    def reconstruct(self, level=None):
        """Good plus f once per piece, as one dense value grid over the box.

        The pieces tile {f > threshold} and the good part vanishes there, so
        equality with the input is exact; a missing piece leaves a zero and
        a doubled one adds f twice.
        """
        f = self.f
        target = max([f.level] + self.pieces[:, 0].tolist())
        if level is not None:
            if level < target:
                raise DomainError("level too coarse for the finest piece")
            target = level
        values = f.refined_values(target)
        origin = np.asarray(f.origin, dtype=np.int64) << (target - f.level)
        cells = np.indices(values.shape, dtype=np.int64).reshape(f.n, -1).T + origin
        cover = np.zeros(len(cells), dtype=np.int64)
        levels = self.pieces[:, 0]
        for k in np.unique(levels):
            cover += _rows_lookup(self.pieces[levels == k, 1:], cells >> (target - k))
        cover = cover.reshape(values.shape)
        return GridFunction(
            target, f.box, self.good.refined_values(target) + cover * values
        )

    def to_json_dict(self):
        nu = self.point_masses
        first_residual = len(self.pieces) - self.residual_count
        pieces = [] if nu is None else [
            {
                "cube": {"level": row[0], "coords": row[1:]},
                "mass": float(a),
                "center": [float(x) for x in c],
                "residual": i >= first_residual,
            }
            for i, (row, a, c) in enumerate(
                zip(self.pieces.tolist(), nu.masses, nu.centers)
            )
        ]
        return {
            "lambda": self.threshold,
            "good": self.good.to_json_dict(),
            "pieces": pieces,
            "measure": {"n": self.f.n, "masses": []} if nu is None
            else nu.to_json_dict(),
            "residual_measure": self.residual_measure,
        }


def cz_decompose(f, threshold, max_depth):
    """Split f into a bounded good part and bad pieces on Whitney cubes.

    U = {f > threshold} as level-L cells; the good part is f off U; each
    Whitney cube (and each residual cell) of U carries one piece, and every
    piece's integral sits as a point mass at its cube's center.
    """
    lam = as_positive(threshold, "threshold")
    max_depth = _check_depth(max_depth, f.level)
    union = cells_above(f, lam)
    if union.count == 0:
        pieces = np.zeros((0, f.n + 1), dtype=np.int64)
        pieces.flags.writeable = False
        return CZDecomposition(lam, f, pieces, 0, None)
    cubes, residual = whitney_decompose(union, max_depth)
    depth = np.full((len(residual), 1), max_depth)
    pieces = np.concatenate([cubes, np.concatenate([depth, residual], axis=1)])
    pieces.flags.writeable = False

    # a cube inside one grid cell gets that cell's value times its volume; a
    # coarser cube, the exact sum over its block of cells times a cell volume
    k, m = pieces[:, 0], pieces[:, 1:]
    origin = np.asarray(f.origin, dtype=np.int64)
    inside = k >= f.level
    cell = (m[inside] >> (k[inside] - f.level)[:, None]) - origin
    masses = np.empty(len(pieces))
    masses[inside] = f.values[tuple(cell.T)] * np.ldexp(1.0, -f.n * k[inside])
    for i in np.flatnonzero(~inside):
        side = 1 << (f.level - int(k[i]))
        lo = ((m[i] << (f.level - int(k[i]))) - origin).tolist()
        block = f.values[tuple(slice(a, a + side) for a in lo)]
        masses[i] = math.fsum(block.ravel()) * f.cell_volume
    if not np.all(masses > 0.0):  # f > threshold > 0 on U: a volume underflowed
        raise DomainError("max_depth %d: level-%d piece masses underflow"
                          % (max_depth, int(k[np.argmin(masses > 0.0)])))
    centers = (m + 0.5) * np.ldexp(1.0, -k)[:, None]
    nu = PointMassMeasure(n=f.n, masses=masses, centers=centers)
    return CZDecomposition(lam, f, pieces, len(residual), nu)
