"""Dyadic Whitney decomposition and the good/bad/point-mass splitting.

Open sets are finite unions of half-open level-L dyadic cells, so every
distance, containment, and measure statement is checked in exact integer
arithmetic on the level-max_depth lattice.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_floats, as_int, as_positive
from .measures import PointMassMeasure

_MAX_FINE_CELLS = 1 << 22
_SLICE_OPS = 1 << 23


@dataclass(frozen=True)
class DyadicCube:
    """Half-open cube prod_i [m_i 2^-k, (m_i + 1) 2^-k) with integer data."""

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

    @property
    def diameter(self):
        return math.sqrt(self.n) * self.side

    @property
    def volume(self):
        return self.side**self.n

    @property
    def corner(self):
        return np.array(self.coords, dtype=float) * self.side

    @property
    def center(self):
        return (np.array(self.coords, dtype=float) + 0.5) * self.side

    def ancestor(self, level):
        """The containing cube at a coarser level."""
        if level > self.level:
            raise DomainError("ancestor level must not exceed the cube level")
        shift = self.level - level
        return DyadicCube(level, tuple(c >> shift for c in self.coords))

    def to_json_dict(self):
        return {"level": self.level, "coords": list(self.coords)}

    @staticmethod
    def from_json_dict(doc):
        try:
            return DyadicCube(doc["level"], tuple(doc["coords"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError("malformed cube document: %s" % exc) from exc


@dataclass(frozen=True)
class CellUnion:
    """Finite union of half-open level-`level` cells, kept sorted and unique."""

    n: int
    level: int
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n, "dimension"))
        object.__setattr__(self, "level", as_int(self.level, "cell level"))
        if self.n < 1:
            raise DomainError("dimension must be a positive integer")
        cells = sorted(
            {tuple(as_int(x, "cell coordinate") for x in c) for c in self.cells}
        )
        if any(len(c) != self.n for c in cells):
            raise DomainError("every cell needs exactly n coordinates")
        object.__setattr__(self, "cells", tuple(cells))

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
            "cells": [list(c) for c in self.cells],
        }

    @staticmethod
    def from_json_dict(doc):
        try:
            return CellUnion(doc["n"], doc["L"], tuple(doc["cells"]))
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
    """Boolean mask of which `rows` appear in `table` (both int64 (m, k))."""
    if len(table) == 0 or len(rows) == 0:
        return np.zeros(len(rows), dtype=bool)
    comb = np.concatenate([table, rows])
    _, inverse = np.unique(comb, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    hit = np.zeros(inverse.max() + 1, dtype=bool)
    hit[inverse[: len(table)]] = True
    return hit[inverse[len(table):]]


def _fine_distances(union, max_depth):
    """Fine-lattice corners and exact squared distances to the complement.

    Works on the level-max_depth lattice: each fine cell's squared euclidean
    distance to the complement of U is an integer there, realized against the
    layer of complement cells touching U (any shortest segment to the
    complement first crosses that layer).
    """
    n, level = union.n, union.level
    scale = 1 << (max_depth - level)
    count = union.count
    if count * scale**n > _MAX_FINE_CELLS:
        raise DomainError(
            "refinement too large: %d fine cells exceeds the %d cap"
            % (count * scale**n, _MAX_FINE_CELLS)
        )

    cellset = set(union.cells)
    layer = sorted(
        {
            tuple(c + o for c, o in zip(cell, offset))
            for cell in union.cells
            for offset in itertools.product((-1, 0, 1), repeat=n)
        }
        - cellset
    )
    lows = np.asarray(layer, dtype=np.int64) * scale
    highs = lows + scale

    extent = max(
        abs(int(v)) + 1 for cell in union.cells + tuple(layer) for v in cell
    ) * scale
    if n * (2 * extent) ** 2 >= 1 << 53:
        raise DomainError("cell coordinates too large for exact arithmetic")

    mesh = np.stack(
        np.meshgrid(*([np.arange(scale, dtype=np.int64)] * n), indexing="ij"),
        axis=-1,
    ).reshape(-1, n)
    block = max(1, _SLICE_OPS // max(1, len(layer)))

    corners = np.empty((count * scale**n, n), dtype=np.int64)
    d2 = np.empty(count * scale**n, dtype=np.int64)
    row = 0
    for cell in union.cells:
        base = np.asarray(cell, dtype=np.int64) * scale
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

    Returns (cubes, residual): a sorted list of disjoint DyadicCubes, each
    passing (2n - 1) diam(Q) <= dist(Q, complement of U) in integer
    arithmetic, and a read-only int64 (count, n) array, in lexicographic row
    order, of the level-max_depth cells whose boundary distance falls below
    the finest window. Together they tile U exactly.
    """
    if union.count == 0:
        raise DomainError("cannot decompose an empty set")
    max_depth = as_int(max_depth, "max_depth")
    if max_depth < union.level:
        raise DomainError("max_depth must be an integer >= the cell level")
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
        rows = rows[_rows_lookup(fine[levels == k] >> shift, fine[rows] >> shift)]
        cube_levels[rows] = k

    # exact verification: every fine cell has a cube, each cube holds all of
    # its fine cells (so it lies in U), and the separation inequality holds
    if np.any(cube_levels > max_depth):
        raise RuntimeError("whitney construction failed to cover a cell")
    shift = max_depth - cube_levels
    keys = np.concatenate([cube_levels[:, None], fine >> shift[:, None]], axis=1)
    keys, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                      return_counts=True)
    min_d2 = np.full(len(keys), np.iinfo(np.int64).max)
    np.minimum.at(min_d2, inverse.reshape(-1), fine_d2)
    shift = max_depth - keys[:, 0]
    # clamped so the shift cannot wrap: no cube holds 2^62 fine cells
    if np.any(counts != 1 << np.minimum(n * shift, 62)):
        raise RuntimeError("whitney cube escapes the input set")
    if np.any((2 * n - 1) ** 2 * n << (2 * shift) > min_d2):
        raise RuntimeError("whitney separation violated")

    cubes = [DyadicCube(row[0], tuple(row[1:])) for row in keys.tolist()]
    residual = corners[residual_mask]
    residual = residual[np.lexsort(residual.T[::-1])]
    residual.flags.writeable = False
    return cubes, residual


class GridFunction:
    """Nonnegative piecewise-constant function on the level-L cells of a box."""

    def __init__(self, level, box, values):
        if not isinstance(box, DyadicCube):
            raise DomainError("bounding box must be a dyadic cube")
        level = as_int(level, "grid level")
        if level < box.level:
            raise DomainError("grid level must be >= the box level")
        side = 1 << (level - box.level)
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
    idx = np.argwhere(f.values > threshold)
    origin = np.asarray(f.origin, dtype=np.int64)
    return CellUnion(
        f.n, f.level, tuple(tuple(int(x) for x in origin + row) for row in idx)
    )


@dataclass(frozen=True)
class CZPiece:
    """One bad piece: the function restricted to a single Whitney cube."""

    cube: DyadicCube
    part: GridFunction
    mass: float
    center: tuple
    residual: bool


@dataclass(frozen=True)
class CZDecomposition:
    """Good/bad split of a grid function at a threshold.

    good carries the function off {f > threshold}; each piece is the function
    on one Whitney cube of that set (or on one residual cell, flagged); the
    point-mass measure holds each piece's integral at its cube center.
    """

    threshold: float
    good: GridFunction
    pieces: tuple
    point_masses: object
    residual_cells: tuple
    residual_measure: float

    @property
    def bad_l1(self):
        return math.fsum(p.mass for p in self.pieces)

    def reconstruct(self, level=None):
        """Good plus all pieces, as one dense value grid over the box.

        The pieces tile {f > threshold} and the good part vanishes there, so
        each output cell is written exactly once and equality with the input
        is exact.
        """
        f = self.good
        target = max([f.level] + [p.part.level for p in self.pieces])
        if level is not None:
            if level < target:
                raise DomainError("level too coarse for the finest piece")
            target = level
        out = f.refined_values(target)
        shift = target - f.level
        origin = np.asarray(f.origin, dtype=np.int64) << shift
        for p in self.pieces:
            vals = p.part.refined_values(target)
            lo = (
                np.asarray(p.cube.coords, dtype=np.int64)
                << (target - p.cube.level)
            ) - origin
            sel = tuple(
                slice(int(l), int(l) + s) for l, s in zip(lo, vals.shape)
            )
            out[sel] = vals
        return GridFunction(target, f.box, out)

    def to_json_dict(self):
        nu = self.point_masses
        measure_doc = (
            nu.to_json_dict()
            if nu is not None
            else {"n": self.good.n, "masses": []}
        )
        return {
            "lambda": self.threshold,
            "good": self.good.to_json_dict(),
            "pieces": [
                {
                    "cube": p.cube.to_json_dict(),
                    "mass": p.mass,
                    "center": [float(x) for x in p.center],
                    "residual": p.residual,
                }
                for p in self.pieces
            ],
            "measure": measure_doc,
            "residual_measure": self.residual_measure,
        }


def _piece_for_cube(f, cube, residual):
    k = cube.level
    level = f.level
    origin = np.asarray(f.origin, dtype=np.int64)
    if k <= level:
        lo = (np.asarray(cube.coords, dtype=np.int64) << (level - k)) - origin
        side = 1 << (level - k)
        sel = tuple(slice(int(l), int(l) + side) for l in lo)
        vals = f.values[sel]
        part = GridFunction(level, cube, vals)
    else:
        anc = tuple(c >> (k - level) for c in cube.coords)
        idx = tuple(int(a - o) for a, o in zip(anc, origin))
        part = GridFunction(k, cube, np.full((1,) * f.n, f.values[idx]))
    mass = part.l1_norm
    center = tuple(float(x) for x in cube.center)
    return CZPiece(cube, part, mass, center, residual)


def cz_decompose(f, threshold, max_depth):
    """Split f into a bounded good part and bad pieces on Whitney cubes.

    U = {f > threshold} as level-L cells; the good part is f off U; each
    Whitney cube (and each residual cell) of U carries one piece, and every
    piece's integral sits as a point mass at its cube's center.
    """
    lam = as_positive(threshold, "threshold")
    union = cells_above(f, lam)
    if union.count == 0:
        return CZDecomposition(lam, f, (), None, (), 0.0)
    cubes, residual = whitney_decompose(union, max_depth)

    good_values = np.where(f.values > lam, 0.0, f.values)
    good = GridFunction(f.level, f.box, good_values)

    cells = tuple(DyadicCube(max_depth, tuple(r)) for r in residual.tolist())
    pieces = [_piece_for_cube(f, cube, False) for cube in cubes]
    pieces.extend(_piece_for_cube(f, cell, True) for cell in cells)

    nu = PointMassMeasure(
        n=f.n,
        masses=np.array([p.mass for p in pieces]),
        centers=np.array([p.center for p in pieces]),
    )
    # a count times a power of two, so exact
    residual_measure = len(residual) * 2.0 ** (-f.n * max_depth)
    return CZDecomposition(lam, good, tuple(pieces), nu, cells, residual_measure)
