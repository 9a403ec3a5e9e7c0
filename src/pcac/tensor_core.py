"""Sparse voxel tensors: canonical coordinate ordering, hashing, multiscale pyramid.

Coordinates are integer (N, 3) arrays. The canonical order everywhere is
lexicographic (x, y, z); both the coder and the network iterate points in
this order, which is what makes encode/decode deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateCoordinate, EmptyGeometry, OutOfRange, ShapeMismatch

# Coordinates are packed into a single int64 key for sorting / hashing:
# COORD_BITS + 1 bits per component, biased by 2**COORD_BITS, so each
# component must lie in [-2**COORD_BITS, 2**COORD_BITS).
COORD_BITS = 20
_BIAS = 1 << COORD_BITS
_FIELD = COORD_BITS + 1


def _outside(c: np.ndarray) -> bool:
    return c.size > 0 and (c.min() < -_BIAS or c.max() >= _BIAS)


def _keys(c: np.ndarray) -> np.ndarray:
    b = c + _BIAS
    return (b[:, 0] << 2 * _FIELD) | (b[:, 1] << _FIELD) | b[:, 2]


def pack_coords(coords: np.ndarray) -> np.ndarray:
    """Pack (N,3) int coords into sortable int64 keys (lexicographic order).

    A component outside [-2**COORD_BITS, 2**COORD_BITS) raises OutOfRange.
    """
    c = np.asarray(coords, dtype=np.int64)
    if _outside(c):
        raise OutOfRange(f"coordinates outside [-2^{COORD_BITS}, "
                         f"2^{COORD_BITS})")
    return _keys(c)


def sorted_runs(coords: np.ndarray):
    """(order, first): the stable permutation that puts coords in canonical
    lexicographic order, and a mask over the sorted coords that is True at
    the first of each run of equal coordinates."""
    keys = pack_coords(coords)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return order, first


def sort_coords(coords: np.ndarray) -> np.ndarray:
    """Permutation that puts coords in canonical lexicographic order."""
    return sorted_runs(coords)[0]


class CoordIndex:
    """Coordinate -> row lookup over a sorted coordinate array.

    Lookup is vectorized via searchsorted on packed keys; misses map to -1.
    """

    def __init__(self, sorted_coords: np.ndarray):
        self.keys = pack_coords(sorted_coords)

    def lookup(self, coords: np.ndarray) -> np.ndarray:
        """Row indices of `coords` (or -1 where absent)."""
        if len(self.keys) == 0:
            return np.full(len(coords), -1, dtype=np.int64)
        c = np.asarray(coords, dtype=np.int64)
        q = _keys(c)
        if _outside(c):
            # no indexed coordinate is out of range; -1 is below every key
            q[((c < -_BIAS) | (c >= _BIAS)).any(axis=1)] = -1
        pos = np.searchsorted(self.keys, q)
        pos = np.minimum(pos, len(self.keys) - 1)
        hit = self.keys[pos] == q
        return np.where(hit, pos, -1)


@dataclass
class SparseTensor:
    """Sorted unique voxel coordinates with one feature row per coordinate."""

    coords: np.ndarray  # (N, 3) int64, strictly lexicographically increasing
    features: np.ndarray  # (N, C) float64

    def __len__(self):
        return len(self.coords)


def build_sparse_tensor(coords, features) -> SparseTensor:
    """Canonicalize (sort, validate) raw coordinate/feature arrays.

    Raises DuplicateCoordinate on repeated coords.
    """
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    if len(features) != len(coords):
        raise ShapeMismatch(
            f"{len(features)} feature rows for {len(coords)} coordinates")
    perm, first = sorted_runs(coords)
    coords = coords[perm]
    _reject_duplicates(first, coords)
    return SparseTensor(coords, features[perm])


def _reject_duplicates(first: np.ndarray, sorted_coords: np.ndarray):
    """Raise DuplicateCoordinate if `sorted_coords`, whose runs `first`
    marks, hold a coordinate twice."""
    if not first.all():
        coord = tuple(sorted_coords[int(np.argmin(first))].tolist())
        raise DuplicateCoordinate(f"duplicate coordinate {coord}")


def downsample_coords(coords: np.ndarray, stride: int) -> np.ndarray:
    """Unique parent coordinates at stride 2*stride (floor division, sorted)."""
    c = np.asarray(coords, dtype=np.int64)
    s2 = 2 * stride
    parents = (c // s2) * s2  # floor division: correct for negatives
    order, first = sorted_runs(parents)
    return parents[order][first]


@dataclass
class ScalePyramid:
    """Per-level coordinate sets and their indexes, from geometry alone."""

    coords: list  # coords[n]: (N_n, 3) sorted, at stride 2**n
    indexes: list  # CoordIndex per level

    def stride(self, level: int) -> int:
        return 1 << level


def build_pyramid(geometry: np.ndarray, num_levels: int = 3) -> ScalePyramid:
    """Build the multiscale coordinate pyramid from level-0 geometry.

    Level n is the n-fold stride-2 downsampling of level 0. The pyramid is a
    pure function of the geometry, so encoder and decoder always agree on it.
    A repeated level-0 coordinate raises DuplicateCoordinate: a sparse conv
    needs each point once.
    """
    geometry = np.asarray(geometry, dtype=np.int64).reshape(-1, 3)
    if len(geometry) == 0:
        raise EmptyGeometry("cannot build a pyramid from empty geometry")
    order, first = sorted_runs(geometry)
    level0 = geometry[order]
    _reject_duplicates(first, level0)
    coords = [level0]
    for n in range(num_levels):
        coords.append(downsample_coords(coords[-1], 1 << n))
    return ScalePyramid(coords, [CoordIndex(c) for c in coords])
