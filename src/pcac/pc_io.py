"""PLY I/O, voxelization, and 64-aligned block partitioning."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (EmptyGeometry, MalformedHeader, MissingProperty,
                     OutOfRange, SymbolOutOfRange, UnsupportedFormat)
from .tensor_core import COORD_BITS, SparseTensor, sorted_runs

_PLY_DTYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}
_RGB = ("red", "green", "blue")


@dataclass
class PointCloud:
    positions: np.ndarray  # (N, 3)
    colors: np.ndarray  # (N, 3) ints in 0..255; (N, 0) for xyz-only files

    def __len__(self):
        return len(self.positions)


def _parse_ply_header(f):
    if f.readline().strip() != b"ply":
        raise MalformedHeader("missing 'ply' magic line")
    fmt = None
    elements = []  # (name, count, [(prop_name, dtype_code)])
    while True:
        line = f.readline()
        if not line:
            raise MalformedHeader("header ended before end_header")
        tokens = line.decode("ascii", "replace").split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if len(tokens) < 2:
                raise MalformedHeader(f"bad format line {line!r}")
            fmt = tokens[1]
        elif tokens[0] == "element":
            if len(tokens) != 3 or not tokens[2].isdigit():
                raise MalformedHeader(f"bad element line {line!r}")
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if not elements:
                raise MalformedHeader("property before any element")
            if len(tokens) < 3 or (tokens[1] == "list" and len(tokens) < 5):
                raise MalformedHeader(f"bad property line {line!r}")
            if any(tokens[-1] == p[0] for p in elements[-1][2]):
                raise MalformedHeader(
                    f"property {tokens[-1]!r} repeated in {elements[-1][0]!r}")
            if tokens[1] == "list":
                elements[-1][2].append((tokens[-1], ("list", tokens[2], tokens[3])))
            else:
                if tokens[1] not in _PLY_DTYPES:
                    raise MalformedHeader(f"unknown property type {tokens[1]}")
                elements[-1][2].append((tokens[-1], _PLY_DTYPES[tokens[1]]))
        elif tokens[0] == "end_header":
            break
    if fmt == "binary_big_endian":
        raise UnsupportedFormat("binary_big_endian PLY is not supported")
    if fmt not in ("ascii", "binary_little_endian"):
        raise MalformedHeader(f"unknown format {fmt!r}")
    return fmt, elements


def _read_cloud(path, required) -> PointCloud:
    """x,y,z + red,green,blue from an ascii or little-endian binary PLY, with
    no colour columns if the file has none; MissingProperty if one of the
    `required` properties is absent."""
    with open(path, "rb") as f:
        fmt, elements = _parse_ply_header(f)
        vertex = next((e for e in elements if e[0] == "vertex"), None)
        if vertex is None:
            raise MalformedHeader("no vertex element")
        name, count, props = vertex
        names = [p[0] for p in props]
        for prop in required:
            if prop not in names:
                raise MissingProperty(f"vertex property {prop!r} missing")
        if any(isinstance(p[1], tuple) for p in props):
            raise UnsupportedFormat("list property on the vertex element")
        if elements[0][0] != "vertex":
            raise UnsupportedFormat("vertex is not the first element")
        if fmt == "ascii":
            rows = []
            for row in range(count):
                parts = f.readline().split()
                if len(parts) < len(props):
                    raise MalformedHeader("short vertex row")
                try:
                    rows.append([float(v) for v in parts[:len(props)]])
                except ValueError:
                    raise MalformedHeader(
                        f"vertex row {row} holds a non-numeric value") from None
            table = {n: np.array([r[i] for r in rows])
                     for i, n in enumerate(names)}
        else:
            dtype = np.dtype([(n, "<" + code) for n, code in props])
            # checked against the file's size before reading, so a count
            # too large for one read is no different from a cut file
            left = os.fstat(f.fileno()).st_size - f.tell()
            if left < dtype.itemsize * count:
                raise MalformedHeader(
                    f"file ends after {left // dtype.itemsize} of "
                    f"{count} vertices")
            raw = np.frombuffer(f.read(dtype.itemsize * count), dtype=dtype,
                                count=count)
            table = {n: raw[n].astype(np.float64) for n in names}
    positions = np.stack([table["x"], table["y"], table["z"]], axis=1)
    if not all(c in table for c in _RGB):
        return PointCloud(positions, np.empty((count, 0)))
    colors = np.stack([table[c] for c in _RGB], axis=1)
    if not np.all(np.isfinite(colors) & (np.floor(colors) == colors)):
        raise SymbolOutOfRange("colour values must be integers")
    return PointCloud(positions, colors.astype(np.int64))


def read_ply(path) -> PointCloud:
    """Read x,y,z + red,green,blue from an ascii or little-endian binary PLY."""
    return _read_cloud(path, ("x", "y", "z") + _RGB)


def load_blocks(path):
    """A PLY as 64-aligned blocks, voxelized at the smallest bit depth that
    holds its positions; OutOfRange if that is above COORD_BITS. Colours are
    optional, as a decoder needs geometry only; the blocks of a file without
    them raise MissingProperty on `rgb`."""
    pc = _read_cloud(path, ("x", "y", "z"))
    if not len(pc):
        raise EmptyGeometry(f"{path} has no points")
    if not np.all(np.isfinite(pc.positions)):
        raise OutOfRange(f"{path} holds a non-finite position")
    depth = max(1, int(np.ceil(np.log2(
        max(2.0, float(pc.positions.max()) + 1)))))
    return partition_blocks(voxelize(pc, depth))


def write_ply(pc: PointCloud, path, binary: bool = True):
    """Write positions + RGB; integer positions stay exact (float32 storage
    is exact for voxel grids up to 2^24)."""
    n = len(pc)
    header = ["ply",
              "format binary_little_endian 1.0" if binary else "format ascii 1.0",
              f"element vertex {n}",
              "property float x", "property float y", "property float z",
              "property uchar red", "property uchar green", "property uchar blue",
              "end_header"]
    pos = np.asarray(pc.positions, dtype=np.float32)
    col = np.asarray(pc.colors, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            rec = np.empty(n, dtype=[("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                                     ("r", "u1"), ("g", "u1"), ("b", "u1")])
            rec["x"], rec["y"], rec["z"] = pos[:, 0], pos[:, 1], pos[:, 2]
            rec["r"], rec["g"], rec["b"] = col[:, 0], col[:, 1], col[:, 2]
            f.write(rec.tobytes())
        else:
            # 9 significant digits give back any float32 exactly
            for i in range(n):
                f.write((f"{pos[i, 0]:.9g} {pos[i, 1]:.9g} {pos[i, 2]:.9g} "
                         f"{col[i, 0]} {col[i, 1]} {col[i, 2]}\n").encode())


def _round_half_away(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def voxelize(pc: PointCloud, bit_depth: int) -> SparseTensor:
    """Floor positions to the integer grid; merge duplicates by color mean.
    A cloud without points raises EmptyGeometry."""
    if bit_depth > COORD_BITS:
        raise OutOfRange(f"a bit depth of {bit_depth} is above the supported "
                         f"{COORD_BITS}")
    if not len(pc):
        raise EmptyGeometry("cannot voxelize a cloud without points")
    pos = np.asarray(pc.positions, dtype=np.float64)
    # written so that NaN, which fails every comparison, is outside too
    if not np.all((pos >= 0) & (pos < (1 << bit_depth))):
        raise OutOfRange(f"positions outside [0, 2^{bit_depth})")
    coords = np.floor(pos).astype(np.int64)
    colors = np.asarray(pc.colors, dtype=np.float64)
    order, first = sorted_runs(coords)
    coords, colors = coords[order], colors[order]
    group_id = np.cumsum(first) - 1
    n_groups = group_id[-1] + 1
    sums = np.zeros((n_groups, colors.shape[1]))
    np.add.at(sums, group_id, colors)
    counts = np.bincount(group_id, minlength=n_groups).astype(np.float64)
    means = _round_half_away(sums / counts[:, None])
    # coords[first] is sorted and unique already, as a SparseTensor needs
    return SparseTensor(coords[first], means)


@dataclass
class Block:
    origin: np.ndarray  # (3,) int, multiple of the block size
    tensor: SparseTensor  # local coords in [0, size)

    @property
    def rgb(self):
        """The block's colours; MissingProperty if its PLY had none."""
        if self.tensor.features.shape[1] != 3:
            raise MissingProperty("the PLY has no red, green and blue")
        return self.tensor.features


def partition_blocks(tensor: SparseTensor, size: int = 64):
    """Split a tensor into grid-aligned blocks, sorted by origin. A block's
    rows keep the tensor's order, so its local coords are sorted and unique
    as the tensor's are."""
    origins = (tensor.coords // size) * size
    order, first = sorted_runs(origins)
    bounds = np.flatnonzero(first).tolist() + [len(order)]
    blocks = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        rows = order[a:b]
        origin = origins[rows[0]]
        blocks.append(Block(origin, SparseTensor(tensor.coords[rows] - origin,
                                                 tensor.features[rows])))
    return blocks
