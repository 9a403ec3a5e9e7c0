import warnings

import numpy as np
import pytest

from pcac import pc_io
from pcac.errors import (EmptyGeometry, MalformedHeader, MissingProperty,
                         OutOfRange, SymbolOutOfRange, UnsupportedFormat)
from pcac.tensor_core import build_sparse_tensor


def make_cloud(rng, n=500, extent=100):
    pos = rng.integers(0, extent, size=(n, 3)).astype(np.float64)
    col = rng.integers(0, 256, size=(n, 3))
    return pc_io.PointCloud(pos, col)


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pc = make_cloud(rng)
    path = tmp_path / "cloud.ply"
    pc_io.write_ply(pc, path)
    back = pc_io.read_ply(path)
    np.testing.assert_array_equal(back.positions, pc.positions)
    np.testing.assert_array_equal(back.colors, pc.colors)


def test_ascii_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pc = make_cloud(rng, n=50)
    # positions inside COORD_BITS = 20 that need 7 significant digits: with
    # 6, 1048575 and 1000001 would come back as 1048580 and 1000000
    pc.positions[:2] = [[1048575, 1000001, 0], [1000000, 3, 1048574]]
    path = tmp_path / "cloud.ply"
    pc_io.write_ply(pc, path, binary=False)
    back = pc_io.read_ply(path)
    np.testing.assert_array_equal(back.positions, pc.positions)
    np.testing.assert_array_equal(back.colors, pc.colors)


def test_read_foreign_ascii_with_extra_properties(tmp_path):
    # extra per-vertex properties and comments must be tolerated
    path = tmp_path / "foreign.ply"
    path.write_text("\n".join([
        "ply", "format ascii 1.0", "comment made elsewhere",
        "element vertex 2",
        "property float x", "property float y", "property float z",
        "property float nx",
        "property uchar red", "property uchar green", "property uchar blue",
        "end_header",
        "1 2 3 0.5 10 20 30",
        "4 5 6 0.5 40 50 60",
    ]) + "\n")
    pc = pc_io.read_ply(path)
    assert pc.positions.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert pc.colors.tolist() == [[10, 20, 30], [40, 50, 60]]


def test_read_rejects_bad_files(tmp_path):
    def write(name, lines):
        p = tmp_path / name
        p.write_text("\n".join(lines) + "\n")
        return p

    with pytest.raises(MalformedHeader):
        pc_io.read_ply(write("a.ply", ["not a ply"]))
    with pytest.raises(MissingProperty):
        pc_io.read_ply(write("b.ply", [
            "ply", "format ascii 1.0", "element vertex 1",
            "property float x", "property float y", "property float z",
            "end_header", "0 0 0"]))
    with pytest.raises(UnsupportedFormat):
        pc_io.read_ply(write("c.ply", [
            "ply", "format binary_big_endian 1.0", "element vertex 0",
            "end_header"]))
    with pytest.raises(MalformedHeader):
        pc_io.read_ply(write("d.ply", [
            "ply", "format ascii 1.0", "element other 0", "end_header"]))
    header = ["ply", "format ascii 1.0", "element vertex 1",
              "property float x", "property float y", "property float z",
              "property uchar red", "property uchar green",
              "property uchar blue", "end_header"]
    with pytest.raises(MalformedHeader, match="non-numeric"):
        pc_io.read_ply(write("e.ply", header + ["1 2 z 3 4 5"]))
    for count in ("-1", "many"):
        with pytest.raises(MalformedHeader, match="element"):
            pc_io.read_ply(write("f.ply", [
                line.replace("vertex 1", f"vertex {count}") for line in header]))
    # header lines with too few tokens
    for short in (["format"], ["element vertex 1", "property"],
                  ["element vertex 1", "property list uchar"]):
        with pytest.raises(MalformedHeader, match="bad (format|property)"):
            pc_io.read_ply(write("h.ply", ["ply", *short, "end_header"]))
    binary = tmp_path / "g.ply"
    pc_io.write_ply(make_cloud(np.random.default_rng(2), n=40), binary)
    raw = binary.read_bytes()
    binary.write_bytes(raw[:len(raw) - 15 * 20])  # 20 of 40 vertices left
    with pytest.raises(MalformedHeader, match="20 of 40"):
        pc_io.read_ply(binary)
    # a count no read can hold is a cut file too
    binary.write_bytes(raw.replace(b"vertex 40", b"vertex 99999999999999999999"))
    with pytest.raises(MalformedHeader, match="40 of 99999999999999999999"):
        pc_io.read_ply(binary)
    # a property name repeated within one element, ascii and binary
    repeated = header[:6] + ["property float x"] + header[6:]
    with pytest.raises(MalformedHeader, match="repeated"):
        pc_io.read_ply(write("i.ply", repeated + ["1 2 3 4 5 6 7"]))
    binary.write_bytes(raw.replace(b"property float z", b"property float x"))
    with pytest.raises(MalformedHeader, match="repeated"):
        pc_io.read_ply(binary)
    # a colour that is not an integer is not silently truncated
    with pytest.raises(SymbolOutOfRange):
        pc_io.read_ply(write("j.ply", header + ["1 2 3 4.7 5 6"]))


def test_voxelize_merges_duplicates_with_mean():
    # [DERIVED] rounding is half away from zero: (10+21)/2 = 15.5 -> 16
    pc = pc_io.PointCloud(
        positions=np.array([[1.2, 1.7, 1.0], [1.9, 1.1, 1.4], [3.0, 3.0, 3.0]]),
        colors=np.array([[10, 10, 200], [20, 21, 201], [1, 2, 3]]))
    t = pc_io.voxelize(pc, 3)
    assert t.coords.tolist() == [[1, 1, 1], [3, 3, 3]]
    assert t.features[0].tolist() == [15.0, 16.0, 201.0]
    assert t.features[1].tolist() == [1.0, 2.0, 3.0]


def test_voxelize_rejects_an_empty_cloud():
    with pytest.raises(EmptyGeometry):
        pc_io.voxelize(pc_io.PointCloud(np.empty((0, 3)), np.empty((0, 3))), 3)


def test_voxelize_range_check():
    pc = pc_io.PointCloud(np.array([[8.0, 0, 0]]), np.array([[0, 0, 0]]))
    with pytest.raises(OutOfRange):
        pc_io.voxelize(pc, 3)
    with pytest.raises(OutOfRange):
        pc_io.voxelize(pc_io.PointCloud(np.array([[-0.1, 0, 0]]),
                                        np.array([[0, 0, 0]])), 3)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_position_raises_out_of_range(tmp_path, value):
    # NaN fails every comparison and inf overflows the bit depth: both are
    # out of range, in voxelize and in load_blocks (whose bit depth for
    # these points would otherwise be 1)
    path = tmp_path / "cloud.ply"
    path.write_text("\n".join([
        "ply", "format ascii 1.0", "element vertex 2",
        "property float x", "property float y", "property float z",
        "property uchar red", "property uchar green", "property uchar blue",
        "end_header", "1 1 1 4 5 6", f"{value} 0 0 4 5 6"]) + "\n")
    pc = pc_io.read_ply(path)
    with pytest.raises(OutOfRange):
        pc_io.voxelize(pc, 10)
    with pytest.raises(OutOfRange):
        pc_io.load_blocks(path)


@pytest.mark.parametrize("value", ["3000000", "1e30"])
def test_position_beyond_coordinate_range_raises_out_of_range(tmp_path,
                                                             value):
    # load_blocks derives a bit depth above COORD_BITS for these points and
    # rejects it before the int64 cast, which 1e30 would overflow (a
    # RuntimeWarning, an error here)
    path = tmp_path / "cloud.ply"
    path.write_text("\n".join([
        "ply", "format ascii 1.0", "element vertex 2",
        "property float x", "property float y", "property float z",
        "property uchar red", "property uchar green", "property uchar blue",
        "end_header", "0 0 0 4 5 6", f"{value} 0 0 4 5 6"]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="bit depth"):
            pc_io.load_blocks(path)


def test_bit_depth_beyond_coordinate_range_raises_out_of_range():
    # voxelize rejects the bit depth itself, before the int64 cast that
    # 1e30 would overflow (a RuntimeWarning, an error here)
    pc = pc_io.PointCloud(np.array([[1e30, 0, 0]]), np.zeros((1, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="bit depth"):
            pc_io.voxelize(pc, 110)


def test_binary_nan_position_raises_out_of_range(tmp_path):
    path = tmp_path / "cloud.ply"
    positions = np.array([[1.0, 1.0, 1.0], [np.nan, 0.0, 0.0]])
    pc_io.write_ply(pc_io.PointCloud(positions, np.zeros((2, 3))), path)
    pc = pc_io.read_ply(path)
    assert np.isnan(pc.positions[1, 0])
    with pytest.raises(OutOfRange):
        pc_io.voxelize(pc, 1)
    with pytest.raises(OutOfRange):
        pc_io.load_blocks(path)


def test_partition_blocks_covers_and_localizes():
    rng = np.random.default_rng(2)
    coords = np.unique(rng.integers(0, 200, size=(800, 3)), axis=0)
    t = build_sparse_tensor(coords, rng.integers(0, 256, size=(len(coords), 3)))
    blocks = pc_io.partition_blocks(t, 64)
    assert sum(len(b.tensor) for b in blocks) == len(t)
    for b in blocks:
        assert np.all(b.origin % 64 == 0)
        assert b.tensor.coords.min() >= 0 and b.tensor.coords.max() < 64
    # origin + local coords reassemble the input exactly
    back = build_sparse_tensor(
        np.concatenate([b.origin + b.tensor.coords for b in blocks]),
        np.concatenate([b.tensor.features for b in blocks]))
    np.testing.assert_array_equal(back.coords, t.coords)
    np.testing.assert_array_equal(back.features, t.features)


def assert_canonical(tensor):
    # a tensor made without build_sparse_tensor equals build_sparse_tensor
    # of itself: sorted, unique, int64 coords and float64 (N, C) features
    canon = build_sparse_tensor(tensor.coords, tensor.features)
    for got, expect in ((tensor.coords, canon.coords),
                        (tensor.features, canon.features)):
        assert got.dtype == expect.dtype and got.shape == expect.shape
        np.testing.assert_array_equal(got, expect)


def test_voxelize_and_partition_outputs_are_canonical():
    rng = np.random.default_rng(5)
    for trial in range(40):
        n = int(rng.integers(1, 300))
        depth = int(rng.integers(1, 9))
        pos = rng.uniform(0, 1 << depth, size=(n, 3))
        pos[: n // 4] = np.floor(pos[: n // 4])  # repeated voxels
        pos[n // 2: n // 2 + n // 4] = pos[: n // 4]
        colors = (rng.integers(0, 256, size=(n, 3)) if trial % 3
                  else np.empty((n, 0)))
        tensor = pc_io.voxelize(pc_io.PointCloud(pos, colors), depth)
        assert_canonical(tensor)
        size = int(rng.integers(1, (1 << depth) + 1))
        blocks = pc_io.partition_blocks(tensor, size)
        assert sum(len(b.tensor) for b in blocks) == len(tensor)
        for b in blocks:
            assert_canonical(b.tensor)


def test_partition_boundary_points():
    # [TRIVIAL] 63 stays in block 0, 64 starts block 1
    t = build_sparse_tensor([[63, 0, 0], [64, 0, 0]], [[1.0], [2.0]])
    blocks = pc_io.partition_blocks(t, 64)
    assert [b.origin.tolist() for b in blocks] == [[0, 0, 0], [64, 0, 0]]
    assert blocks[1].tensor.coords.tolist() == [[0, 0, 0]]
