"""Seeded byte-level fuzzing of the files the codec reads: a checkpoint and
binary and ASCII PLYs are cut, flipped and extended, and the readers may
only accept the result or raise a PcacError (which the CLI turns into exit
code 2). Anything else escaping is a bug."""

import numpy as np
import pytest

from pcac import cli, codec, pc_io
from pcac.errors import ModelMismatch, PcacError
from pcac.sparse_nn import ModelConfig


def unknown_compression(raw: bytes) -> bytes:
    """The archive with compression method 99 in its first central-directory
    record, which zipfile refuses with NotImplementedError."""
    at = raw.index(b"PK\x01\x02") + 10
    return raw[:at] + bytes([99]) + raw[at + 1:]


def directory_moved(raw: bytes) -> bytes:
    """The archive with its end record's central-directory offset 1000 bytes
    too far, which puts the first member before the start of the file: a
    seek to a negative offset, an OSError."""
    at = raw.rindex(b"PK\x05\x06") + 16
    offset = int.from_bytes(raw[at:at + 4], "little") + 1000
    return raw[:at] + offset.to_bytes(4, "little") + raw[at + 4:]


TARGETED = {"unknown compression method": unknown_compression,
            "central directory moved": directory_moved}


def mutations(raw: bytes, count: int, seed: int):
    """`count` seeded variants of `raw`: cut at a random length, 1 to 4
    bytes xor-ed with random nonzero values, or random bytes appended."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = i % 3
        if kind == 0:
            yield raw[:int(rng.integers(0, len(raw)))]
        elif kind == 1:
            data = bytearray(raw)
            for at in rng.integers(0, len(raw), int(rng.integers(1, 5))):
                data[at] ^= int(rng.integers(1, 256))
            yield bytes(data)
        else:
            yield raw + rng.bytes(int(rng.integers(1, 64)))


def escapes(path, variants, readers):
    """The non-PcacError exceptions that `readers` raise on the variants."""
    found = []
    for data in variants:
        path.write_bytes(data)
        for read in readers:
            try:
                read(path)
            except PcacError:
                pass
            except Exception as exc:  # what the test hunts
                found.append(f"{read.__name__}: {exc!r}")
    return found


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "tiny.npz"
    model = codec.CodecModel(ModelConfig(num_scales=1, hidden=2, res_blocks=0,
                                         mixtures=1), seed=0)
    codec.ModelCheckpoint(model).save(path)
    return path.read_bytes()


@pytest.mark.parametrize("case", sorted(TARGETED))
def test_corrupt_archive_is_model_mismatch(tmp_path, checkpoint_bytes, case):
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    good.write_bytes(checkpoint_bytes)
    bad.write_bytes(TARGETED[case](checkpoint_bytes))
    with pytest.raises(ModelMismatch):
        codec.ModelCheckpoint.load(bad)
    # and the CLI reports it as a data error, exit code 2
    ply, stream = tmp_path / "cloud.ply", tmp_path / "cloud.bin"
    pc_io.write_ply(pc_io.PointCloud(np.array([[0.0, 0, 0], [1, 2, 3]]),
                                     np.array([[1, 2, 3], [4, 5, 6]])), ply)
    assert cli.main(["encode", str(ply), "--model", str(good),
                     "--out", str(stream)]) == 0
    out = tmp_path / "out"
    assert cli.main(["encode", str(ply), "--model", str(bad),
                     "--out", str(out)]) == 2
    assert cli.main(["decode", str(ply), str(stream), "--model", str(bad),
                     "--out", str(out)]) == 2
    assert not out.exists()


def test_fuzzed_checkpoints_raise_only_pcac_errors(tmp_path,
                                                   checkpoint_bytes):
    variants = [corrupt(checkpoint_bytes) for corrupt in TARGETED.values()]
    variants += mutations(checkpoint_bytes, 1500, seed=0)
    assert escapes(tmp_path / "bad.npz", variants,
                   [codec.ModelCheckpoint.load]) == []


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
def test_fuzzed_plys_raise_only_pcac_errors(tmp_path, binary):
    rng = np.random.default_rng(1)
    positions = rng.integers(0, 100, size=(30, 3)).astype(np.float64)
    cloud = pc_io.PointCloud(positions, rng.integers(0, 256, size=(30, 3)))
    path = tmp_path / "cloud.ply"
    pc_io.write_ply(cloud, path, binary=binary)
    raw = path.read_bytes()
    assert escapes(path, mutations(raw, 3000, seed=2),
                   [pc_io.read_ply, pc_io.load_blocks]) == []
