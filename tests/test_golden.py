"""Golden parity: streams, CDF hashes, info bits and scalable decodes are pinned,
for two lone blocks and for a three-block file.

Any change to what the codec computes (numerics, chunk layout, rng draw
order) fails here. Such a change must bump `codec.VERSION` and regenerate
the fixture with `PYTHONPATH=src python tests/test_golden.py`.

Coding runs in float32, whose results can differ between numpy builds, BLAS
kernels and CPU features. The fixture stores the fingerprint of the host it
was recorded on, and a failure prints it next to this host's, so a
cross-host float32 difference can be told apart from a code change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pcac import codec
from pcac.sparse_nn import ModelConfig
from pcac.tensor_core import sort_coords

FIXTURE = Path(__file__).parent / "data" / "golden.json"
CFG = ModelConfig(hidden=8, res_blocks=1, mixtures=2)
BLOCKS = ("small", "large")


def host_fingerprint() -> dict:
    """numpy version, BLAS name and version, and numpy's CPU features."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "cpu_features": simd["baseline"] + simd["found"]}


def short_hash(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()[:16]


def block(name):
    rng = np.random.default_rng(BLOCKS.index(name))
    if name == "small":
        coords = np.unique(rng.integers(0, 16, size=(320, 3)), axis=0)
    else:
        # one point in every level-1 voxel of a 13^3 cube: levels 0 and 1
        # both hold 2197 points, so their passes span many pmf/CDF blocks
        cube = np.stack(np.meshgrid(*[np.arange(13)] * 3, indexing="ij"),
                        axis=-1).reshape(-1, 3)
        coords = 2 * cube + rng.integers(0, 2, size=cube.shape)
    base = 128 + 90 * np.sin(coords.sum(axis=1, keepdims=True) / 9.0)
    rgb = np.clip(base + rng.integers(-12, 12, size=(len(coords), 3)),
                  0, 255).astype(np.int64)
    return coords, rgb


def record(name, model):
    coords, rgb = block(name)
    stream, enc = codec.encode(coords, rgb, model, debug=True)
    _, dec = codec.decode(coords, stream, model, debug=True)
    scalable = {}
    for mode, seed in (("mean", 0), ("sample", 7)):
        scalable[mode] = [short_hash(np.ascontiguousarray(codec.decode_scalable(
            coords, codec.truncate_bitstream(stream, k), model, mode=mode,
            seed=seed), dtype=np.int64)) for k in (1, 2, 3)]
    return {"points": len(coords),
            "stream": short_hash(stream),
            "encode_cdf": enc.cdf_sha256[:16],
            "decode_cdf": dec.cdf_sha256[:16],
            "info_bits": repr(codec.quantized_info_bits(model, coords, rgb)),
            "scalable": scalable}


def file_blocks():
    """Three file blocks: the small block, one point on the block's x = 63
    face, and about 250 points of a 24^3 cube drawn with another seed. The
    point and the third block's x = 0 face would share neighbourhoods on a
    lattice tighter than 128."""
    alone = (np.array([[63, 9, 2]]), np.array([[200, 17, 96]]))
    other = np.random.default_rng(len(BLOCKS))
    coords = np.unique(other.integers(0, 24, size=(250, 3)), axis=0)
    rgb = other.integers(0, 256, size=(len(coords), 3))
    return [((64 * i, 0, 0), c, f)
            for i, (c, f) in enumerate((block("small"), alone, (coords, rgb)))]


def record_file(model):
    blocks = file_blocks()
    data = codec.encode_blocks(blocks, model)
    geometry = [coords for _, coords, _ in blocks]
    lossless = all(np.array_equal(rgb, f[sort_coords(c)]) for (_, c, f), (
        _, rgb) in zip(blocks, codec.decode_blocks(data, geometry, model)))
    scalable = {}
    for mode, seed in (("mean", 0), ("sample", 7)):
        scalable[mode] = [short_hash(np.ascontiguousarray(np.concatenate([
            rgb for _, rgb in codec.decode_blocks(
                data, geometry, model, chunks=k, mode=mode, seed=seed)]),
            dtype=np.int64)) for k in (1, 2, 3)]
    return {"points": [len(c) for c in geometry],
            "stream": short_hash(data),
            "lossless": lossless,
            "scalable": scalable}


RECORDS = {"small": lambda m: record("small", m),
           "large": lambda m: record("large", m),
           "file": record_file}


@pytest.fixture(scope="module")
def model():
    return codec.CodecModel(CFG, seed=3)


@pytest.mark.parametrize("name", RECORDS)
def test_golden_parity(name, model):
    expected = json.loads(FIXTURE.read_text())
    assert codec.VERSION == expected["version"]
    assert RECORDS[name](model) == expected[name], (
        f"recorded on {expected['host']}, this host is {host_fingerprint()}")


if __name__ == "__main__":
    golden = {"version": codec.VERSION, "host": host_fingerprint()}
    golden.update({name: record_of(codec.CodecModel(CFG, seed=3))
                   for name, record_of in RECORDS.items()})
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(golden, sort_keys=True) + "\n")
