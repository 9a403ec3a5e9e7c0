"""File-level pipeline: PLY in, bitstream out, PLY back.

Covers ingestion (read, voxelize, partition into 64-aligned blocks), the
multi-block container, and the rate report produced by the evaluator.
"""

import tempfile
from pathlib import Path

import numpy as np

from pcac import CodecModel, evaluate, read_ply, voxelize, write_ply
from pcac.codec import decode_blocks, encode_blocks, measure_bpp
from pcac.pc_io import PointCloud, partition_blocks

tmp = Path(tempfile.mkdtemp())
rng = np.random.default_rng(2)
n = 3000
pos = rng.uniform(0, 100, size=(n, 3))
col = np.clip(128 + 60 * np.sin(pos / 15.0).sum(1, keepdims=True)
              + rng.normal(0, 4, (n, 3)), 0, 255).astype(np.int64)
ply = tmp / "scene.ply"
write_ply(PointCloud(pos, col), ply)

pc = read_ply(ply)
tensor = voxelize(pc, bit_depth=7)
blocks = partition_blocks(tensor, 64)
print(f"{len(pc)} input points -> {len(tensor)} voxels in {len(blocks)} blocks")

model = CodecModel(seed=0)
data = encode_blocks(
    [(b.origin, b.tensor.coords, b.tensor.features) for b in blocks], model)
print(f"file bitstream: {len(data)} bytes, "
      f"{measure_bpp(data, len(tensor)):.2f} bpp")

decoded = decode_blocks(data, [b.tensor.coords for b in blocks], model)
ok = all(np.array_equal(rgb, b.tensor.features)
         for b, (_, rgb) in zip(blocks, decoded))
print(f"all blocks lossless: {ok}")

for row in evaluate([ply], model):
    print(f"  {row['name']}: {row['points']} points, {row['bpp']:.2f} bpp, "
          f"{row['enc_seconds']:.2f} s")
