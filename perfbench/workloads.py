"""The benchmark's three workloads and their seeded input generators.

Every input is made from the seed alone. pcac only ever sees what `prepare`
writes: a PLY file and a model checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Model and optimiser settings of acceptance criterion 8 (the overfit gate).
SMALL_MODEL = dict(hidden=16, res_blocks=2, mixtures=4)
TRAIN_SETTINGS = dict(lr=2e-3, lr_decay=0.9, lr_decay_interval=200)


def two_plane_block(rng):
    """Two orthogonal 64x64 planes crossing inside a 64^3 block (8128 voxels).

    The planes' positions and the colour noise come from the seed. Each
    plane's colour field is a function of its own (u, v) coordinates, and
    the planes always sit 3 voxels past a multiple of 8, so every level of
    the 4-level pyramid has the same shape. The point count, the level sizes
    and the colours' statistics then do not depend on the seed, and every
    seed poses the same coding problem: with free offsets, the rate reached
    after the fixed training epochs moved by up to 14% between seeds.
    """
    a, b = 8 * rng.integers(1, 7, size=2) + 3
    u, v = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    u, v = u.reshape(-1), v.reshape(-1)
    plane_x = np.stack([np.full_like(u, a), u, v], axis=1)
    plane_y = np.stack([u, np.full_like(u, b), v], axis=1)
    uv = np.stack([u, v, u + v], axis=1) / np.array([11.0, 13.0, 17.0])
    field = 128 + 60 * np.sin(np.concatenate([uv, uv + 1.0]))
    # the planes' shared line keeps plane_x's colours
    coords, first = np.unique(np.concatenate([plane_x, plane_y]), axis=0,
                              return_index=True)
    colours = np.rint(field[first] + rng.normal(0, 3, (len(first), 3)))
    return coords.astype(np.float64), np.clip(colours, 0, 255).astype(np.int64)


def sphere_shell_file(rng):
    """Noisy shell of radius 44 centred off the 64-grid in a 256^3 volume.

    About 12.2k voxels that fall into 12 blocks of roughly 15 to 3.1k points
    each. The seed draws the sample points and the colour noise; the fixed
    centre and colour field keep the block layout and the coding problem the
    same for every seed.
    """
    n = 14000
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = 44 + rng.normal(0, 0.5, n)
    positions = np.array([92.0, 96.0, 110.0]) + direction * radius[:, None]
    field = 128 + 50 * np.sin(positions / np.array([19.0, 23.0, 29.0]))
    colours = np.rint(field + rng.normal(0, 3, field.shape))
    return positions, np.clip(colours, 0, 255).astype(np.int64)


def natural_sphere(rng):
    """Acceptance criterion 8's sphere: about 1190 voxels at depth 6."""
    n = 1300
    theta = rng.uniform(0, np.pi, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    r = 24 + rng.normal(0, 0.5, n)
    positions = np.stack([r * np.sin(theta) * np.cos(phi),
                          r * np.sin(theta) * np.sin(phi),
                          r * np.cos(theta)], 1) + 32
    base = np.stack([150 + 70 * np.sin(positions[:, 0] / 24.0),
                     120 + 60 * np.sin(positions[:, 1] / 22.0 + 1.0),
                     110 + 60 * np.cos(positions[:, 2] / 26.0)], 1)
    colours = base + rng.normal(0, 0.8, base.shape)
    return positions, np.clip(colours, 0, 255).astype(np.int64)


@dataclass(frozen=True)
class Workload:
    name: str
    make_cloud: Callable  # rng -> (positions, colours)
    bit_depth: int  # voxel grid of the PLY: 2**bit_depth per axis
    model: dict  # ModelConfig fields of the coding checkpoint ({} = default)
    whole_file: bool  # code the PLY through encode_blocks / decode_blocks
    train_epochs: int
    # True: the checkpoint model is trained and then used for coding.
    # False: coding uses the checkpoint as written, and training fits a
    # fresh criterion-8 model on the same input.
    code_trained: bool


WORKLOADS = {w.name: w for w in (
    # Why: conv-heavy, with a high-occupancy level 0. Conv is 42-46% of
    # encode; pmf is 35-38% and CDF tables 12-13%. It also has the largest
    # pmf memory and the largest checkpoint load (the default ModelConfig:
    # hidden 64, 8 res-blocks, 10 mixtures). Ops: encode, decode,
    # decode_scalable. Its training phase fits a criterion-8 model to the
    # block, so a conv dataflow change shows in training at high occupancy.
    Workload("dense-block", two_plane_block, bit_depth=6, model={},
             whole_file=False, train_epochs=6, code_trained=False),
    # Why: conv is small here (13-16% of encode, 5-7% of decode). pmf and
    # CDF tables take 63-74% of encode, the per-symbol Python range decode
    # takes 42-46% of decode, and per-block fixed costs (pyramid, kernel
    # maps, container) and pc_io appear. A conv change should predict no
    # change in this workload's coding metrics. Ops follow the CLI:
    # read_ply -> voxelize -> partition_blocks -> encode_blocks, and the same
    # -> decode_blocks -> write_ply.
    Workload("multiblock-file", sphere_shell_file, bit_depth=8,
             model=SMALL_MODEL, whole_file=True, train_epochs=3,
             code_trained=False),
    # Why: the write side of the same layers: conv forward and backward, the
    # autodiff graph and Adam. A forward-only (no-grad) or entropy-layer
    # change should not move train_epoch_s here; a conv dataflow change must
    # move it here and on dense-block.
    Workload("train-overfit", natural_sphere, bit_depth=6, model=SMALL_MODEL,
             whole_file=False, train_epochs=20, code_trained=True),
)}
