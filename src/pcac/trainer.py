"""Training loop (Adam + step decay + early stopping) and rate evaluation."""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import adam_step, backward
from .codec import (CodecModel, ModelCheckpoint, block_loss, encode_blocks,
                    measure_bpp, prepare_block, prepare_groups,
                    pyramid_points)
from .errors import EmptyDataset
from .pc_io import load_blocks
from .tensor_core import build_pyramid  # noqa: F401  perfbench traces it here

# share of the blocks held out for validation and early stopping
VAL_FRACTION = 0.1


@dataclass
class TrainConfig:
    batch_size: int = 128
    lr: float = 5e-4
    lr_decay: float = 0.75
    lr_decay_interval: int = 5
    patience: int = 20
    max_epochs: int = 200
    seed: int = 0

    def lr_at(self, epoch: int) -> float:
        """Adam's learning rate in `epoch`: `lr`, decayed by `lr_decay`
        every `lr_decay_interval` epochs."""
        return self.lr * self.lr_decay ** (epoch // self.lr_decay_interval)


def _as_pairs(blocks):
    """(geometry, rgb) of each pc_io.Block; pairs pass through."""
    return [(b.tensor.coords, b.rgb) if hasattr(b, "tensor") else b
            for b in blocks]


def _batches(groups, order, batch_size: int):
    """The groups in `order`, cut into batches: a batch takes groups while
    it holds at most `batch_size` blocks."""
    batch, count = [], 0
    for i in order:
        if batch and count + groups[i][2] > batch_size:
            yield batch, count
            batch, count = [], 0
        batch.append(groups[i])
        count += groups[i][2]
    yield batch, count


def train(blocks, config: TrainConfig | None = None,
          model: CodecModel | None = None,
          time_budget_s: float | None = None,
          log=None) -> ModelCheckpoint:
    """Fit the stack on a set of blocks; returns the best-validation checkpoint.

    Blocks train in lockstep: once per run, the training and the validation
    blocks, each in the seeded order, are merged into groups of consecutive
    blocks (`prepare_groups`), each group one pyramid and one graph of at
    most `batch_size` blocks and no more pyramid points than the largest
    training block's. Each epoch shuffles whole groups into batches of at
    most `batch_size` blocks and divides a batch's gradient by its block
    count. Fully deterministic for a given seed, which fixes the validation
    split, the groups and each epoch's shuffle. `max_epochs` and
    `batch_size` below 1 raise ValueError.
    """
    config = config or TrainConfig()
    if config.max_epochs < 1 or config.batch_size < 1:
        raise ValueError(f"max_epochs {config.max_epochs} and batch_size "
                         f"{config.batch_size} must be at least 1")
    model = model or CodecModel(seed=config.seed)
    pairs = _as_pairs(blocks)
    if not pairs:
        raise EmptyDataset("no training blocks")
    num_scales = model.config.num_scales
    data = [prepare_block(g, f, num_scales) for g, f in pairs]

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(data))
    n_val = int(round(VAL_FRACTION * len(data)))
    n_val = min(n_val, len(data) - 1)
    most_points = max(pyramid_points(data[i][0]) for i in order[n_val:])
    val, tr = (prepare_groups([data[i] for i in part], num_scales,
                              config.batch_size, most_points)
               for part in (order[:n_val], order[n_val:]))
    del data  # the groups hold what training needs
    if not val:  # tiny datasets: early-stop on the training loss
        val = tr

    params = model.parameters()
    best = None  # (val_bits_per_point, epoch, weights)
    bad_epochs = 0
    start = time.monotonic()
    history = []
    # One group that is also the validation set: each validation pass is
    # exactly the next epoch's training forward pass (same weights, same
    # group), so its graph is carried over instead of being rebuilt.
    reuse = val is tr and len(tr) == 1
    carried = None

    for epoch in range(config.max_epochs):
        for batch, count in _batches(tr, rng.permutation(len(tr)),
                                     config.batch_size):
            for p in params:
                p.grad = None
            for maps, rgb, _ in batch:
                loss, _ = carried or block_loss(model, maps, rgb)
                carried = None
                backward(loss)
            for p in params:
                if p.grad is not None:
                    p.grad /= count
            adam_step(params, config.lr_at(epoch))
            model.mark_dirty()

        val_bits = 0.0
        val_points = 0
        for maps, rgb, _ in val:
            loss, const = block_loss(model, maps, rgb)
            if reuse:
                carried = (loss, const)
            val_bits += float(loss.value) + const
            val_points += len(rgb)
        val_bpp = val_bits / val_points
        history.append(val_bpp)
        if log:
            log(f"epoch {epoch}: val {val_bpp:.3f} bits/point "
                f"(lr {config.lr_at(epoch):.2e})")

        if best is None or val_bpp < best[0]:
            best = (val_bpp, epoch,
                    [np.array(p.value, copy=True) for p in params])
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
        if time_budget_s is not None and \
                time.monotonic() - start > time_budget_s:
            break

    for p, w in zip(params, best[2]):
        p.value[...] = w
    model.mark_dirty()
    return ModelCheckpoint(model, {
        "epoch": best[1],
        "val_bits_per_point": best[0],
        "epochs_run": len(history),
        "seed": config.seed,
    })


def evaluate(paths, model: CodecModel):
    """Encode whole point-cloud files; report rate and timing per file.

    Returns rows of {name, points, bpp, enc_seconds} plus an average row;
    no paths raise EmptyDataset.
    """
    rows = []
    for path in paths:
        blocks = load_blocks(path)
        t0 = time.monotonic()
        data = encode_blocks([(b.origin, b.tensor.coords, b.rgb)
                              for b in blocks], model)
        elapsed = time.monotonic() - t0
        points = sum(len(b.tensor) for b in blocks)
        rows.append({
            "name": Path(path).stem,
            "points": points,
            "bpp": measure_bpp(data, points),
            "enc_seconds": elapsed,
        })
    if not rows:
        raise EmptyDataset("no point-cloud files to evaluate")
    total_bits = sum(r["bpp"] * r["points"] for r in rows)
    total_points = sum(r["points"] for r in rows)
    rows.append({
        "name": "Average",
        "points": total_points,
        "bpp": total_bits / total_points,
        "enc_seconds": sum(r["enc_seconds"] for r in rows) / len(rows),
    })
    return rows
