import numpy as np
import pytest

from pcac import autodiff as ad
from pcac import codec, pc_io, sparse_nn, trainer
from pcac import likelihood as lh
from pcac.errors import EmptyDataset, SymbolOutOfRange
from pcac.sparse_nn import ModelConfig
from test_golden import CFG as GOLDEN_CFG
from test_golden import block as golden_block

CFG = ModelConfig(hidden=8, res_blocks=1, mixtures=2)


def smooth_block(rng, extent=8, points=120):
    # spatially correlated colors: cheap to overfit
    coords = np.unique(rng.integers(0, extent, size=(points, 3)), axis=0)
    base = 128 + 60 * np.sin(coords.sum(axis=1) / 5.0)
    rgb = np.clip(base[:, None] + rng.integers(-5, 5, size=(len(coords), 3)),
                  0, 255).astype(np.int64)
    return coords, rgb


def test_training_reduces_loss():
    rng = np.random.default_rng(0)
    block = smooth_block(rng)
    model = codec.CodecModel(CFG, seed=0)
    before = codec.estimate_bits(model, *block)
    cfg = trainer.TrainConfig(max_epochs=8, patience=8, seed=0)
    history = []
    ckpt = trainer.train([block], cfg, model=model,
                         log=lambda msg: history.append(msg))
    after = codec.estimate_bits(ckpt.model, *block)
    assert after < before
    assert len(history) == ckpt.metadata["epochs_run"]
    assert ckpt.metadata["val_bits_per_point"] == \
        pytest.approx(after / len(block[0]), rel=1e-9)


def test_training_is_deterministic():
    rng = np.random.default_rng(1)
    block = smooth_block(rng)
    cfg = trainer.TrainConfig(max_epochs=3, seed=7)

    def run():
        model = codec.CodecModel(CFG, seed=7)
        return trainer.train([block], cfg, model=model).model.digest()

    assert run() == run()


def test_early_stopping_restores_best_epoch():
    rng = np.random.default_rng(2)
    block = smooth_block(rng)
    model = codec.CodecModel(CFG, seed=0)
    cfg = trainer.TrainConfig(max_epochs=6, patience=2, seed=0)
    ckpt = trainer.train([block], cfg, model=model)
    best = ckpt.metadata["val_bits_per_point"]
    # the restored weights reproduce the reported best validation loss
    assert codec.estimate_bits(ckpt.model, *block) / len(block[0]) == \
        pytest.approx(best, rel=1e-9)
    assert ckpt.metadata["epoch"] <= ckpt.metadata["epochs_run"] - 1


def test_single_block_training_reuses_validation_pass(monkeypatch):
    # one block validates on itself: each validation pass doubles as the next
    # epoch's training pass, and training ends where rebuilding it would
    rng = np.random.default_rng(5)
    block = smooth_block(rng)
    cfg = trainer.TrainConfig(max_epochs=3, patience=3, seed=0)
    calls = []
    real_loss = trainer.block_loss
    monkeypatch.setattr(trainer, "block_loss",
                        lambda *a, **k: calls.append(1) or real_loss(*a, **k))
    ckpt = trainer.train([block], cfg, model=codec.CodecModel(CFG, seed=0))
    assert len(calls) == 1 + 3  # first training pass, then one per epoch
    monkeypatch.undo()

    # reference: the same Adam updates with every forward pass rebuilt
    model = codec.CodecModel(CFG, seed=0)
    maps, rgb = codec.prepare_block(*block, model.config.num_scales)
    params = model.parameters()
    val_bpp, weights = [], []
    for epoch in range(3):
        for p in params:
            p.grad = None
        ad.backward(codec.block_loss(model, maps, rgb)[0])
        ad.adam_step(params, cfg.lr_at(epoch))
        model.mark_dirty()
        loss, const = codec.block_loss(model, maps, rgb)
        val_bpp.append((float(loss.value) + const) / len(rgb))
        weights.append([p.value.copy() for p in params])
    best = int(np.argmin(val_bpp))
    assert ckpt.metadata["val_bits_per_point"] == val_bpp[best]
    assert all(np.array_equal(p.value, w)
               for p, w in zip(ckpt.model.parameters(), weights[best]))


def test_coding_and_training_run_float32_stacks(monkeypatch):
    # coding's and block_loss's conv outputs are float32, the likelihood
    # nodes' values float64, and parameters and Adam's moments stay float64;
    # one training epoch on the golden "small" block gives the loss recorded
    # when training moved to float32 stacks (float64 stacks gave
    # 55.589506488719806) and the digest of the weights it reaches
    dtypes = []
    conv = sparse_nn.SparseConv.__call__

    def spy(self, x, fmap):
        out = conv(self, x, fmap)
        dtypes.append(out.value.dtype)
        return out

    bits_dtypes = []

    def bits_spy(node_fn):
        def run(*args, **kwargs):
            node = node_fn(*args, **kwargs)
            bits_dtypes.append(node.value.dtype)
            return node
        return run

    monkeypatch.setattr(sparse_nn.SparseConv, "__call__", spy)
    for name in ("latent_bits_node", "rgb_bits_node"):
        monkeypatch.setattr(lh, name, bits_spy(getattr(lh, name)))
    coords, rgb = golden_block("small")
    model = codec.CodecModel(GOLDEN_CFG, seed=3)
    stream = codec.encode(coords, rgb, model)
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}
    dtypes.clear()
    codec.decode(coords, stream, model)
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}
    dtypes.clear()
    loss, _ = codec.block_loss(
        model, *codec.prepare_block(coords, rgb, GOLDEN_CFG.num_scales))
    assert loss.value.dtype == np.float64
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}
    assert len(bits_dtypes) == GOLDEN_CFG.num_scales
    assert set(bits_dtypes) == {np.dtype(np.float64)}

    ckpt = trainer.train([(coords, rgb)], trainer.TrainConfig(max_epochs=1),
                         model=model)
    params = model.parameters()
    assert all(p.value.dtype == np.float64 for p in params)
    assert all(p.m.dtype == p.v.dtype == np.float64 for p in params
               if p.m is not None)
    assert any(p.m is not None for p in params)
    assert ckpt.model.digest().hex() == "7d3a7da0bfbfce3a"
    assert ckpt.metadata["val_bits_per_point"] == 55.589506489068135


def test_train_accepts_pc_io_blocks_and_rejects_empty():
    rng = np.random.default_rng(3)
    coords, rgb = smooth_block(rng)
    from pcac.tensor_core import build_sparse_tensor
    tensor = build_sparse_tensor(coords, rgb.astype(np.float64))
    blocks = pc_io.partition_blocks(tensor, 64)
    cfg = trainer.TrainConfig(max_epochs=1, seed=0)
    ckpt = trainer.train(blocks, cfg, model=codec.CodecModel(CFG, seed=0))
    assert "val_bits_per_point" in ckpt.metadata
    with pytest.raises(EmptyDataset):
        trainer.train([], cfg, model=codec.CodecModel(CFG, seed=0))
    # colours must be integers in 0..255
    for bad in (300, -1, 2.7):
        wrong = rgb.astype(np.float64)
        wrong[4, 1] = bad
        with pytest.raises(SymbolOutOfRange):
            trainer.train([(coords, wrong)], cfg,
                          model=codec.CodecModel(CFG, seed=0))
    # at least one epoch of batches of at least one block
    for bad in ({"max_epochs": 0}, {"batch_size": 0}, {"batch_size": -1}):
        with pytest.raises(ValueError):
            trainer.train([(coords, rgb)], trainer.TrainConfig(**bad),
                          model=codec.CodecModel(CFG, seed=0))


def test_time_budget_stops_early():
    rng = np.random.default_rng(4)
    block = smooth_block(rng)
    cfg = trainer.TrainConfig(max_epochs=1000, patience=1000, seed=0)
    ckpt = trainer.train([block], cfg, model=codec.CodecModel(CFG, seed=0),
                         time_budget_s=1.0)
    assert ckpt.metadata["epochs_run"] < 1000


def test_evaluate_reports_rate_and_average(tmp_path):
    rng = np.random.default_rng(5)
    paths = []
    for i in range(2):
        coords, rgb = smooth_block(rng, extent=16)
        pc = pc_io.PointCloud(coords.astype(np.float64), rgb)
        p = tmp_path / f"cloud{i}.ply"
        pc_io.write_ply(pc, p)
        paths.append(p)
    model = codec.CodecModel(CFG, seed=0)
    rows = trainer.evaluate(paths, model)
    assert [r["name"] for r in rows] == ["cloud0", "cloud1", "Average"]
    for r in rows:
        assert r["bpp"] > 0 and r["enc_seconds"] >= 0
    total_bits = sum(r["bpp"] * r["points"] for r in rows[:-1])
    total_points = sum(r["points"] for r in rows[:-1])
    assert rows[-1]["bpp"] == pytest.approx(total_bits / total_points)
    assert rows[-1]["points"] == total_points
    with pytest.raises(EmptyDataset):
        trainer.evaluate([], model)


def multi_blocks(seed, count=7):
    # one large block and smaller ones inside [0, 64)^3, as a file's blocks
    # are
    rng = np.random.default_rng(seed)
    return [smooth_block(rng, extent=16, points=600)] + [
        smooth_block(rng, extent=int(e), points=int(n))
        for e, n in zip(rng.integers(5, 12, size=count - 1),
                        rng.integers(10, 200, size=count - 1))]


def test_a_group_is_the_sum_of_its_blocks():
    # one graph over a group: its loss is the blocks' summed losses, and its
    # gradients are the blocks' accumulated gradients up to float32 sums
    model = codec.CodecModel(CFG, seed=1)
    params = model.parameters()
    data = [codec.prepare_block(g, f, CFG.num_scales)
            for g, f in multi_blocks(6, 4)]
    [(maps, rgb, count)] = codec.prepare_groups(
        data, CFG.num_scales, 4, sum(codec.pyramid_points(m) for m, _ in data))
    assert count == 4 and len(rgb) == sum(len(r) for _, r in data)

    def run(items):
        for p in params:
            p.grad = None
        bits = 0.0
        for m, r in items:
            loss, const = codec.block_loss(model, m, r)
            bits += float(loss.value) + const
            ad.backward(loss)
        return bits, [p.grad for p in params]

    bits, grads = run(data)
    group_bits, group_grads = run([(maps, rgb)])
    assert group_bits == pytest.approx(bits, rel=1e-12)
    assert [g is None for g in grads] == [h is None for h in group_grads]
    for g, h in zip(grads, group_grads):
        if g is not None:
            assert np.abs(h - g).max() <= 1e-5 * np.abs(g).max()


def test_groups_respect_the_block_and_point_budgets():
    data = [codec.prepare_block(g, f, CFG.num_scales)
            for g, f in multi_blocks(7, 9)]
    sizes = [codec.pyramid_points(m) for m, _ in data]
    groups = codec.prepare_groups(data, CFG.num_scales, 3, max(sizes))
    assert sum(n for *_, n in groups) == len(data)
    assert max(n for *_, n in groups) <= 3 and len(groups) < len(data)
    at = 0
    for maps, rgb, n in groups:
        # consecutive blocks, their RGB in the group's pyramid order
        assert codec.pyramid_points(maps) == sum(sizes[at:at + n])
        assert codec.pyramid_points(maps) <= max(sizes)
        np.testing.assert_array_equal(
            rgb, np.concatenate([r for _, r in data[at:at + n]]))
        at += n
    # a lone block keeps its own maps
    lone = codec.prepare_groups(data[:1], CFG.num_scales, 3, max(sizes))
    assert lone[0][0] is data[0][0] and lone[0][1] is data[0][1]


def test_out_of_extent_blocks_and_deep_models_train_alone():
    blocks = multi_blocks(8, 5)
    far = blocks[2][0] + [60, 0, 0]  # reaches past x = 63
    blocks[2] = (far, blocks[2][1])
    data = [codec.prepare_block(g, f, CFG.num_scales) for g, f in blocks]
    groups = codec.prepare_groups(data, CFG.num_scales, 8, 10 ** 6)
    assert [n for *_, n in groups] == [2, 1, 2]
    assert groups[1][0] is data[2][0]
    # six scales still group: the top stride is BLOCK_EXTENT
    data = [codec.prepare_block(g, f, 6) for g, f in multi_blocks(8, 5)]
    assert len(codec.prepare_groups(data, 6, 8, 10 ** 6)) == 1
    data = [codec.prepare_block(g, f, 7) for g, f in blocks]
    assert [n for *_, n in codec.prepare_groups(data, 7, 8, 10 ** 6)] == \
        [1] * 5
    deep = ModelConfig(num_scales=7, hidden=4, res_blocks=0, mixtures=1)
    ckpt = trainer.train(blocks, trainer.TrainConfig(max_epochs=1),
                         model=codec.CodecModel(deep, seed=0))
    assert np.isfinite(ckpt.metadata["val_bits_per_point"])


def test_batches_hold_at_most_batch_size_blocks(monkeypatch):
    # the block count of each backward pass, batched by the Adam steps
    groups, counts, batches = {}, {}, [[]]
    real_groups, real_loss = trainer.prepare_groups, trainer.block_loss
    real_backward, real_adam = trainer.backward, trainer.adam_step

    def spy_groups(*args):
        out = real_groups(*args)
        groups.update((id(maps), n) for maps, _, n in out)
        return out

    def spy_loss(model, maps, rgb):
        loss, const = real_loss(model, maps, rgb)
        counts[id(loss)] = groups[id(maps)]
        return loss, const

    def spy_backward(loss):
        batches[-1].append(counts[id(loss)])
        return real_backward(loss)

    def spy_adam(params, lr):
        batches.append([])
        return real_adam(params, lr)

    for name, spy in (("prepare_groups", spy_groups), ("block_loss", spy_loss),
                      ("backward", spy_backward), ("adam_step", spy_adam)):
        monkeypatch.setattr(trainer, name, spy)
    trainer.train(multi_blocks(9, 12),
                  trainer.TrainConfig(max_epochs=2, batch_size=3),
                  model=codec.CodecModel(CFG, seed=0))
    steps = batches[:-1]
    assert sum(map(sum, steps)) == 2 * 11  # 11 training blocks, 2 epochs
    assert all(0 < sum(b) <= 3 for b in steps)
    assert any(len(b) > 1 for b in steps) and max(groups.values()) > 1


def test_multi_block_training_is_repeatable():
    blocks = multi_blocks(10, 12)
    cfg = trainer.TrainConfig(max_epochs=2, batch_size=4, seed=3)

    def run():
        ckpt = trainer.train(blocks, cfg, model=codec.CodecModel(CFG, seed=3))
        return ckpt.model.digest(), ckpt.metadata["val_bits_per_point"]

    assert run() == run()


def test_training_from_a_checkpoint_trains_its_float32_values(tmp_path,
                                                              monkeypatch):
    # a loaded model holds float32 weights; training promotes them to a
    # float64 master copy, with float64 Adam moments, and its first epoch is
    # that of a fresh model rounded to float32 by hand
    coords, rgb = golden_block("small")
    path = tmp_path / "model.npz"
    codec.ModelCheckpoint(codec.CodecModel(GOLDEN_CFG, seed=3)).save(path)
    loaded = codec.ModelCheckpoint.load(path).model
    assert {p.value.dtype for p in loaded.parameters()} == \
        {np.dtype(np.float32)}
    steps = []
    adam = trainer.adam_step

    def spy(params, lr):
        adam(params, lr)
        steps.append({a.dtype for p in params if p.m is not None
                      for a in (p.value, p.grad, p.m, p.v)})

    monkeypatch.setattr(trainer, "adam_step", spy)
    config = trainer.TrainConfig(max_epochs=1)
    ckpt = trainer.train([(coords, rgb)], config, model=loaded)
    monkeypatch.undo()
    assert steps and all(dtypes == {np.dtype(np.float64)} for dtypes in steps)
    assert {p.value.dtype for p in ckpt.model.parameters()} == \
        {np.dtype(np.float64)}

    rounded = codec.CodecModel(GOLDEN_CFG, seed=3)
    for p in rounded.parameters():
        p.value = p.value.astype(np.float32).astype(np.float64)
    reference = trainer.train([(coords, rgb)], config, model=rounded)
    assert ckpt.metadata["val_bits_per_point"] == \
        reference.metadata["val_bits_per_point"]
    assert ckpt.model.digest() == reference.model.digest()
