"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; the lines print directly to
the terminal (capture disabled) so the verdicts are visible either way.
"""

import time

import numpy as np
import pytest

from pcac import autodiff as ad
from pcac import codec, likelihood as lh, pc_io, range_coder as rc, trainer
from pcac.sparse_nn import (KernelMapCache, ModelConfig, SparseConv,
                            build_kernel_map, kernel_offsets, max_pool2)
from pcac.tensor_core import build_pyramid, sort_coords

SMALL = ModelConfig(hidden=8, res_blocks=1, mixtures=2)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def random_blocks(rng, count):
    """Blocks spanning 1..64^3 voxels with random and structured colors."""
    blocks = []
    for i in range(count):
        extent = int(rng.choice([1, 2, 4, 8, 16, 32, 64]))
        n = int(rng.integers(1, min(extent ** 3, 400) + 1))
        coords = np.unique(rng.integers(0, extent, size=(n, 3)), axis=0)
        if i % 2 == 0:
            rgb = rng.integers(0, 256, size=(len(coords), 3))
        else:  # structured: smooth gradient + mild noise
            base = 128 + 100 * np.sin(coords.sum(axis=1, keepdims=True) / 7.0)
            rgb = np.clip(base + rng.integers(-6, 6, size=(len(coords), 3)),
                          0, 255).astype(np.int64)
        blocks.append((coords, rgb))
    return blocks


@pytest.fixture(scope="module")
def round_trip_runs():
    """Shared by criteria 1 and 2: 50 blocks across 3 random checkpoints."""
    rng = np.random.default_rng(2024)
    models = [codec.CodecModel(SMALL, seed=s) for s in (10, 11, 12)]
    runs = []
    start = time.monotonic()
    for i, (coords, rgb) in enumerate(random_blocks(rng, 50)):
        model = models[i % 3]
        stream = codec.encode(coords, rgb, model)
        decoded = codec.decode(coords, stream, model)
        runs.append({
            "lossless": np.array_equal(decoded, rgb[sort_coords(coords)]),
            "bits": 8 * len(stream),
            "estimate": codec.estimate_bits(model, coords, rgb),
            "info": codec.quantized_info_bits(model, coords, rgb),
        })
    return runs, time.monotonic() - start


def test_criterion_01_lossless_round_trip(round_trip_runs, capsys):
    runs, elapsed = round_trip_runs
    n_ok = sum(r["lossless"] for r in runs)
    ok = n_ok == len(runs) and elapsed < 300
    report(capsys, 1, ok,
           f"{n_ok}/{len(runs)} blocks bit-exact over 3 checkpoints "
           f"in {elapsed:.1f}s (limit 300s)")


def test_criterion_02_rate_tightness(round_trip_runs, capsys):
    runs, _ = round_trip_runs
    upper = sum(r["bits"] <= r["estimate"] * 1.01 + 8 * 256 for r in runs)
    lower = sum(r["bits"] >= r["info"] for r in runs)
    gap = max(r["bits"] - r["estimate"] for r in runs)
    ok = upper == len(runs) and lower == len(runs)
    report(capsys, 2, ok,
           f"{upper}/{len(runs)} within estimate+1%+256B, "
           f"{lower}/{len(runs)} above the table information content "
           f"(max overhead {gap:.0f} bits)")


def test_criterion_03_uniform_top_scale_rate(capsys):
    # the L3 chunk is a fixed uniform code over 26 symbols, 5 per point;
    # verified through the codec for small n and the coder directly at 10k
    rng = np.random.default_rng(3)
    model = codec.CodecModel(SMALL, seed=10)
    results = []
    for n in (1, 100, 10_000):
        target = n * 5 * np.log2(26)
        tol = 0.01 * target + 16 * 8
        if n <= 100:
            cells = np.unique(rng.integers(0, 40, size=(4 * n, 3)), axis=0)[:n]
            coords = cells * 8  # one level-0 point per stride-8 cell
            assert len(coords) == n
            rgb = rng.integers(0, 256, size=(n, 3))
            stream = codec.encode(coords, rgb, model)
            chunk_bits = 8 * codec.chunk_lengths(stream)[0]
        else:
            syms = rng.integers(0, 26, size=n * 5)
            chunk_bits = 8 * len(rc.encode_uniform(syms, 26))
        results.append((n, chunk_bits, target, abs(chunk_bits - target) <= tol))
    ok = all(r[3] for r in results)
    report(capsys, 3, ok,
           "; ".join(f"n={n}: {b:.0f} vs {t:.0f} bits" for n, b, t, _ in results))


def test_criterion_04_gradient_check(capsys):
    # miniature stack, smooth quantizer mode, central differences on two
    # random entries of every parameter tensor; the stacks run in float64,
    # as central differences at h = 1e-5 need
    start = time.monotonic()
    cfg = ModelConfig(num_scales=2, hidden=6, latent_channels=5,
                      res_blocks=2, mixtures=2)
    model = codec.CodecModel(cfg, seed=3)
    rng = np.random.default_rng(0)
    coords = np.unique(rng.integers(0, 8, size=(60, 3)), axis=0)[:64]
    rgb = rng.integers(0, 256, size=(len(coords), 3))
    maps, rgb = codec.prepare_block(coords, rgb, cfg.num_scales)

    loss, _ = codec.block_loss(model, maps, rgb, quant_mode="soft",
                               dtype=np.float64)
    ad.backward(loss)

    def f():
        l, _ = codec.block_loss(model, maps, rgb, quant_mode="soft",
                                dtype=np.float64)
        return float(l.value)

    h = 1e-5
    pick = np.random.default_rng(42)
    # every offset's kernel of a conv weight counts as a tensor of its own
    tensors = []
    for name, p in model.named_parameters():
        grad = p.grad if p.grad is not None else np.zeros_like(p.value)
        if name.endswith(".weight"):
            tensors += [(f"{name}[{i}]", p.value[i], grad[i])
                        for i in range(len(p.value))]
        else:
            tensors.append((name, p.value, grad))
    n_checked, failures = 0, []
    for name, value, grad in tensors:
        flat = value.reshape(-1)  # a view: writes move the weight
        grad = grad.reshape(-1)
        for idx in pick.choice(flat.size, size=min(2, flat.size),
                               replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = f()
            flat[idx] = orig - h
            dn = f()
            flat[idx] = orig
            fd = (up - dn) / (2 * h)
            an = grad[idx]
            n_checked += 1
            # 1e-7 absolute floor: fd carries ~1e-9 cancellation noise, so
            # purely relative comparison is meaningless for ~1e-8 gradients
            if abs(fd - an) > max(1e-4 * max(abs(fd), abs(an)), 1e-7):
                failures.append((name, int(idx), fd, an))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120
    report(capsys, 4, ok,
           f"{n_checked} entries across every parameter tensor, "
           f"{len(failures)} mismatches, {elapsed:.1f}s (limit 120s)"
           + (f"; first: {failures[0]}" if failures else ""))


def test_criterion_05_dlm_exactness(capsys):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        grid = lh.SymbolGrid(26) if rng.random() < 0.5 else lh.RGB_GRID
        k = int(rng.integers(1, 11))
        shape = (int(rng.integers(1, 6)), k)
        pmf = lh.dlm_pmf(rng.normal(size=shape) * 3,
                         rng.normal(size=shape) * 2,
                         rng.normal(size=shape) * 4, grid)
        worst = max(worst, float(np.abs(pmf.sum(-1) - 1).max()))
    # brute-force joint enumeration on an 8-symbol grid
    grid8 = lh.SymbolGrid(8)
    idx = np.stack(np.meshgrid(*[np.arange(8)] * 3, indexing="ij"),
                   -1).reshape(-1, 3)
    params = np.repeat(rng.normal(size=(1, 12 * 3)), len(idx), axis=0)
    joint = np.exp(lh.rgb_joint_logprob(params, idx[:, 0], idx[:, 1],
                                        idx[:, 2], num_mixtures=3,
                                        grid=grid8)).sum()
    ok = worst <= 1e-9 and abs(joint - 1.0) <= 1e-9
    report(capsys, 5, ok,
           f"1000 draws: max |sum(pmf)-1| = {worst:.2e}; "
           f"8^3 joint enumeration sums to 1{joint - 1.0:+.2e}")


def test_criterion_06_sparse_op_oracles(capsys):
    rng = np.random.default_rng(6)
    off3, off2 = kernel_offsets(3), kernel_offsets(2)
    worst = {"conv": 0.0, "transpose": 0.0, "pool": 0.0}
    for _ in range(20):
        n = int(rng.integers(4, 60))
        coords = np.unique(rng.integers(0, 8, size=(n, 3)), axis=0)
        pyr = build_pyramid(coords, 1)
        maps = KernelMapCache(pyr)
        fine, coarse = pyr.coords[0], pyr.coords[1]
        table = {}

        # sparse conv vs dense oracle
        conv = SparseConv(3, 4, 3, rng)
        conv.bias.value[...] = rng.normal(size=4)
        x = rng.normal(size=(len(fine), 3))
        fmap = build_kernel_map(fine, fine, 3, 1)
        got = conv(ad.Node(x), fmap).value
        table = {tuple(c): f for c, f in zip(fine, x)}
        for j, c in enumerate(fine):
            expect = conv.bias.value.copy()
            for w, o in zip(conv.weight.value, off3):
                src = tuple(c + np.array(o))
                if src in table:
                    expect += table[src] @ w
            worst["conv"] = max(worst["conv"], float(np.abs(got[j] - expect).max()))

        # transpose conv (coarse -> fine) vs the one-parent oracle
        up = SparseConv(3, 2, 2, rng)
        up.bias.value[...] = rng.normal(size=2)
        xc = rng.normal(size=(len(coarse), 3))
        got = up(ad.Node(xc), maps.up_map(1)).value
        row = {tuple(c): i for i, c in enumerate(coarse)}
        for j, c in enumerate(fine):
            parent = (c // 2) * 2
            oi = off2.index(tuple(c - parent))
            expect = xc[row[tuple(parent)]] @ up.weight.value[oi] + up.bias.value
            worst["transpose"] = max(worst["transpose"],
                                     float(np.abs(got[j] - expect).max()))

        # max pool vs dense oracle
        got = max_pool2(ad.Node(x), maps.pool_children(1)).value
        for j, parent in enumerate(coarse):
            kids = [table[tuple(parent + np.array(o))] for o in off2
                    if tuple(parent + np.array(o)) in table]
            expect = np.max(np.stack(kids), axis=0)
            worst["pool"] = max(worst["pool"], float(np.abs(got[j] - expect).max()))
    ok = all(v <= 1e-9 for v in worst.values())
    report(capsys, 6, ok,
           "20 patterns; max abs error " +
           ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_07_range_coder_optimality(capsys):
    rng = np.random.default_rng(7)
    # 100k-symbol skewed stream vs Shannon entropy
    p = np.array([0.55, 0.25, 0.1, 0.05, 0.03, 0.02])
    syms = rng.choice(len(p), size=100_000, p=p)
    # through the coder's two loops: one encode_spans call over the
    # symbols' spans of a shared row, one decode_table call over its copies
    def round_trip(cdf, syms):
        table = np.broadcast_to(cdf, (len(syms), len(cdf)))
        enc = rc.RangeEncoder()
        enc.encode_spans(cdf[syms], cdf[syms + 1])
        data = enc.finish()
        return data, rc.RangeDecoder(data).decode_table(table)

    data, back = round_trip(lh.build_cdf_table(p)[0], syms)
    counts = np.bincount(syms, minlength=len(p)) / len(syms)
    nz = counts > 0
    entropy_bits = float(-(counts[nz] * np.log2(counts[nz])).sum() * len(syms))
    rate_ok = 8 * len(data) <= entropy_bits * 1.01 + 64
    assert np.array_equal(back, syms)

    # 1000 randomized (length, cdf) round trips
    failures = 0
    for _ in range(1000):
        m = int(rng.integers(2, 128))
        n = int(rng.integers(0, 64))
        c = lh.build_cdf_table(rng.dirichlet(np.ones(m) * 0.3))[0]
        s = rng.integers(0, m, size=n)
        if not np.array_equal(round_trip(c, s)[1], s):
            failures += 1
    ok = rate_ok and failures == 0
    report(capsys, 7, ok,
           f"100k skewed symbols: {8 * len(data)} bits vs entropy "
           f"{entropy_bits:.0f} (+1%+64 allowed); "
           f"{failures}/1000 randomized round-trip failures")


@pytest.mark.slow
def test_criterion_08_overfit_compression(capsys):
    # a voxelized PLY with natural statistics (curved surface, smooth color
    # field, mild sensor noise), written and re-read through the real
    # ingestion path, then overfit for a bounded wall-clock budget
    start = time.monotonic()
    rng = np.random.default_rng(7)
    n = 1300
    theta = rng.uniform(0, np.pi, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    r = 24 + rng.normal(0, 0.5, n)
    pos = np.stack([r * np.sin(theta) * np.cos(phi),
                    r * np.sin(theta) * np.sin(phi),
                    r * np.cos(theta)], 1) + 32
    base = np.stack([150 + 70 * np.sin(pos[:, 0] / 24.0),
                     120 + 60 * np.sin(pos[:, 1] / 22.0 + 1.0),
                     110 + 60 * np.cos(pos[:, 2] / 26.0)], 1)
    col = np.clip(base + rng.normal(0, 0.8, base.shape), 0, 255).astype(np.int64)

    import tempfile
    from pathlib import Path
    ply = Path(tempfile.mkdtemp()) / "natural.ply"
    pc_io.write_ply(pc_io.PointCloud(pos, col), ply)
    tensor = pc_io.voxelize(pc_io.read_ply(ply), 6)
    block_obj = max(pc_io.partition_blocks(tensor, 64),
                    key=lambda b: len(b.tensor))
    block = (block_obj.tensor.coords,
             block_obj.tensor.features.astype(np.int64))

    cfg = ModelConfig(hidden=16, res_blocks=2, mixtures=4)
    model = codec.CodecModel(cfg, seed=0)
    # single-block overfit: one epoch = one step, so stretch the lr decay
    tc = trainer.TrainConfig(max_epochs=5000, patience=800, seed=0,
                             lr=2e-3, lr_decay=0.9, lr_decay_interval=200)
    ckpt = trainer.train([block], tc, model=model, time_budget_s=1200)
    stream = codec.encode(block[0], block[1], ckpt.model)
    bpp = codec.measure_bpp(stream, len(block[0]))
    elapsed = time.monotonic() - start
    ok = bpp < 12.0 and elapsed < 1800
    report(capsys, 8, ok,
           f"{len(block[0])}-point 64^3 block: {bpp:.2f} bpp after "
           f"{ckpt.metadata['epochs_run']} steps in {elapsed:.0f}s "
           f"(gate < 12 bpp, < 1800s; raw 24 bpp)")
    # the trained model still round-trips losslessly
    assert np.array_equal(codec.decode(block[0], stream, ckpt.model),
                          block[1][sort_coords(block[0])])


def test_criterion_09_scalable_prefix(capsys):
    rng = np.random.default_rng(9)
    model = codec.CodecModel(SMALL, seed=10)
    coords = np.unique(rng.integers(0, 16, size=(250, 3)), axis=0)
    rgb = rng.integers(0, 256, size=(len(coords), 3))
    stream = codec.encode(coords, rgb, model)
    lengths = codec.chunk_lengths(stream)
    prefix = codec.truncate_bitstream(stream, 3)  # drop the F chunk
    mean = codec.decode_scalable(coords, prefix, model, mode="mean")
    s1 = codec.decode_scalable(coords, prefix, model, mode="sample", seed=4)
    s2 = codec.decode_scalable(coords, prefix, model, mode="sample", seed=4)
    decodes_ok = (mean.shape == s1.shape == (len(coords), 3)
                  and np.array_equal(s1, s2)
                  and mean.min() >= 0 and mean.max() <= 255)
    # the prefix carries exactly the header + first three framed chunks
    hdr = codec.header_size(model.config.num_scales)
    expect_prefix = hdr + sum(lengths[:3]) + 8 * 3
    ratio_exact = len(prefix) == expect_prefix and \
        len(stream) == hdr + sum(lengths) + 8 * 4
    share = len(prefix) / len(stream)
    ok = decodes_ok and ratio_exact
    # full-scale reference from the literature: dropping F keeps ~27% of the
    # bits (2.83/10.49 bpp); at this toy scale the latents are untrained, so
    # the share is reported rather than gated
    report(capsys, 9, ok,
           f"mean+sample decodes OK; prefix share {share:.1%} "
           f"(bytes {len(prefix)}/{len(stream)}, exact; "
           f"full-scale reference ~27%)")


def test_criterion_10_determinism(capsys):
    rng = np.random.default_rng(10)
    model = codec.CodecModel(SMALL, seed=10)
    coords = np.unique(rng.integers(0, 16, size=(300, 3)), axis=0)
    rgb = rng.integers(0, 256, size=(len(coords), 3))
    s1, d1 = codec.encode(coords, rgb, model, debug=True)
    s2, d2 = codec.encode(coords, rgb, model, debug=True)
    _, d3 = codec.decode(coords, s1, model, debug=True)
    ok = s1 == s2 and d1.cdf_sha256 == d2.cdf_sha256 == d3.cdf_sha256
    report(capsys, 10, ok,
           f"re-encode byte-identical ({len(s1)} bytes); encode/decode CDF "
           f"hash {d1.cdf_sha256[:16]}... identical")
