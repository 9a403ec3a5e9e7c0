import numpy as np
import pytest

from pcac import autodiff as ad
from pcac import sparse_nn
from pcac.errors import ShapeMismatch
from pcac.sparse_nn import (KernelMapCache, ModelConfig, ResidualBlock,
                            ScaleDecoder, ScaleEncoder, SparseConv,
                            build_kernel_map, kernel_offsets, max_pool2)
from pcac.tensor_core import COORD_BITS, build_pyramid, sort_coords


def random_pattern(rng, extent=8, lo=4, hi=40):
    n = int(rng.integers(lo, hi))
    return np.unique(rng.integers(0, extent, size=(n, 3)), axis=0)


def dense_conv_oracle(coords, feats, weights, bias, offsets, dilation=1):
    """[DERIVED] brute-force dense oracle: absent voxels contribute zero."""
    table = {tuple(c): f for c, f in zip(coords, feats)}
    out = np.tile(bias, (len(coords), 1)).astype(np.float64)
    for j, c in enumerate(coords):
        for w, off in zip(weights, offsets):
            src = tuple(np.asarray(c) + np.asarray(off) * dilation)
            if src in table:
                out[j] += table[src] @ w
    return out


def test_kernel_offsets():
    assert kernel_offsets(3)[0] == (-1, -1, -1)
    assert kernel_offsets(3)[13] == (0, 0, 0)
    assert len(kernel_offsets(3)) == 27
    assert set(kernel_offsets(2)) == {(a, b, c) for a in (0, 1)
                                      for b in (0, 1) for c in (0, 1)}


def test_kernel_map_pair_counts():
    # [DERIVED] two diagonal neighbors see each other and themselves: 4 pairs
    coords = np.array([[0, 0, 0], [1, 1, 1]])
    fmap = build_kernel_map(coords, coords, 3, 1)
    assert len(fmap.rows_in) == len(fmap.rows_out) == 4
    # isolated points only match the center offset
    far = np.array([[0, 0, 0], [10, 10, 10]])
    fmap = build_kernel_map(far, far, 3, 1)
    assert fmap.offset_slices == [(0, 2, 13)]


class ReferenceMap:
    """[DERIVED] the per-offset construction: one direct lookup per offset,
    each column's present entries (col[col >= 0]) paired with their rows
    (flatnonzero), concatenated over the offsets that have pairs. With
    `swap`, entries are outputs and rows inputs (the up map)."""

    def __init__(self, index, coords, offsets, step, n_in, n_out,
                 swap=False):
        self.n_in, self.n_out = n_in, n_out
        self.offset_slices = []
        parts_in, parts_out = [], []
        start = 0
        for oi, off in enumerate(offsets):
            col = index.lookup(coords + np.multiply(off, step))
            entries, rows = col[col >= 0], np.flatnonzero(col >= 0)
            if swap:
                entries, rows = rows, entries
            if len(rows):
                parts_in.append(entries)
                parts_out.append(rows)
                self.offset_slices.append((start, start + len(rows), oi))
                start += len(rows)
        self.rows_in = np.concatenate(parts_in + [np.empty(0, np.int64)])
        self.rows_out = np.concatenate(parts_out + [np.empty(0, np.int64)])


def assert_same_map(got, expect):
    assert (got.n_in, got.n_out) == (expect.n_in, expect.n_out)
    assert got.offset_slices == expect.offset_slices
    assert all(type(v) is int for s in got.offset_slices for v in s)
    for a, b in ((got.rows_in, expect.rows_in), (got.rows_out, expect.rows_out)):
        assert a.dtype == np.int64 and a.flags.c_contiguous
        np.testing.assert_array_equal(a, b)


def reference_geometries(rng):
    """Random pyramids with negative coordinates, x up to 2^20 - 1 where +x
    offsets step past the edge, single points and isolated points (whose
    maps have offsets with no pairs)."""
    edge = (1 << COORD_BITS) - 1
    yield np.array([[0, 0, 0]])
    yield np.array([[-(1 << COORD_BITS), edge, 7]])
    yield np.array([[0, 0, 0], [40, 40, 40], [-40, 8, 3]])
    for trial in range(12):
        n = int(rng.integers(1, 400))
        coords = rng.integers(-40, 40, size=(n, 3))
        coords[: n // 3, 0] = edge - rng.integers(0, 5, n // 3)
        yield np.unique(coords, axis=0)


def test_cached_maps_equal_direct_lookups():
    # self maps fill offsets 14..26 by transposing 0..12 and up maps reuse
    # the pooling table; both, and build_kernel_map, must equal the
    # per-offset reference that looks up every offset
    rng = np.random.default_rng(10)
    off3, off2 = kernel_offsets(3), kernel_offsets(2)
    for geometry in reference_geometries(rng):
        pyr = build_pyramid(geometry, 3)
        maps = KernelMapCache(pyr)
        for level, c in enumerate(pyr.coords):
            s = pyr.stride(level)
            expect = ReferenceMap(pyr.indexes[level], c, off3, s,
                                  len(c), len(c))
            assert_same_map(maps.self_map(level), expect)
            assert_same_map(build_kernel_map(c, c, 3, s), expect)
        for level in range(1, len(pyr.coords)):
            fine, coarse = pyr.coords[level - 1], pyr.coords[level]
            s = pyr.stride(level - 1)
            index = pyr.indexes[level - 1]
            assert_same_map(maps.up_map(level), ReferenceMap(
                index, coarse, off2, s, len(coarse), len(fine), swap=True))
            assert_same_map(build_kernel_map(fine, coarse, 2, s), ReferenceMap(
                index, coarse, off2, s, len(fine), len(coarse)))
            children = [index.lookup(coarse + np.multiply(o, s)) for o in off2]
            np.testing.assert_array_equal(maps.pool_children(level),
                                          np.stack(children, axis=1))


def test_sparse_conv_identity_kernel():
    rng = np.random.default_rng(0)
    coords = random_pattern(rng)
    conv = SparseConv(3, 3, 3, rng)
    conv.weight.value[...] = 0.0
    conv.weight.value[13] = np.eye(3)  # center offset
    fmap = build_kernel_map(coords, coords, 3, 1)
    x = rng.normal(size=(len(coords), 3))
    out = conv(ad.Node(x), fmap)
    np.testing.assert_allclose(out.value, x, atol=1e-12)


def test_sparse_conv_matches_dense_oracle():
    # [DERIVED] 20 random 8^3 patterns against the brute-force oracle
    rng = np.random.default_rng(1)
    offsets = kernel_offsets(3)
    for trial in range(20):
        coords = random_pattern(rng)
        coords = coords[sort_coords(coords)]
        conv = SparseConv(4, 6, 3, rng)
        x = rng.normal(size=(len(coords), 4))
        conv.bias.value[...] = rng.normal(size=6)
        fmap = build_kernel_map(coords, coords, 3, 1)
        out = conv(ad.Node(x), fmap)
        expect = dense_conv_oracle(coords, x, conv.weight.value,
                                   conv.bias.value, offsets)
        np.testing.assert_allclose(out.value, expect, atol=1e-9)


def test_sparse_conv_gradients_match_fd():
    rng = np.random.default_rng(2)
    coords = np.array([[0, 0, 0], [0, 0, 1], [1, 1, 1], [3, 3, 3]])
    conv = SparseConv(2, 3, 3, rng)
    fmap = build_kernel_map(coords, coords, 3, 1)
    x = rng.normal(size=(4, 2))
    coeff = rng.normal(size=(4, 3))

    def loss_value():
        return float((conv(ad.Node(x), fmap).value * coeff).sum())

    node = ad.Node(x)
    out = conv(node, fmap)
    ad.backward(ad.sum_all(ad.mul(out, ad.Node(coeff))))
    h = 1e-6
    # input gradient
    fd = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        x[i] += h; up = loss_value()
        x[i] -= 2 * h; dn = loss_value()
        x[i] += h
        fd[i] = (up - dn) / (2 * h)
    np.testing.assert_allclose(node.grad, fd, atol=1e-6)
    # one offset's kernel + the bias
    w = conv.weight.value[13]
    fdw = np.zeros_like(w)
    for i in np.ndindex(w.shape):
        w[i] += h; up = loss_value()
        w[i] -= 2 * h; dn = loss_value()
        w[i] += h
        fdw[i] = (up - dn) / (2 * h)
    np.testing.assert_allclose(conv.weight.grad[13], fdw, atol=1e-6)
    np.testing.assert_allclose(conv.bias.grad, coeff.sum(0), atol=1e-12)

    with pytest.raises(ShapeMismatch):
        conv(ad.Node(np.zeros((4, 5))), fmap)


def test_offset_slices_repeat_no_row():
    # SparseConv adds a row's products in pair order, which is offset order
    # only if no row repeats within a slice (and the per-offset reference's
    # fancy-index assignment would keep only one of repeated rows); the rows
    # of a slice ascend, so a group of one offset sums its products without
    # reordering them
    rng = np.random.default_rng(8)
    for trial in range(10):
        coords = random_pattern(rng, extent=32, lo=50, hi=400)
        pyr = build_pyramid(coords, 3)
        maps = KernelMapCache(pyr)
        fmaps = [maps.self_map(level) for level in range(4)]
        fmaps += [maps.up_map(level) for level in range(1, 4)]
        for fmap in fmaps:
            assert fmap.offset_slices
            for a, b, _ in fmap.offset_slices:
                for rows in (fmap.rows_in[a:b], fmap.rows_out[a:b]):
                    assert (np.diff(rows) > 0).all()


def per_offset_conv(conv, xv, fmap, g):
    """[DERIVED] the per-offset loop: each offset gathers its input rows,
    multiplies by its kernel and adds into its output rows (and back for
    the gradients), in the dtype of `xv`, the input gradient in that of
    `g`. Returns (out, gx, gw)."""
    w = conv.weight.value.astype(xv.dtype, copy=False)
    out = np.zeros((fmap.n_out, conv.c_out), dtype=xv.dtype)
    gx = np.zeros((fmap.n_in, conv.c_in), dtype=g.dtype)
    gw = np.zeros_like(w)
    for a, b, oi in fmap.offset_slices:
        ri, ro = fmap.rows_in[a:b], fmap.rows_out[a:b]
        out[ro] = out[ro] + xv[ri] @ w[oi]
        gx[ri] = gx[ri] + g[ro] @ w[oi].T
        gw[oi] = xv[ri].T @ g[ro]
    out += conv.bias.value.astype(xv.dtype, copy=False)
    return out, gx, gw


def oracle_geometries(rng):
    # a dense cube (every offset used), random sparse patterns (empty
    # offsets), isolated points (only the center offset), and a lone point
    # (single-point levels all the way up)
    yield np.stack(np.meshgrid(*[np.arange(6)] * 3, indexing="ij"),
                   -1).reshape(-1, 3)
    for _ in range(3):
        yield random_pattern(rng, extent=16, lo=60, hi=300)
    yield np.array([[0, 0, 0], [9, 9, 9], [20, 3, 14], [31, 31, 0]])
    yield np.array([[5, 6, 7]])


@pytest.mark.parametrize("group_pairs", [sparse_nn.GROUP_PAIRS, 300, 0],
                         ids=["default-groups", "small-groups",
                              "offset-per-group"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sparse_conv_equals_per_offset_loop(monkeypatch, dtype, group_pairs):
    # the rank sums add the same products in the same order as the
    # per-offset loop: the output, the input gradient and the weight
    # gradient are bit for bit its, on self maps and up maps, with one
    # group of offsets or many
    monkeypatch.setattr(sparse_nn, "GROUP_PAIRS", group_pairs)
    rng = np.random.default_rng(12)
    for geometry in oracle_geometries(rng):
        maps = KernelMapCache(build_pyramid(geometry, 3))
        fmaps = [(maps.self_map(level), 3) for level in range(4)]
        fmaps += [(maps.up_map(level), 2) for level in range(1, 4)]
        # and a map without pairs: every output row is the bias
        fmaps.append((build_kernel_map(geometry, geometry + 100, 3, 1), 3))
        for fmap, k in fmaps:
            conv = SparseConv(5, 7, k, rng)
            conv.bias.value[...] = rng.normal(size=7)
            xv = rng.normal(size=(fmap.n_in, 5)).astype(dtype)
            g = rng.normal(size=(fmap.n_out, 7)).astype(dtype)
            node = conv(ad.Node(xv), fmap)
            gx, gw, gb = node.backward_fn(g)
            expect = per_offset_conv(conv, xv, fmap, g)
            for got, want in zip((node.value, gx, gw), expect):
                assert got.dtype == want.dtype == dtype
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert gb.tobytes() == g.sum(axis=0).tobytes()


def test_transpose_conv_gradients_match_fd():
    # the up map reads n_in coarse rows and writes n_out fine rows, so a
    # swapped n_in / n_out or rows_in / rows_out shows here
    rng = np.random.default_rng(9)
    coords = random_pattern(rng, lo=30, hi=60)
    pyr = build_pyramid(coords, 1)
    fmap = KernelMapCache(pyr).up_map(1)
    assert (fmap.n_in, fmap.n_out) == (len(pyr.coords[1]), len(pyr.coords[0]))
    assert fmap.n_in < fmap.n_out
    assert len(fmap.offset_slices) == 8
    conv = SparseConv(2, 3, 2, rng)
    x = rng.normal(size=(fmap.n_in, 2))
    coeff = rng.normal(size=(fmap.n_out, 3))

    def loss_value():
        return float((conv(ad.Node(x), fmap).value * coeff).sum())

    node = ad.Node(x)
    ad.backward(ad.sum_all(ad.mul(conv(node, fmap), ad.Node(coeff))))
    h = 1e-6
    for value, grad in ((x, node.grad), (conv.weight.value, conv.weight.grad)):
        fd = np.zeros_like(value)
        for i in np.ndindex(value.shape):
            value[i] += h; up = loss_value()
            value[i] -= 2 * h; dn = loss_value()
            value[i] += h
            fd[i] = (up - dn) / (2 * h)
        assert grad.shape == value.shape
        np.testing.assert_allclose(grad, fd, atol=1e-6)


def test_max_pool_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for trial in range(20):
        coords = random_pattern(rng)
        pyr = build_pyramid(coords, 1)
        maps = KernelMapCache(pyr)
        x = rng.normal(size=(len(pyr.coords[0]), 3))
        if trial % 2:  # ties between children
            x = np.round(x)
        node = ad.Node(x)
        out = max_pool2(node, maps.pool_children(1))
        g = rng.normal(size=out.value.shape)
        ad.backward(ad.sum_all(ad.mul(out, ad.Node(g))))
        # the gradient goes to the first child (kernel_offsets order) that
        # holds the maximum, per channel; every other row gets none
        expect = np.zeros_like(x)
        row = {tuple(c): i for i, c in enumerate(pyr.coords[0])}
        for j, parent in enumerate(pyr.coords[1]):
            kids = [row[tuple(parent + np.array(o))]
                    for o in kernel_offsets(2) if tuple(parent + np.array(o)) in row]
            np.testing.assert_allclose(out.value[j],
                                       np.max(x[kids], axis=0), atol=1e-12)
            for ch in range(x.shape[1]):
                first = kids[int(np.argmax(x[kids, ch] == x[kids, ch].max()))]
                expect[first, ch] = g[j, ch]
        np.testing.assert_array_equal(node.grad, expect)


def test_transpose_conv_matches_dense_oracle():
    # [DERIVED] each fine voxel has exactly one coarse parent; the up map
    # must route parent features through the offset the fine voxel occupies
    rng = np.random.default_rng(4)
    offsets = kernel_offsets(2)
    for trial in range(20):
        coords = random_pattern(rng)
        pyr = build_pyramid(coords, 1)
        maps = KernelMapCache(pyr)
        conv = SparseConv(3, 2, 2, rng)
        conv.bias.value[...] = rng.normal(size=2)
        x = rng.normal(size=(len(pyr.coords[1]), 3))
        out = conv(ad.Node(x), maps.up_map(1))
        coarse_row = {tuple(c): i for i, c in enumerate(pyr.coords[1])}
        for j, fine in enumerate(pyr.coords[0]):
            parent = (fine // 2) * 2
            oi = offsets.index(tuple(fine - parent))
            expect = x[coarse_row[tuple(parent)]] @ conv.weight.value[oi] \
                + conv.bias.value
            np.testing.assert_allclose(out.value[j], expect, atol=1e-9)


def test_residual_block_zero_weights_is_identity():
    rng = np.random.default_rng(5)
    coords = random_pattern(rng)
    block = ResidualBlock(4, rng)
    block.conv2.weight.value[...] = 0.0
    block.conv2.bias.value[...] = 0.0
    fmap = build_kernel_map(coords, coords, 3, 1)
    x = rng.normal(size=(len(coords), 4))
    out = block(ad.Node(x), fmap)
    np.testing.assert_allclose(out.value, x, atol=1e-12)


def test_model_config_head_widths():
    cfg = ModelConfig()
    assert cfg.decoder_head_width(1) == 120  # [PAPER] 12 values x 10 mixtures
    assert cfg.decoder_head_width(2) == 150  # 3 x 10 x 5 channels
    assert cfg.decoder_head_width(3) == 150
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_encoder_decoder_shapes_and_coordinate_sets():
    rng = np.random.default_rng(6)
    cfg = ModelConfig(hidden=8, res_blocks=1, mixtures=2)
    coords = random_pattern(rng, extent=16, lo=30, hi=80)
    pyr = build_pyramid(coords, cfg.num_scales)
    maps = KernelMapCache(pyr)
    x = ad.Node(rng.normal(size=(len(pyr.coords[0]), 3)))
    forwarded = None
    latents = []
    for n in range(1, 4):
        enc = ScaleEncoder(n, cfg, rng)
        latent, x = enc(x, maps)
        assert latent.value.shape == (len(pyr.coords[n]), cfg.latent_channels)
        if n == 3:  # no encoder reads the top scale's forward
            assert x is None
        else:
            assert x.value.shape == (len(pyr.coords[n]), cfg.hidden)
        latents.append(latent)
    for n in range(3, 0, -1):
        dec = ScaleDecoder(n, cfg, rng)
        params, forwarded = dec(latents[n - 1], forwarded, maps)
        assert params.value.shape == (len(pyr.coords[n - 1]),
                                      cfg.decoder_head_width(n))
        if n == 1:  # no decoder reads the bottom scale's forward
            assert forwarded is None
        else:
            assert forwarded.value.shape == (len(pyr.coords[n - 1]),
                                             cfg.hidden)


def test_named_parameters_unique_and_complete():
    rng = np.random.default_rng(7)
    cfg = ModelConfig(hidden=4, res_blocks=2, mixtures=2)
    enc = ScaleEncoder(1, cfg, rng)
    names = [n for n, _ in enc.named_parameters()]
    assert len(names) == len(set(names))
    # head + 2 blocks x 2 convs + 2 branch convs = 7 convs x (weight, bias)
    assert len(names) == 7 * 2
