import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcac import autodiff as ad
from pcac import likelihood as lh
from pcac.errors import DegeneratePmf, ShapeMismatch, SymbolOutOfRange


def test_symbol_grids():
    g = lh.SymbolGrid(26)
    assert g.half_width == pytest.approx(0.04)
    np.testing.assert_allclose(np.diff(g.centers), 0.08)
    assert lh.RGB_GRID.num_symbols == 256
    # RGB grid maps symbol m to m/127.5 - 1
    np.testing.assert_allclose(lh.RGB_GRID.centers,
                               np.arange(256) / 127.5 - 1.0)


def test_dlm_pmf_single_component_matches_sigmoid_oracle():
    # [DERIVED] K=1, mu=0, s=0.1 on the RGB grid: interior bin m has mass
    # sigmoid((e_{m+1})/s) - sigmoid((e_m)/s) with e_m = center - 1/255.
    s = 0.1
    pmf = lh.dlm_pmf(np.zeros((1, 1)), np.zeros((1, 1)),
                     np.full((1, 1), np.log(s)), lh.RGB_GRID)[0]
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    e = lh.RGB_GRID.centers - 1.0 / 255.0
    m = 128
    expect = sig((e[m + 1]) / s) - sig((e[m]) / s)
    assert pmf[m] == pytest.approx(expect, rel=1e-12)
    # end bins absorb the tails
    assert pmf[0] == pytest.approx(sig(e[1] / s), rel=1e-12)
    assert pmf[255] == pytest.approx(1.0 - sig(e[255] / s), rel=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_dlm_pmf_normalizes(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 11))
    shape = (int(rng.integers(1, 8)), k)
    for grid in (lh.SymbolGrid(26), lh.RGB_GRID):
        pmf = lh.dlm_pmf(rng.normal(size=shape) * 3, rng.normal(size=shape) * 2,
                         rng.normal(size=shape) * 4, grid)
        assert np.all(pmf >= 0)
        np.testing.assert_allclose(pmf.sum(-1), 1.0, atol=1e-9)


def reference_dlm_pmf(weight_logits, means, log_scales, grid):
    # the pmf is the difference of the coder's mixture CDF at the bin edges,
    # clipped to at most 1, with the end edges at 0 and 1
    w, mu, s = lh.mixture_terms(weight_logits, means, log_scales)
    M = grid.num_symbols
    cdf = np.empty(means.shape[:-1] + (M + 1,))
    cdf[..., 0] = 0.0
    cdf[..., 1:M] = np.minimum(lh.mixture_cdf(w, mu, s, grid.edges[1:]), 1.0)
    cdf[..., M] = 1.0
    return np.diff(cdf, axis=-1)


@pytest.mark.parametrize("grid", [lh.RGB_GRID, lh.SymbolGrid(26)],
                         ids=["rgb", "latent"])
@pytest.mark.parametrize("k", [1, 4, 10])
def test_dlm_pmf_matches_out_of_place_reference(grid, k):
    rng = np.random.default_rng(k)
    n = 300
    w = rng.normal(size=(n, k)) * 3
    mu = rng.normal(size=(n, k)) * 1.5
    ls = rng.normal(size=(n, k)) * 2 - 3
    ls[:40] = lh.LOG_SCALE_MIN - rng.uniform(0.1, 20, size=(40, k))
    mu[40:80] = rng.choice([-1, 1], size=(40, k)) * rng.uniform(1.5, 1e3, (40, k))
    cases = [(w, mu, ls), (w[:1], mu[:1], ls[:1]), (w[:0], mu[:0], ls[:0]),
             (w.reshape(60, 5, k), mu.reshape(60, 5, k), ls.reshape(60, 5, k))]
    for args in cases:
        pmf = lh.dlm_pmf(*args, grid)
        assert pmf.shape == args[0].shape[:-1] + (grid.num_symbols,)
        assert np.array_equal(pmf, reference_dlm_pmf(*args, grid))
        # F can round above 1; the clip keeps every end bin non-negative
        assert np.all(pmf >= 0)
    # the saturated end bins are present: all mass in the first or last bin
    pmf = lh.dlm_pmf(w, mu, ls, grid)
    far = np.all(np.abs(mu[40:80]) - 1 > 20 * np.exp(ls[40:80]), axis=-1)
    assert far.sum() > 10
    assert np.allclose(pmf[40:80][far][:, [0, -1]].sum(axis=-1), 1.0)
    # rows are independent: a batch equals its slices, bit for bit
    slices = np.concatenate([lh.dlm_pmf(w[lo:lo + 7], mu[lo:lo + 7],
                                        ls[lo:lo + 7], grid)
                             for lo in range(0, n, 7)])
    assert np.array_equal(pmf, slices)


def test_rgb_joint_enumeration_sums_to_one():
    # [DERIVED] brute force: sum over all (r,g,b) on an 8-symbol grid
    rng = np.random.default_rng(0)
    k = 3
    params = rng.normal(size=(2, 12 * k))
    grid = lh.SymbolGrid(8)
    idx = np.stack(np.meshgrid(*[np.arange(8)] * 3, indexing="ij"), -1).reshape(-1, 3)
    for row in range(2):
        p = np.repeat(params[row:row + 1], len(idx), axis=0)
        lp = lh.rgb_joint_logprob(p, idx[:, 0], idx[:, 1], idx[:, 2],
                                  num_mixtures=k, grid=grid)
        assert np.exp(lp).sum() == pytest.approx(1.0, abs=1e-9)


def test_rgb_conditioning_shifts_means():
    # with c_gr -> tanh(large) ~ 1, the green mean tracks red's center
    # exactly; red symbols 64 and 191 have centers -0.498 and 0.498
    k = 1
    params = np.zeros((1, 12))
    params[0, 7] = np.log(0.02)  # sharp green scale so the mode is visible
    params[0, 9] = 50.0  # c_gr ~ 1
    u = lh.unpack_rgb_params(params, k)
    assert u[3][0, 0, 0] == pytest.approx(1.0)
    p_low = lh.rgb_channel_pmf(u, [np.array([64])], lh.RGB_GRID)
    p_high = lh.rgb_channel_pmf(u, [np.array([191])], lh.RGB_GRID)
    # mode moves with the conditioning value
    assert abs(lh.RGB_GRID.centers[p_low.argmax()] - (-0.5)) < 0.02
    assert abs(lh.RGB_GRID.centers[p_high.argmax()] - 0.5) < 0.02


def test_unpack_validates_widths():
    with pytest.raises(ShapeMismatch):
        lh.unpack_latent_params(np.zeros((1, 7)), 5, 10)
    with pytest.raises(ShapeMismatch):
        lh.unpack_rgb_params(np.zeros((1, 100)), 10)
    with pytest.raises(SymbolOutOfRange):
        lh.rgb_joint_logprob(np.zeros((1, 120)), [256], [0], [0])


def sigmoid_form_bits(w_logits, means, log_scales, symbols, grid,
                      floor=lh.PROB_FLOOR):
    """-log2 p of each symbol in plain numpy, by the sigmoid-form arithmetic
    the training graph used before its one-node likelihood: per component
    sigmoid((e - mu) * exp(-max(log_scale, LOG_SCALE_MIN))) at the bin's
    edges, the bottom bin's lower and the top bin's upper CDF pinned to 0
    and 1, softmax weights, and p floored at `floor`. [DERIVED] oracle."""
    M = grid.num_symbols
    lo = grid.edges[symbols][..., None]
    hi = grid.edges[np.minimum(symbols + 1, M - 1)][..., None]
    inv_s = np.exp(-np.maximum(log_scales, lh.LOG_SCALE_MIN))
    sig = lambda z: 0.5 * (np.tanh(0.5 * z) + 1.0)
    upper = np.where((symbols == M - 1)[..., None], 1.0,
                     sig((hi - means) * inv_s))
    lower = np.where((symbols == 0)[..., None], 0.0,
                     sig((lo - means) * inv_s))
    z = np.exp(w_logits - w_logits.max(axis=-1, keepdims=True))
    w = z / z.sum(axis=-1, keepdims=True)
    p = (w * (upper - lower)).sum(axis=-1)
    return -np.log2(np.maximum(p, floor))


def test_latent_bits_node_matches_numpy_path():
    # the one-node likelihood against the sigmoid-form arithmetic, with
    # both saturated end bins present
    rng = np.random.default_rng(1)
    n, c, k = 7, 5, 4
    grid = lh.SymbolGrid(26)
    params = rng.normal(size=(n, c * 3 * k)) * 2
    symbols = rng.integers(0, 26, size=(n, c))
    symbols[0], symbols[1] = 0, 25
    node = lh.latent_bits_node(ad.Node(params), symbols, c, k, grid)
    p = params.reshape(n, c, 3 * k)
    expect = sigmoid_form_bits(p[..., :k], p[..., k:2 * k], p[..., 2 * k:],
                               symbols, grid).sum()
    assert float(node.value) == pytest.approx(expect, rel=1e-12)


def test_rgb_bits_node_matches_joint_logprob():
    rng = np.random.default_rng(2)
    n, k = 9, 3
    params = rng.normal(size=(n, 12 * k))
    r, g, b = (rng.integers(0, 256, size=n) for _ in range(3))
    r[0], g[0], b[0] = 0, 255, 0
    r[1], g[1], b[1] = 255, 0, 255
    node = lh.rgb_bits_node(ad.Node(params), r, g, b, k)
    p = params.reshape(n, k, 12)
    x_r = lh.RGB_GRID.centers[r][:, None]
    x_g = lh.RGB_GRID.centers[g][:, None]
    mu_g = p[..., 4] + np.tanh(p[..., 9]) * x_r
    mu_b = p[..., 5] + (np.tanh(p[..., 10]) * x_r + np.tanh(p[..., 11]) * x_g)
    expect = sum(
        sigmoid_form_bits(p[..., i], mu, p[..., 6 + i], sym, lh.RGB_GRID).sum()
        for i, (mu, sym) in enumerate(((p[..., 3], r), (mu_g, g), (mu_b, b))))
    assert float(node.value) == pytest.approx(expect, rel=1e-12)
    # and the coding path's pmfs give the same total
    joint = -lh.rgb_joint_logprob(params, r, g, b, k).sum() / np.log(2)
    assert float(node.value) == pytest.approx(joint, rel=1e-12)


def assert_grad_matches_fd(bits_node, params, h=1e-6):
    """Central differences of every entry, at criterion 4's tolerance."""
    node = ad.Node(params)
    ad.backward(bits_node(node))
    for i in np.ndindex(params.shape):
        pp, pm = params.copy(), params.copy()
        pp[i] += h
        pm[i] -= h
        fd = (float(bits_node(ad.Node(pp)).value)
              - float(bits_node(ad.Node(pm)).value)) / (2 * h)
        an = node.grad[i]
        assert abs(fd - an) <= max(1e-4 * max(abs(fd), abs(an)), 1e-7), \
            (i, fd, an)
    return node.grad


def test_bits_nodes_gradients_match_fd():
    # [DERIVED] finite differences through both heads. Row 0 codes the
    # bottom and top symbols (saturated edges); row 1 has every log-scale
    # below LOG_SCALE_MIN, with means near the coded bins, where p is not
    # a difference of two CDFs rounded near 0 or 1; in row 2 one channel's
    # symbol lies so far from every mean that p, though above 0, is
    # floored at PROB_FLOOR
    rng = np.random.default_rng(3)
    n, c, k = 4, 2, 2
    grid = lh.SymbolGrid(26)
    params = rng.normal(size=(n, c, 3 * k))
    symbols = rng.integers(1, 25, size=(n, c))
    symbols[0] = [0, 25]
    params[1, :, 2 * k:] = lh.LOG_SCALE_MIN - rng.uniform(0.5, 3, (c, k))
    params[1, :, k:2 * k] = grid.centers[symbols[1]][:, None] \
        + rng.uniform(-0.05, 0.05, (c, k))
    symbols[2, 0] = 0
    params[2, 0, k:2 * k] = grid.edges[1] + 0.03
    params[2, 0, 2 * k:] = lh.LOG_SCALE_MIN
    params = params.reshape(n, -1)
    row = (params[2, :k], params[2, k:2 * k], params[2, 2 * k:3 * k],
           symbols[2, 0], grid)
    assert -np.log2(lh.PROB_FLOOR) < sigmoid_form_bits(*row, floor=0) < 100
    grad = assert_grad_matches_fd(
        lambda p: lh.latent_bits_node(p, symbols, c, k, grid), params)
    assert np.all(grad[1].reshape(c, 3 * k)[:, 2 * k:] == 0)
    assert np.all(grad[2, :3 * k] == 0)

    n, k = 4, 2
    params = rng.normal(size=(n, k, 12))
    r, g, b = (rng.integers(1, 255, size=n) for _ in range(3))
    r[0], g[0], b[0] = 0, 255, 0
    params[1, :, 6:9] = lh.LOG_SCALE_MIN - rng.uniform(0.5, 3, (k, 3))
    x_r, x_g, x_b = lh.RGB_GRID.centers[[r[1], g[1], b[1]]]
    c_gr, c_br, c_bg = np.tanh(params[1, :, 9:]).T
    shift = np.stack([0 * c_gr, c_gr * x_r, c_br * x_r + c_bg * x_g], -1)
    params[1, :, 3:6] = np.array([x_r, x_g, x_b]) - shift \
        + rng.uniform(-0.006, 0.006, (k, 3))
    r[2] = 255
    params[2, :, 3] = lh.RGB_GRID.edges[255] - 0.03
    params[2, :, 6] = lh.LOG_SCALE_MIN
    row = (params[2, :, 0], params[2, :, 3], params[2, :, 6], r[2],
           lh.RGB_GRID)
    assert -np.log2(lh.PROB_FLOOR) < sigmoid_form_bits(*row, floor=0) < 100
    grad = assert_grad_matches_fd(
        lambda p: lh.rgb_bits_node(p, r, g, b, k), params.reshape(n, -1))
    grad = grad.reshape(n, k, 12)
    assert np.all(grad[1, :, 6:9] == 0)
    assert np.all(grad[2, :, [0, 3, 6]] == 0)
    assert np.any(grad[2, :, 9:] != 0)


def test_uniform_bits():
    assert lh.uniform_bits(10, 5, 26) == pytest.approx(50 * np.log2(26))


def test_cdf_table_uniform_example():
    # [DERIVED] 4 equal bins: budget 65532 -> 16383 each + guaranteed 1
    cdf = lh.build_cdf_table(np.full(4, 0.25))
    assert cdf.tolist() == [[0, 16384, 32768, 49152, 65536]]


def test_cdf_table_floor_and_total():
    pmf = np.array([0.999999, 1e-6, 0.0, 0.0])
    pmf = pmf / pmf.sum()
    cdf = lh.build_cdf_table(pmf)[0]
    freq = np.diff(cdf)
    assert freq.min() >= 1  # every symbol stays codable
    assert cdf[-1] == 65536 and cdf[0] == 0
    assert np.all(np.diff(cdf) > 0)


def test_cdf_table_kl_is_small():
    rng = np.random.default_rng(4)
    pmf = rng.dirichlet(np.ones(26), size=50)
    cdf = lh.build_cdf_table(pmf)
    q = np.diff(cdf, axis=-1) / 65536.0
    kl = (pmf * np.log2(pmf / q)).sum(axis=-1)
    assert np.all(kl < 1e-3)


def test_cdf_table_rejects_bad_pmfs():
    with pytest.raises(DegeneratePmf):
        lh.build_cdf_table(np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(DegeneratePmf):
        lh.build_cdf_table(np.array([1.5, -0.5]))
    with pytest.raises(DegeneratePmf):
        lh.build_cdf_table(np.array([np.nan, 1.0]))
    with pytest.raises(DegeneratePmf):
        lh.build_cdf_table(np.array([1.0]))


def test_cdf_table_deterministic_tie_break():
    # [DERIVED] six equal masses: floor(j/6 * 65530) + j at the edges
    # j = 0..6 is 0, 10922, 21845, 32768, 43690, 54613, 65536
    cdf1 = lh.build_cdf_table(np.full(6, 1 / 6))
    cdf2 = lh.build_cdf_table(np.full(6, 1 / 6))
    np.testing.assert_array_equal(cdf1, cdf2)
    assert np.diff(cdf1[0]).tolist() == [10922, 10923, 10923, 10922, 10923,
                                         10923]


def _floor_cdf_row(row):
    """One table row by the coder's rule, in plain Python: edge m gets
    floor(P[m] * (2^16 - M)) + m, P the cumulative sums of the normalized
    row, fixed at 0 and 1 at the end edges. Only the cumulative sum uses
    numpy, because the table must reproduce its float rounding."""
    M = len(row)
    P = [0.0, *np.cumsum(row / row.sum()).tolist()[:-1], 1.0]
    return [math.floor(float(P[m]) * (65536 - M)) + m for m in range(M + 1)]


def _reference_cdf_row(row, precision_bits=16):
    """A largest-remainder row, a near-optimal rounding to compare rates
    with, in plain Python: floor, then one bonus slot per symbol in
    (-remainder, index) order while the budget lasts, plus the guaranteed
    1."""
    M = len(row)
    budget = (1 << precision_bits) - M
    scaled = (row / row.sum() * budget).tolist()
    base = [math.floor(x) for x in scaled]
    frac = [x - b for x, b in zip(scaled, base)]
    leftover = budget - sum(base)
    freq = [b + 1 for b in base]
    for i in sorted(range(M), key=lambda i: (-frac[i], i))[:max(leftover, 0)]:
        freq[i] += 1
    return [0, *itertools.accumulate(freq)]


@pytest.mark.parametrize("M", [2, 3, 26, 256])
def test_cdf_table_matches_reference(M):
    rng = np.random.default_rng(M)
    counts = rng.integers(0, 4, size=(40, M)).astype(np.float64)
    counts[:, 0] += 1
    k = 3
    cases = {
        # small integer counts: many cumulative sums land on exact fractions
        "tie-heavy": counts / counts.sum(axis=-1, keepdims=True),
        # M equal masses, cumulative sums j / M
        "uniform": np.full((1, M), 1.0 / M),
        # the whole budget lands on one symbol
        "one-hot": np.eye(M)[:8],
        "dirichlet": rng.dirichlet(np.full(M, 0.3), size=40),
        "dlm": lh.dlm_pmf(rng.normal(size=(40, k)),
                          rng.uniform(-1.2, 1.2, size=(40, k)),
                          rng.uniform(-7.0, 0.5, size=(40, k)),
                          lh.SymbolGrid(M)),
    }
    for name, pmf in cases.items():
        expected = [_floor_cdf_row(row) for row in pmf]
        assert lh.build_cdf_table(pmf).tolist() == expected, name


# ------------------------------------------------------- pointwise coder CDF

def random_mixture(rng, shape, k):
    """Weight logits, means (a fifth of them up to +-1000) and log-scales
    reaching below LOG_SCALE_MIN, each shape + (k,)."""
    size = shape + (k,)
    means = rng.normal(size=size) * 1.5
    far = rng.random(size) < 0.2
    means[far] = rng.uniform(-1000, 1000, size=far.sum())
    return (rng.normal(size=size) * 3, means,
            rng.uniform(lh.LOG_SCALE_MIN - 5, 2, size=size))


def test_tanh_bulk_equals_elementwise(dtype=np.float64):
    # the one transcendental ufunc of the coder's CDF: bulk, strided,
    # odd-length and one-element calls give the same bits
    rng = np.random.default_rng(6)
    x = np.concatenate([rng.normal(size=4001) * 4,
                        rng.uniform(-40, 40, 999)]).astype(dtype)
    bulk = np.tanh(x)
    assert np.tanh(x[::3]).tobytes() == bulk[::3].tobytes()
    assert np.tanh(x[5:12]).tobytes() == bulk[5:12].tobytes()
    assert np.tanh(x.reshape(50, 100).T).tobytes() == \
        bulk.reshape(50, 100).T.tobytes()
    one = np.array([np.tanh(x[i:i + 1])[0] for i in range(len(x))])
    assert one.tobytes() == bulk.tobytes()


def test_tanh_bulk_equals_elementwise_float32():
    test_tanh_bulk_equals_elementwise(np.float32)


GRIDS = pytest.mark.parametrize("grid", [lh.RGB_GRID, lh.SymbolGrid(26)],
                                ids=["rgb", "latent"])
MIXTURE_SIZES = pytest.mark.parametrize("k", [1, 4, 10])


@GRIDS
@MIXTURE_SIZES
def test_mixture_cdf_is_pointwise(grid, k, dtype=np.float64):
    # F at a symbol's two edges, at one edge at a time and over whole rows
    # in bulk: the same bits, on contiguous, strided and odd-length inputs
    rng = np.random.default_rng(k + grid.num_symbols)
    M = grid.num_symbols
    n = 301
    w, mu, s = lh.mixture_terms(*(a.astype(dtype)
                                  for a in random_mixture(rng, (n,), k)))
    full = lh.mixture_cdf(w, mu, s, grid.cdf_edges)
    assert full.shape == (n, M + 1) and full.dtype == dtype
    rows = np.arange(n)
    sym = rng.integers(0, M, size=n)
    two = lh.mixture_cdf(w, mu, s, grid.cdf_edges[np.stack([sym, sym + 1], -1)])
    assert two.tobytes() == np.stack([full[rows, sym], full[rows, sym + 1]],
                                     axis=-1).tobytes()
    for part in (slice(0, 7), slice(1, n, 2), slice(n - 7, n), slice(5, 6)):
        got = lh.mixture_cdf(w[part], mu[part], s[part], grid.cdf_edges)
        assert got.tobytes() == full[part].tobytes()
    fortran = [np.asfortranarray(a) for a in (w, mu, s)]
    assert lh.mixture_cdf(*fortran, grid.cdf_edges).tobytes() == \
        full.tobytes()
    # (60, 5) points x channels, as a latent pass holds them
    shaped = [a[:300].reshape(60, 5, k) for a in (w, mu, s)]
    assert lh.mixture_cdf(*shaped, grid.cdf_edges).tobytes() == \
        full[:300].reshape(60, 5, M + 1).tobytes()
    for r in range(0, n, 43):
        one = [lh.mixture_cdf(w[r:r + 1], mu[r:r + 1], s[r:r + 1],
                              grid.cdf_edges[e:e + 1])[0, 0]
               for e in range(M + 1)]
        assert np.array(one).tobytes() == full[r].tobytes()


def test_mixture_cdf_matches_logistic_oracle():
    # [DERIVED] F(e) = sum_k w_k / (1 + exp(-(e - mu_k) / s_k))
    rng = np.random.default_rng(3)
    w, mu, s = lh.mixture_terms(rng.normal(size=(20, 3)),
                                rng.normal(size=(20, 3)),
                                rng.uniform(-4, 0, size=(20, 3)))
    e = rng.uniform(-1.5, 1.5, size=(20, 9))
    oracle = (w[:, :, None] / (1 + np.exp(-(e[:, None, :] - mu[..., None])
                                          / s[..., None]))).sum(axis=1)
    np.testing.assert_allclose(lh.mixture_cdf(w, mu, s, e), oracle,
                               rtol=0, atol=1e-14)


@GRIDS
@MIXTURE_SIZES
def test_mixture_cdf_is_pointwise_float32(grid, k):
    test_mixture_cdf_is_pointwise(grid, k, np.float32)


@MIXTURE_SIZES
def test_mixture_terms_of_a_row_slice_are_the_slice_of_its_terms(k):
    # a file's blocks share one pass: the decoder takes each block's terms
    # from its own rows and the encoder from the whole pass, so they must
    # agree bit for bit, on the latent (N, C, K) views and the strided RGB
    # (N, K) channels, for 1 row, a few and many
    rng = np.random.default_rng(40 + k)
    n = 613
    head = rng.normal(scale=3, size=(n, 5 * 3 * k)).astype(np.float32)
    rgb_head = rng.normal(scale=3, size=(n, 12 * k)).astype(np.float32)
    coded = [rng.integers(0, 256, size=n) for _ in range(2)]
    passes = [lh.unpack_latent_params(head, 5, k)] + [
        lh.rgb_channel_params(lh.unpack_rgb_params(rgb_head, k), coded[:c])
        for c in range(3)]
    for params in passes:
        whole = lh.mixture_terms(*params)
        for part in (slice(0, 1), slice(5, 6), slice(3, 77), slice(77, n)):
            terms = lh.mixture_terms(*(p[part] for p in params))
            for got, full in zip(terms, whole):
                assert got.dtype == np.float32
                assert got.tobytes() == full[part].tobytes()


@GRIDS
def test_pointwise_cdf_rows_are_valid(grid, dtype=np.float64):
    # the rule floor(F(e_m) * (2^16 - M)) + m: rows run from 0 to 2^16 and
    # every symbol keeps a width of at least 1, for K = 1..10, scales below
    # the clamp and means up to +-1000
    rng = np.random.default_rng(grid.num_symbols)
    M = grid.num_symbols
    edges = np.arange(M + 1)
    for k in range(1, 11):
        raw = random_mixture(rng, (200,), k)
        w, mu, s = lh.mixture_terms(*(a.astype(dtype) for a in raw))
        rows = lh.pointwise_cdf(w, mu, s, grid, edges)
        assert rows.dtype == np.int64 and rows.shape == (200, M + 1)
        assert np.all(rows[:, 0] == 0) and np.all(rows[:, M] == 1 << 16)
        assert np.diff(rows, axis=-1).min() >= 1
        # the product is exact in float64 for either dtype of F
        F = lh.mixture_cdf(w, mu, s, grid.cdf_edges).astype(np.float64)
        interior = np.floor(F[:, 1:M] * ((1 << 16) - M)).astype(np.int64)
        np.testing.assert_array_equal(rows[:, 1:M], interior + edges[1:M])
        # the rate the rule costs over the exact (float64) pmf of the same
        # raw parameters: as small as that of largest-remainder rounding
        p = lh.dlm_pmf(*(a.astype(dtype).astype(np.float64) for a in raw),
                       grid)

        def kl(cdf):
            q = np.diff(cdf, axis=-1) / 65536.0
            return (p * np.log2(np.maximum(p, 1e-300) / q)).sum(axis=-1)

        assert kl(rows).max() < 1e-2
        optimal = np.array([_reference_cdf_row(row) for row in p])
        assert kl(rows).mean() < kl(optimal).mean() + 1e-4


@GRIDS
def test_pointwise_cdf_rows_are_valid_float32(grid):
    test_pointwise_cdf_rows_are_valid(grid, np.float32)


def test_pointwise_cdf_rejects_non_finite_mixtures():
    w, mu, s = lh.mixture_terms(np.zeros((2, 2)), np.zeros((2, 2)),
                                np.zeros((2, 2)))
    mu[1, 0] = np.nan
    with pytest.raises(DegeneratePmf):
        lh.pointwise_cdf(w, mu, s, lh.RGB_GRID, np.arange(257))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16, int],
                         ids=["float64", "float32", "float16", "int"])
def test_coding_steps_keep_float32(dtype):
    # float32 parameters stay float32 through unpacking, the mixture and the
    # RGB mean shifts, whose grid values would otherwise promote them to
    # float64; anything else is computed in float64, as before
    rng = np.random.default_rng(9)
    want = np.float32 if dtype == np.float32 else np.float64
    k, n = 3, 40
    latent = lh.unpack_latent_params(
        (rng.normal(size=(n, 2 * 3 * k)) * 2).astype(dtype), 2, k)
    assert all(a.dtype == want for a in latent)
    w, mu, s = lh.mixture_terms(*latent)
    assert w.dtype == mu.dtype == s.dtype == want
    assert lh.mixture_cdf(w, mu, s, lh.SymbolGrid(26).cdf_edges).dtype == want
    u = lh.unpack_rgb_params((rng.normal(size=(n, 12 * k)) * 2).astype(dtype),
                             k)
    assert all(a.dtype == want for a in u)
    coded = [rng.integers(0, 256, n) for _ in range(2)]
    for ch in range(3):
        terms = lh.mixture_terms(*lh.rgb_channel_params(u, coded[:ch]))
        assert all(a.dtype == want for a in terms)
        rows = lh.pointwise_cdf(*terms, lh.RGB_GRID, np.arange(257))
        assert rows.dtype == np.int64
        assert np.diff(rows, axis=-1).min() >= 1


# `_half_logits` and `mixture_cdf` as written with np.moveaxis, whose
# (K, ..., E) buffer numpy laid out point-major
def _moveaxis_k_first(a):
    return np.moveaxis(a, -1, 0)[..., None]


def _moveaxis_half_logits(mu, s, edges):
    t = np.subtract(np.asarray(edges, dtype=mu.dtype), _moveaxis_k_first(mu))
    np.multiply(t, _moveaxis_k_first(0.5 / s), out=t)
    return t


def _moveaxis_mixture_cdf(w, mu, s, edges):
    t = _moveaxis_half_logits(mu, s, edges)
    np.tanh(t, out=t)
    np.add(t, 1.0, out=t)
    np.multiply(t, _moveaxis_k_first(0.5 * w), out=t)
    cdf = t[0].copy()
    for term in t[1:]:
        cdf += term
    return cdf


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_k_first_layout_is_bit_exact(dtype):
    # the C-contiguous (K, ..., E) buffer gives bit for bit the values of
    # the moveaxis layout, for latent (N, C, K) and RGB (N, K) mixtures, at
    # two edges per symbol and at full rows, on 0, 1 and many rows
    rng = np.random.default_rng(30)
    for lead, grid in (((), lh.RGB_GRID), ((5,), lh.SymbolGrid(26))):
        for n in (0, 1, 45):
            shape = (n, *lead, 10)
            w, mu, s = lh.mixture_terms(
                *(rng.normal(size=shape).astype(dtype) for _ in range(3)))
            sym = rng.integers(0, grid.num_symbols, size=shape[:-1])
            two = grid.cdf_edges[np.stack([sym, sym + 1], axis=-1)]
            for edges in (two, grid.cdf_edges):
                t = lh._half_logits(mu, s, edges)
                assert t.flags.c_contiguous and t.dtype == dtype
                assert np.array_equal(t, _moveaxis_half_logits(mu, s, edges))
                cdf = lh.mixture_cdf(w, mu, s, edges)
                assert cdf.dtype == dtype
                assert np.array_equal(
                    cdf, _moveaxis_mixture_cdf(w, mu, s, edges))
