"""Discretized logistic mixture models, the coder's integer CDFs, CDF tables.

Two parameterizations share the same math:
  * latents: per point, per channel, an independent K-component mixture
    (raw layout per point: channels * [K weight logits, K means, K log-scales]);
  * RGB: per point, K components of 12 values [w, mu, log s, c] x (R, G, B),
    four (N, K, 3) arrays; `rgb_channel_params`, the one place the rule is
    written, shifts each channel's means by c (through tanh) times the grid
    centers of the channels coded before it (PixelCNN++).

The mixture is written once. `mixture_terms` turns raw parameters into
weights, means and scales, and `_half_logits` gives each component's
(e - mu) * (0.5 / s), whose tanh is its CDF up to 0.5 * (. + 1). From these,
`mixture_cdf` serves coding and evaluation: the coder takes its integer
CDFs from `pointwise_cdf`, which needs F only at the edges it is asked for
and gives the encoder (two edges per symbol), the decoder (whole rows) and
the estimates of a scalable decode the same integers. For training,
`latent_bits_node` and `rgb_bits_node` each make one autodiff node of the
total -log2 p of the coded symbols, whose backward is the analytic gradient
of that likelihood. Tests, oracles and `pcac self-check` use the pmf side,
which neither codes nor trains: `dlm_pmf` (F differenced at the bin edges),
`latent_pmfs`, `rgb_channel_pmf`, `rgb_joint_logprob` and `build_cdf_table`.

Precision follows the head output (`autodiff.as_float`): `mixture_terms`,
`unpack_*_params`, `rgb_channel_params`, `mixture_cdf` and `pointwise_cdf`
keep float32 parameters in float32, as the coder passes them, and compute
anything else in float64. The grid values they mix in (the CDF edges and
the RGB centers behind the green and blue mean shifts) are cast to the
parameters' dtype, so no step promotes float32 back to float64.
`_integer_cdf`, the coder's one integer rule, scales F in float64, where
F * (2**16 - M) is exact for a float32 F. The training nodes compute in
float64 whatever the head's dtype, and return their gradients in it: in
float32 the tanh differences of tail bins would lose their digits.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import DegeneratePmf, ShapeMismatch, SymbolOutOfRange
from .range_coder import TOTAL

LOG_SCALE_MIN = -7.0
PROB_FLOOR = 1e-12
LN2 = float(np.log(2.0))


class SymbolGrid:
    """Uniform symbol grid on [-1, 1]: M bins, centers -1 + 2m/(M-1)."""

    def __init__(self, num_symbols: int):
        assert num_symbols >= 2
        self.num_symbols = num_symbols
        self.centers = np.linspace(-1.0, 1.0, num_symbols)
        self.half_width = 1.0 / (num_symbols - 1)
        # interior bin edges; the end bins absorb the tails
        self.edges = self.centers - self.half_width  # edges[1:] are interior
        # the M + 1 edges of the coder's CDF; the two end edges are
        # placeholders whose CDF values are fixed at 0 and 1
        self.cdf_edges = np.concatenate([[0.0], self.edges[1:], [0.0]])


RGB_GRID = SymbolGrid(256)


def _softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def mixture_terms(weight_logits, means, log_scales):
    """Mixture weights (softmax of the logits), means and scales
    exp(max(log_scale, LOG_SCALE_MIN)), each (..., K)."""
    w = _softmax(ad.as_float(weight_logits))
    mu = ad.as_float(means)
    s = np.exp(np.maximum(ad.as_float(log_scales), LOG_SCALE_MIN))
    return w, mu, s


def dlm_pmf(weight_logits, means, log_scales, grid: SymbolGrid):
    """Mixture pmf over grid symbols. Inputs are (..., K); output (..., M).

    The bin masses are the differences of `mixture_cdf` at the grid's edges,
    with F clipped to at most 1 and fixed at 0 and 1 at the end edges (the
    saturated end bins), so every mass is >= 0 and the pmf sums to 1 up to
    float addition error.
    """
    cdf = mixture_cdf(*mixture_terms(weight_logits, means, log_scales),
                      grid.cdf_edges)
    np.minimum(cdf, 1.0, out=cdf)
    cdf[..., 0] = 0.0
    cdf[..., -1] = 1.0
    return np.diff(cdf, axis=-1)


def _k_first(a):  # (..., K) -> (K, ..., 1), a view
    return a.transpose(a.ndim - 1, *range(a.ndim - 1))[..., None]


def _half_logits(mu, s, edges):
    """(e - mu_k) * (0.5 / s_k) of every component at `edges`: (K, ..., E)
    for `mu`, `s` (..., K) and `edges` (..., E), the edges cast to the dtype
    of `mu`. The sigmoid of a component's logit is 0.5 * (tanh of this + 1).
    The result is C-contiguous, so each component's block is contiguous.
    """
    edges = np.asarray(edges, dtype=mu.dtype)
    mu_k = _k_first(mu)
    t = np.empty(np.broadcast_shapes(edges.shape, mu_k.shape), dtype=mu.dtype)
    np.subtract(edges, mu_k, out=t)
    np.multiply(t, _k_first(0.5 / s), out=t)
    return t


def mixture_cdf(w, mu, s, edges):
    """Mixture CDF F(e) = sum_k w_k sigmoid((e - mu_k) / s_k) at `edges`.

    `w`, `mu`, `s` are (..., K), as `mixture_terms` returns them; `edges`
    is (..., E) and broadcasts against their leading axes; returns (..., E).
    The sigmoid is 0.5 * (tanh(x) + 1) of `_half_logits`. Every value goes
    through the same elementwise ufuncs whatever the shapes, and the sum
    over k runs as a loop in a fixed order, so F at some edges of a row is
    bit for bit F at those edges of the whole row. Each step is monotone in
    e, and so is F.
    """
    t = _half_logits(mu, s, edges)
    np.tanh(t, out=t)
    np.add(t, 1.0, out=t)
    np.multiply(t, _k_first(0.5 * w), out=t)
    cdf = t[0].copy()
    for term in t[1:]:
        cdf += term
    return cdf


def _integer_cdf(F, m, M: int):
    """The coder's integer CDF floor(F * (TOTAL - M)) + m at edge indices
    `m` in 0..M (broadcasting against the CDF values `F`), F fixed at 0 for
    m = 0 and at 1 for m = M, TOTAL = 2**16 the range coder's total. For a
    monotone F every symbol gets a width of at least 1, and a row runs from
    0 to TOTAL."""
    cdf = np.array(F, dtype=np.float64)
    np.copyto(cdf, 0.0, where=m == 0)
    np.copyto(cdf, 1.0, where=m == M)
    if not np.all(np.isfinite(cdf)):
        raise DegeneratePmf("CDF is not finite")
    np.multiply(cdf, TOTAL - M, out=cdf)
    np.floor(cdf, out=cdf)
    out = cdf.astype(np.int64)
    out += m
    return out


def pointwise_cdf(w, mu, s, grid: SymbolGrid, edge_index):
    """`_integer_cdf` at edge indices `edge_index` (..., E) of F from
    `mixture_cdf`, in the dtype of the mixture. It needs no table: a
    symbol's span takes F at its own two edges only."""
    m = np.asarray(edge_index, dtype=np.int64)
    return _integer_cdf(mixture_cdf(w, mu, s, grid.cdf_edges[m]), m,
                        grid.num_symbols)


def unpack_latent_params(params, num_channels: int, num_mixtures: int):
    """(N, C*3K) raw head output -> weight logits, means, log scales (N, C, K)."""
    params = ad.as_float(params)
    n = params.shape[0]
    k = num_mixtures
    expect = num_channels * 3 * k
    if params.shape[1] != expect:
        raise ShapeMismatch(f"latent head width {params.shape[1]}, expected {expect}")
    p = params.reshape(n, num_channels, 3 * k)
    return p[..., :k], p[..., k:2 * k], p[..., 2 * k:]


def latent_pmfs(params, num_channels: int, num_mixtures: int, grid: SymbolGrid):
    """Per-point per-channel pmfs, shape (N, C, M)."""
    w, mu, ls = unpack_latent_params(params, num_channels, num_mixtures)
    return dlm_pmf(w, mu, ls, grid)


# per channel, the c columns that shift its means: G by R, B by R then G
_SHIFTS = ((), (0,), (1, 2))


def unpack_rgb_params(params, num_mixtures: int):
    """(N, 12K) raw head output -> weight logits, means, log scales and
    c = tanh(raw), each (N, K, 3), channel last; c's are [c_gr, c_br, c_bg]."""
    params = ad.as_float(params)
    n = params.shape[0]
    if params.shape[1] != 12 * num_mixtures:
        raise ShapeMismatch(
            f"rgb head width {params.shape[1]}, expected {12 * num_mixtures}")
    w, mu, ls, c = np.moveaxis(params.reshape(n, num_mixtures, 4, 3), 2, 0)
    return w, mu, ls, np.tanh(c)


def rgb_channel_params(unpacked, coded, grid: SymbolGrid = RGB_GRID):
    """(weight logits, means, log scales) of RGB channel len(coded), each
    (N, K), given the symbols `coded` of the channels coded before it: each
    shifts the means by its c column times its grid center, cast to the
    dtype of the parameters and added in coding order."""
    w, mu, ls, c = unpacked
    ch = len(coded)
    means = mu[..., ch]
    for col, sym in zip(_SHIFTS[ch], coded):
        x = np.asarray(grid.centers[sym], dtype=mu.dtype)
        means = means + c[..., col] * x[:, None]
    return w[..., ch], means, ls[..., ch]


def rgb_channel_pmf(unpacked, coded, grid: SymbolGrid = RGB_GRID):
    """pmf (N, M) of RGB channel len(coded) given the channels before it."""
    return dlm_pmf(*rgb_channel_params(unpacked, coded, grid), grid)


def rgb_joint_logprob(params, r, g, b, num_mixtures: int = 10,
                      grid: SymbolGrid = RGB_GRID):
    """log p(r,g,b) per point under the channel-autoregressive model (nats)."""
    syms = [np.asarray(s, dtype=np.int64) for s in (r, g, b)]
    M = grid.num_symbols
    if any(np.any((s < 0) | (s >= M)) for s in syms):
        raise SymbolOutOfRange(f"symbol outside 0..{M - 1}")
    u = unpack_rgb_params(params, num_mixtures)
    rows = np.arange(len(syms[0]))
    return sum(np.log(np.maximum(
        rgb_channel_pmf(u, syms[:ch], grid)[rows, syms[ch]], PROB_FLOOR))
        for ch in range(3))


# ----------------------------------------------------------- training graphs

def _symbol_bits(weight_logits, means, log_scales, symbols,
                 grid: SymbolGrid):
    """Total -log2 p of `symbols` (...) under the mixtures (..., K), and
    the map from the upstream gradient to the gradients of that total
    with respect to the weight logits, means and log-scales, each (..., K).

    p is the mixture mass of a symbol's bin, sum_k w_k (c_k(hi) - c_k(lo))
    with c_k = 0.5 * (tanh(x_k) + 1) and x_k the `_half_logits` at the
    bin's two edges. The bottom bin's lower c is 0 and the top bin's upper
    c is 1, as in the coder's CDF (the saturated end bins), and p is
    floored at PROB_FLOOR.
    """
    w, mu, s = mixture_terms(weight_logits, means, log_scales)
    sym = np.asarray(symbols, dtype=np.int64)
    x = np.moveaxis(_half_logits(
        mu, s, grid.cdf_edges[np.stack([sym, sym + 1], axis=-1)]), 0, -2)
    t = np.tanh(x)  # (..., K, 2): lower and upper edge
    np.copyto(t[..., 0], -1.0, where=(sym == 0)[..., None])
    np.copyto(t[..., 1], 1.0, where=(sym == grid.num_symbols - 1)[..., None])
    mass = 0.5 * (t[..., 1] - t[..., 0])
    p = (w * mass).sum(axis=-1)
    bits = np.log(np.maximum(p, PROB_FLOOR)).sum() * (-1.0 / LN2)

    def grads(g):
        # d bits / d p, zero where the floor holds p
        dp = np.where(p > PROB_FLOOR,
                      -g / (LN2 * np.maximum(p, PROB_FLOOR)), 0.0)[..., None]
        # dt/dx = 1 - t^2, which is 0 at the saturated edges; x moves with
        # mu by -0.5 / s and with the log-scale by -x above its clamp
        slope = 1.0 - t * t
        d_logits = dp * w * (mass - p[..., None])
        d_means = dp * w * (-0.25 / s) * (slope[..., 1] - slope[..., 0])
        d_log_scales = dp * w * -0.5 * (slope[..., 1] * x[..., 1]
                                        - slope[..., 0] * x[..., 0])
        d_log_scales *= np.asarray(log_scales) > LOG_SCALE_MIN
        return d_logits, d_means, d_log_scales

    return bits, grads


def latent_bits_node(params: ad.Node, symbols, num_channels: int,
                     num_mixtures: int, grid: SymbolGrid) -> ad.Node:
    """Total -log2 p of latent symbols (N, C) under the (N, C*3K) head
    output, computed in float64; the gradient is in the head's dtype."""
    symbols = np.asarray(symbols, dtype=np.int64)
    n = params.value.shape[0]
    if symbols.shape != (n, num_channels):
        raise ShapeMismatch(f"latent symbols {symbols.shape}")
    bits, grads = _symbol_bits(
        *unpack_latent_params(params.value.astype(np.float64, copy=False),
                              num_channels, num_mixtures),
        symbols, grid)
    return ad.Node(bits, (params,), lambda g: (
        np.concatenate(grads(g), axis=-1).reshape(n, -1).astype(
            params.value.dtype, copy=False),))


def rgb_bits_node(params: ad.Node, r, g, b, num_mixtures: int,
                  grid: SymbolGrid = RGB_GRID) -> ad.Node:
    """Total -log2 p(F) under the channel-autoregressive mixture head,
    computed in float64; the gradient is in the head's dtype."""
    n = params.value.shape[0]
    u = unpack_rgb_params(params.value.astype(np.float64, copy=False),
                          num_mixtures)
    c = u[3]
    syms = [np.asarray(v, dtype=np.int64) for v in (r, g, b)]
    channels = [_symbol_bits(*rgb_channel_params(u, syms[:ch], grid),
                             syms[ch], grid) for ch in range(3)]

    def backward(g):
        out = np.empty((n, num_mixtures, 4, 3))
        for ch, (_, grads) in enumerate(channels):
            out[..., 0, ch], out[..., 1, ch], out[..., 2, ch] = grads(g)
            # c = tanh(raw) times a coded channel's center shifts the means
            for col, sym in zip(_SHIFTS[ch], syms):
                out[..., 3, col] = (out[..., 1, ch] * grid.centers[sym][:, None]
                                    * (1 - c[..., col] * c[..., col]))
        return (out.reshape(n, -1).astype(params.value.dtype, copy=False),)

    return ad.Node(sum(bits for bits, _ in channels), (params,), backward)


def uniform_bits(num_points: int, num_channels: int, alphabet: int) -> float:
    """Cost of the top-scale latent under the fixed uniform model."""
    return num_points * num_channels * float(np.log2(alphabet))


# ------------------------------------------------------------------ CDF table

def build_cdf_table(pmf):
    """The coder's integer CDFs of pmfs (rows): `_integer_cdf` of each
    normalized row's cumulative sum."""
    pmf = np.atleast_2d(np.asarray(pmf, dtype=np.float64))
    n, M = pmf.shape
    if M < 2:
        raise DegeneratePmf("alphabet must have at least 2 symbols")
    sums = pmf.sum(axis=-1)
    if np.any(~np.isfinite(pmf)) or np.any(pmf < 0) or \
            np.any(np.abs(sums - 1.0) > 1e-6):
        raise DegeneratePmf("pmf is not a probability vector")
    F = np.zeros((n, M + 1))
    np.cumsum(pmf / sums[:, None], axis=-1, out=F[:, 1:])
    return _integer_cdf(F, np.arange(M + 1), M)
