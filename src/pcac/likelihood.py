"""Discretized logistic mixture models, the coder's integer CDFs, CDF tables.

Two parameterizations share the same math:
  * latents: per point, per channel, an independent K-component mixture
    (raw layout per point: channels * [K weight logits, K means, K log-scales]);
  * RGB: per point, K components of 12 values
    [wR wG wB  muR muG muB  lR lG lB  cGR cBR cBG] where the c's (through
    tanh) shift the green/blue means linearly by the decoded red/green values.

One numpy mixture CDF, `mixture_cdf`, serves coding and evaluation: the
coder takes its integer CDFs from `pointwise_cdf`, which needs F only at the
edges it is asked for and gives the encoder (two edges per symbol), the
decoder (whole rows) and the estimates of a scalable decode the same
integers, and `dlm_pmf` is the difference of F at the bin edges. The *_bits
functions build the same probabilities as autodiff graphs for training.
Both apply identical clamps.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import DegeneratePmf, InvalidScale, ShapeMismatch, SymbolOutOfRange
from .range_coder import TOTAL

LOG_SCALE_MIN = -7.0
SCALE_MIN = 1e-6
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

    def lower_edge(self, symbols):
        return self.edges[np.asarray(symbols)]

    def upper_edge(self, symbols):
        s = np.asarray(symbols)
        return self.edges[np.minimum(s + 1, self.num_symbols - 1)]


RGB_GRID = SymbolGrid(256)


def _clamped_scales(log_scales):
    s = np.exp(np.maximum(log_scales, LOG_SCALE_MIN))
    return np.maximum(s, SCALE_MIN)


def _softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def mixture_terms(weight_logits, means, log_scales):
    """Mixture weights (softmax of the logits), means and clamped scales,
    each (..., K)."""
    w = _softmax(np.asarray(weight_logits, dtype=np.float64))
    mu = np.asarray(means, dtype=np.float64)
    s = _clamped_scales(np.asarray(log_scales, dtype=np.float64))
    if np.any(s <= 0):
        raise InvalidScale("non-positive scale")
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


def mixture_cdf(w, mu, s, edges):
    """Mixture CDF F(e) = sum_k w_k sigmoid((e - mu_k) / s_k) at `edges`.

    `w`, `mu`, `s` are (..., K), as `mixture_terms` returns them; `edges`
    is (..., E) and broadcasts against their leading axes; returns (..., E).
    The sigmoid is 0.5 * (tanh(x / 2) + 1), with x / 2 taken as
    (e - mu) * (0.5 / s). Every value goes through the same elementwise
    ufuncs whatever the shapes, and the sum over k runs as a loop in a fixed
    order, so F at some edges of a row is bit for bit F at those edges of
    the whole row. Each step is monotone in e, and so is F.
    """
    def k_first(a):  # (..., K) -> (K, ..., 1)
        return np.moveaxis(a, -1, 0)[..., None]

    t = np.subtract(edges, k_first(mu))
    np.multiply(t, k_first(0.5 / s), out=t)
    np.tanh(t, out=t)
    np.add(t, 1.0, out=t)
    np.multiply(t, k_first(0.5 * w), out=t)
    cdf = t[0].copy()
    for term in t[1:]:
        cdf += term
    return cdf


def pointwise_cdf(w, mu, s, grid: SymbolGrid, edge_index):
    """The coder's integer CDF at edge indices `edge_index` (..., E) in 0..M.

    cdf(m) = floor(F(e_m) * (TOTAL - M)) + m, with TOTAL = 2**16 the range
    coder's total and F from `mixture_cdf`, fixed at 0 for m = 0 and at 1
    for m = M. The rule needs no table: a symbol's span takes F at its own
    two edges only. As F is monotone, every symbol gets a width of at least
    1, and a row runs from 0 to TOTAL.
    """
    M = grid.num_symbols
    m = np.asarray(edge_index, dtype=np.int64)
    cdf = mixture_cdf(w, mu, s, grid.cdf_edges[m])
    np.copyto(cdf, 0.0, where=m == 0)
    np.copyto(cdf, 1.0, where=m == M)
    if not np.all(np.isfinite(cdf)):
        raise DegeneratePmf("mixture CDF is not finite")
    np.multiply(cdf, TOTAL - M, out=cdf)
    np.floor(cdf, out=cdf)
    out = cdf.astype(np.int64)
    out += m
    return out


def unpack_latent_params(params, num_channels: int, num_mixtures: int):
    """(N, C*3K) raw head output -> weight logits, means, log scales (N, C, K)."""
    params = np.asarray(params, dtype=np.float64)
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


def unpack_rgb_params(params, num_mixtures: int):
    """(N, 12K) raw head output -> dict of (N, K) arrays (tanh on the c's)."""
    params = np.asarray(params, dtype=np.float64)
    n = params.shape[0]
    if params.shape[1] != 12 * num_mixtures:
        raise ShapeMismatch(
            f"rgb head width {params.shape[1]}, expected {12 * num_mixtures}")
    p = params.reshape(n, num_mixtures, 12)
    return {
        "w_r": p[..., 0], "w_g": p[..., 1], "w_b": p[..., 2],
        "mu_r": p[..., 3], "mu_g": p[..., 4], "mu_b": p[..., 5],
        "ls_r": p[..., 6], "ls_g": p[..., 7], "ls_b": p[..., 8],
        "c_gr": np.tanh(p[..., 9]),
        "c_br": np.tanh(p[..., 10]),
        "c_bg": np.tanh(p[..., 11]),
    }


def rgb_channel_params(unpacked, channel: str, x_r=None, x_g=None):
    """(weight logits, means, log scales) of one RGB channel, each (N, K);
    green/blue means shift with the decoded values x_r, x_g."""
    u = unpacked
    if channel == "r":
        return u["w_r"], u["mu_r"], u["ls_r"]
    if channel == "g":
        mu = u["mu_g"] + u["c_gr"] * np.asarray(x_r)[:, None]
        return u["w_g"], mu, u["ls_g"]
    if channel == "b":
        mu = (u["mu_b"] + u["c_br"] * np.asarray(x_r)[:, None]
              + u["c_bg"] * np.asarray(x_g)[:, None])
        return u["w_b"], mu, u["ls_b"]
    raise ValueError(channel)


def rgb_channel_pmf(unpacked, channel: str, grid: SymbolGrid,
                    x_r=None, x_g=None):
    """pmf of one RGB channel; green/blue means shift with decoded values."""
    return dlm_pmf(*rgb_channel_params(unpacked, channel, x_r, x_g), grid)


def rgb_joint_logprob(params, r, g, b, num_mixtures: int = 10,
                      grid: SymbolGrid = RGB_GRID):
    """log p(r,g,b) per point under the channel-autoregressive model (nats)."""
    r = np.asarray(r, dtype=np.int64)
    g = np.asarray(g, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    M = grid.num_symbols
    for s in (r, g, b):
        if np.any((s < 0) | (s >= M)):
            raise SymbolOutOfRange(f"symbol outside 0..{M - 1}")
    u = unpack_rgb_params(params, num_mixtures)
    n = len(r)
    rows = np.arange(n)
    x_r = grid.centers[r]
    x_g = grid.centers[g]
    p_r = rgb_channel_pmf(u, "r", grid)[rows, r]
    p_g = rgb_channel_pmf(u, "g", grid, x_r=x_r)[rows, g]
    p_b = rgb_channel_pmf(u, "b", grid, x_r=x_r, x_g=x_g)[rows, b]
    return np.log(np.maximum(p_r, PROB_FLOOR)) \
        + np.log(np.maximum(p_g, PROB_FLOOR)) \
        + np.log(np.maximum(p_b, PROB_FLOOR))


# ----------------------------------------------------------- training graphs

def _dlm_bin_prob_node(w_logits, means, log_scales, symbols, grid: SymbolGrid):
    """Node of per-row mixture probabilities of the target bins, shape (R, 1).

    All inputs are (R, K) nodes except `symbols`, a constant (R,) int array.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    M = grid.num_symbols
    R = symbols.shape[0]
    lo = grid.lower_edge(symbols)[:, None]  # (R,1); dummy for symbol 0
    hi = grid.upper_edge(symbols)[:, None]  # dummy for symbol M-1
    not_bottom = (symbols != 0).astype(np.float64)[:, None]
    is_top = (symbols == M - 1).astype(np.float64)[:, None]
    inv_s = ad.exp(ad.scale(ad.clamp_min(log_scales, LOG_SCALE_MIN), -1.0))
    cdf_hi = ad.sigmoid(ad.mul(ad.add_const(ad.scale(means, -1.0), hi), inv_s))
    cdf_lo = ad.sigmoid(ad.mul(ad.add_const(ad.scale(means, -1.0), lo), inv_s))
    # saturate the end bins: top bin upper cdf = 1, bottom bin lower cdf = 0
    upper = ad.add_const(ad.mul_const(cdf_hi, 1.0 - is_top), is_top)
    lower = ad.mul_const(cdf_lo, not_bottom)
    comp = ad.sub(upper, lower)  # (R, K)
    weights = ad.softmax_rows(w_logits)
    prob = ad.row_sum(ad.mul(weights, comp))
    assert prob.value.shape == (R, 1)
    return ad.clamp_min(prob, PROB_FLOOR)


def latent_bits_node(params: ad.Node, symbols, num_channels: int,
                     num_mixtures: int, grid: SymbolGrid) -> ad.Node:
    """Total -log2 p of latent symbols (N, C) under the (N, C*3K) head output."""
    symbols = np.asarray(symbols, dtype=np.int64)
    n = params.value.shape[0]
    k = num_mixtures
    if symbols.shape != (n, num_channels):
        raise ShapeMismatch(f"latent symbols {symbols.shape}")
    flat = ad.reshape(params, (n * num_channels, 3 * k))
    w = ad.slice_cols(flat, 0, k)
    mu = ad.slice_cols(flat, k, 2 * k)
    ls = ad.slice_cols(flat, 2 * k, 3 * k)
    prob = _dlm_bin_prob_node(w, mu, ls, symbols.reshape(-1), grid)
    return ad.scale(ad.sum_all(ad.log(prob)), -1.0 / LN2)


def rgb_bits_node(params: ad.Node, r, g, b, num_mixtures: int,
                  grid: SymbolGrid = RGB_GRID) -> ad.Node:
    """Total -log2 p(F) under the channel-autoregressive mixture head."""
    n = params.value.shape[0]
    k = num_mixtures
    p3 = ad.reshape(params, (n, k, 12))
    col = lambda i: ad.reshape(ad.slice_cols(p3, i, i + 1), (n, k))
    x_r = grid.centers[np.asarray(r, dtype=np.int64)][:, None]
    x_g = grid.centers[np.asarray(g, dtype=np.int64)][:, None]
    ones_k = np.ones((1, k))
    p_r = _dlm_bin_prob_node(col(0), col(3), col(6), r, grid)
    mu_g = ad.add(col(4), ad.mul_const(ad.tanh(col(9)), x_r * ones_k))
    p_g = _dlm_bin_prob_node(col(1), mu_g, col(7), g, grid)
    mu_b = ad.add(col(5), ad.add(
        ad.mul_const(ad.tanh(col(10)), x_r * ones_k),
        ad.mul_const(ad.tanh(col(11)), x_g * ones_k)))
    p_b = _dlm_bin_prob_node(col(2), mu_b, col(8), b, grid)
    total = ad.sum_nodes([ad.sum_all(ad.log(p_r)),
                          ad.sum_all(ad.log(p_g)),
                          ad.sum_all(ad.log(p_b))])
    return ad.scale(total, -1.0 / LN2)


def uniform_bits(num_points: int, num_channels: int, alphabet: int) -> float:
    """Cost of the top-scale latent under the fixed uniform model."""
    return num_points * num_channels * float(np.log2(alphabet))


# ------------------------------------------------------------------ CDF table

def build_cdf_table(pmf):
    """Quantize pmfs (rows) to integer CDFs summing to the range coder's
    TOTAL (2**16).

    Largest-remainder rounding with a guaranteed width of 1 per symbol;
    fully deterministic (ties broken by symbol index).
    """
    pmf = np.atleast_2d(np.asarray(pmf, dtype=np.float64))
    n, M = pmf.shape
    if M < 2:
        raise DegeneratePmf("alphabet must have at least 2 symbols")
    sums = pmf.sum(axis=-1)
    if np.any(~np.isfinite(pmf)) or np.any(pmf < 0) or \
            np.any(np.abs(sums - 1.0) > 1e-6):
        raise DegeneratePmf("pmf is not a probability vector")
    budget = TOTAL - M  # one guaranteed slot per symbol
    scaled = pmf / sums[:, None] * budget
    floored = np.floor(scaled)
    frac = scaled - floored
    base = floored.astype(np.int64)
    leftover = np.clip(budget - base.sum(axis=-1), 0, M)
    # the leftover slots go to the largest remainders, ties to the lower
    # symbol index: every remainder above the leftover-th largest (kth) gets
    # one, and the lowest-index remainders equal to kth fill the rest
    ranked = np.sort(frac, axis=-1)
    kth = np.where(leftover > 0,
                   ranked[np.arange(n), np.minimum(M - leftover, M - 1)],
                   np.inf)
    above = frac > kth[:, None]
    tied = frac == kth[:, None]
    need = leftover - above.sum(axis=-1)
    first_tied = np.cumsum(tied, axis=-1, dtype=np.int32) <= need[:, None]
    bonus = above | (tied & first_tied)
    freq = base + bonus + 1
    cdf = np.zeros((n, M + 1), dtype=np.int64)
    np.cumsum(freq, axis=-1, out=cdf[:, 1:])
    return cdf
