"""Scalar quantizer over the latent grid with a straight-through training path.

The centers are those of the model's latent `SymbolGrid`: 26 evenly spaced
on [-1, 1], never learned, so the symbol <-> value map is identical on the
encoder and decoder side; only integer symbols cross the bitstream. The
soft surrogate's temperature is the constant `TEMPERATURE`.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Node
from .errors import NonFiniteInput
from .likelihood import SymbolGrid

TEMPERATURE = 1.0


def quantize_hard(values, grid: SymbolGrid):
    """Nearest-center quantization. Returns (symbols, dequantized values).

    Ties between two equidistant centers go to the lower symbol; values
    outside [-1, 1] clamp to the end centers.
    """
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput("quantizer input contains non-finite values")
    c = grid.centers
    # midpoints between adjacent centers; v exactly on a midpoint belongs
    # to the lower center, hence side="left" on the midpoint grid. They are
    # not grid.edges[1:], which differ from them in the last bit.
    mids = (c[:-1] + c[1:]) / 2.0
    symbols = np.searchsorted(mids, v, side="left")
    return symbols.astype(np.int64), c[symbols]


def dequantize(symbols, grid: SymbolGrid):
    return grid.centers[np.asarray(symbols, dtype=np.int64)]


def soft_assignment(values, grid: SymbolGrid, value: bool = True):
    """Differentiable surrogate, softmax(-(v-c)^2 / T) expectation of the
    centers, and its elementwise derivative d/dv, from one softmax.
    value=False returns None for the surrogate, which STE never reads."""
    v = np.asarray(values, dtype=np.float64)[..., None]
    c = grid.centers
    diff = v - c
    w = np.square(diff)
    np.negative(w, out=w)
    w /= TEMPERATURE
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    soft = (w * c).sum(axis=-1) if value else None
    # dw = w (da - sum(w da)), da = d logits / dv = -2 (v - c) / T
    da = np.multiply(diff, -2.0, out=diff)
    da /= TEMPERATURE
    da -= (w * da).sum(axis=-1, keepdims=True)
    da *= w
    da *= c
    return soft, da.sum(axis=-1)


def quantize_soft(x: Node, grid: SymbolGrid, mode: str = "ste",
                  hard=None) -> Node:
    """Quantization node for the training graph.

    mode="ste": forward emits the hard center values (exactly what the coder
    sees); backward uses the gradient of the soft surrogate. `hard`, if
    given, holds those values as `quantize_hard(x.value, grid)` returned
    them, so a caller that already quantized does not quantize again.
    mode="soft": forward emits the soft surrogate itself (smooth end to end;
    used by gradient-checking oracles), and ignores `hard`.
    Both run in float64 and return the forward value and the gradient in
    the dtype of `x`.
    """
    if mode not in ("ste", "soft"):
        raise ValueError(f"unknown quantizer mode {mode!r}")
    if mode == "soft":
        hard = None
    elif hard is None:
        # a non-finite input raises NonFiniteInput here, before any softmax
        hard = quantize_hard(x.value, grid)[1]
    soft, dsoft = soft_assignment(x.value, grid, value=hard is None)
    dtype = x.value.dtype
    dsoft = dsoft.astype(dtype, copy=False)
    return Node((soft if hard is None else hard).astype(dtype, copy=False),
                (x,), lambda g: (g * dsoft,))
