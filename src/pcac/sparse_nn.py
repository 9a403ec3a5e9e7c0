"""Sparse-tensor network layers and the per-scale encoder/decoder stacks.

A layer never invents coordinates: every operation maps features between
coordinate sets of the geometry pyramid, on kernel maps looked up in the
pyramid's own level indexes, so the decoder (which knows the geometry) can
replay the exact same computation."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Parameter
from .errors import ShapeMismatch
from .tensor_core import CoordIndex, ScalePyramid


def kernel_offsets(kernel_size: int):
    """Centered offsets for odd kernels, {0..k-1} for even ones; lex order."""
    if kernel_size % 2 == 1:
        r = kernel_size // 2
        axis = range(-r, r + 1)
    else:
        axis = range(kernel_size)
    return [(dx, dy, dz) for dx in axis for dy in axis for dz in axis]


def _neighbours(index: CoordIndex, out_coords, offsets, dilation: int):
    """(n_out, K) table, stored column by column: the row of `index` holding
    out_coords[j] + offsets[k] * dilation, or -1 where it is absent."""
    out_coords = np.asarray(out_coords, dtype=np.int64)
    return np.stack([index.lookup(out_coords + np.multiply(off, dilation))
                     for off in offsets]).T


def _table_pairs(table):
    """A neighbour table, stored by column, read offset-major: the
    (offset, row, entry) arrays of its present entries, column by column
    and by row within a column."""
    by_col = table.T
    flat = np.flatnonzero(by_col >= 0)
    offset, row = np.divmod(flat, by_col.shape[1])
    return offset, row, by_col.take(flat)


def build_kernel_map(in_coords, out_coords, kernel_size: int, dilation: int):
    """The map with a pair (i, j) at offset o exactly when
    in_coords[i] == out_coords[j] + o * dilation."""
    offset, row, entry = _table_pairs(_neighbours(
        CoordIndex(in_coords), out_coords, kernel_offsets(kernel_size),
        dilation))
    return FusedKernelMap(offset, entry, row, len(in_coords), len(out_coords))


# A conv computes its products one group of whole offsets at a time, at
# most GROUP_PAIRS pairs per group (an offset with more is a group alone),
# which caps its product buffer. An offset is never split: a float32 GEMM
# row can depend on how many rows the call holds.
GROUP_PAIRS = 1 << 14


class FusedKernelMap:
    """A kernel map as offset-major (input row, output row) pair arrays, one
    slice per offset that has pairs. Within a slice no input row and no
    output row repeats, so a conv can gather each offset's rows with plain
    fancy indexing.

    `groups` splits the slices into runs of whole offsets of at most
    GROUP_PAIRS pairs, and `sums_out` / `sums_in` hold a `_RankSum` per group
    that adds its products into output rows (forward) or input rows
    (backward); each is built on first use."""

    def __init__(self, offsets, rows_in, rows_out, n_in: int, n_out: int):
        self.n_in = n_in
        self.n_out = n_out
        self.rows_in = rows_in
        self.rows_out = rows_out
        counts = np.bincount(offsets).tolist()
        stops = np.cumsum(counts).tolist()
        self.offset_slices = [(stop - n, stop, oi)  # (start, stop, offset)
                              for oi, (n, stop) in enumerate(zip(counts, stops))
                              if n]

    @cached_property
    def groups(self):
        """[(start, stop, slices)] of runs of whole offset slices."""
        runs = []
        for s in self.offset_slices:
            if runs and s[1] - runs[-1][0][0] <= GROUP_PAIRS:
                runs[-1].append(s)
            else:
                runs.append([s])
        return [(run[0][0], run[-1][1], run) for run in runs]

    @cached_property
    def sums_out(self):
        return self._rank_sums(self.rows_out, self.n_out)

    @cached_property
    def sums_in(self):
        return self._rank_sums(self.rows_in, self.n_in)

    def _rank_sums(self, targets, n_targets: int):
        return [_RankSum(targets[a:b], n_targets,
                         [n - m for m, n, _ in slices], first=not g)
                for g, (a, b, slices) in enumerate(self.groups)]

    def sum_products(self, into_inputs: bool, width: int, dtype, gemm):
        """(rows, width) sums of every pair's product into its output row,
        or its input row `into_inputs`, group by group: gemm(a, b, offset,
        out) writes the products of pairs a..b-1 into `out`. A row without
        pairs is 0."""
        sums = self.sums_in if into_inputs else self.sums_out
        total = None
        for (lo, hi, slices), rank_sum in zip(self.groups, sums):
            prod = np.empty((hi - lo, width), dtype=dtype)
            for a, b, oi in slices:
                gemm(a, b, oi, prod[a - lo:b - lo])
            total = rank_sum.add(prod, total)
        if total is None:  # no pairs
            total = np.zeros((self.n_in if into_inputs else self.n_out, width),
                             dtype=dtype)
        return total


class _RankSum:
    """Adds a group's per-pair products into their target rows, each
    target's products in pair order (offset order), as a per-offset loop
    of `out[t] = out[t] + product` does, without scattering per offset.

    A target's r-th pair is its rank-r product. Targets are sorted by pair
    count, most first, so the targets with a rank-r product are a prefix of
    that order: rank by rank, one contiguous prefix add."""

    def __init__(self, targets, n_targets: int, lengths, first: bool):
        """`targets` of the group's pairs, offset by offset, `lengths`
        pairs per offset; no target repeats within an offset. The `first`
        group starts the sum from zeros."""
        count = np.bincount(targets, minlength=n_targets)
        # most pairs first; as int16 (a target has at most one pair per
        # offset) the stable sort is a radix sort
        rows = np.argsort((len(lengths) - count).astype(np.int16),
                          kind="stable")
        n_hit = np.count_nonzero(count)
        place = np.empty(n_targets, dtype=np.int64)
        place[rows] = np.arange(n_targets)
        # the first group sums into zeros laid out in place order; a later
        # one gathers its targets' rows and scatters them back
        self.place = place if first else None
        self.hit = None if first else rows[:n_hit].copy()
        # a pair's rank: how many of the offsets before it hold its target,
        # read off a running count over an (offsets, places) grid
        place = place[targets]
        cell = np.repeat(np.arange(len(lengths)) * n_hit, lengths) + place
        seen = np.zeros((len(lengths), n_hit), dtype=np.int16)
        seen.ravel()[cell] = 1
        for k in range(1, len(lengths)):  # 3x faster than cumsum(axis=0)
            seen[k] += seen[k - 1]
        rank = seen.ravel().take(cell).astype(np.int64) - 1
        # products in rank-major order, by place within a rank: rank r
        # holds the targets of places 0..sizes[r]-1, one product each
        sizes = np.bincount(rank)
        order = np.empty_like(rank)
        order[(np.cumsum(sizes) - sizes)[rank] + place] = np.arange(len(rank))
        # None when pair order is already rank order, as in a group of one
        # offset whose targets ascend (every slice of a pyramid's maps)
        self.order = None if (order[1:] > order[:-1]).all() else order
        self.sizes = sizes.tolist()

    def add(self, products, out):
        """Each target's products (pairs, C), given in pair order, added to
        its row of `out` (all rows, updated in place), or of zeros in the
        first group, which passes no `out`."""
        if self.place is not None:
            acc = np.zeros((len(self.place), products.shape[1]),
                           products.dtype)
        else:
            acc = out.take(self.hit, axis=0)
        start = 0
        for n in self.sizes:
            acc[:n] += (products[start:start + n] if self.order is None else
                        products.take(self.order[start:start + n], axis=0))
            start += n
        if self.place is not None:
            return acc.take(self.place, axis=0)
        out[self.hit] = acc
        return out


class KernelMapCache:
    """Geometry-derived kernel maps for one pyramid, built lazily. Each is
    read off a neighbour table looked up in the pyramid's level indexes, and
    no relation is looked up twice: a self map looks up offsets 0..12, as
    offset 26 - o is -o (offset o with its rows swapped), and the up map is
    the pooling child table read from parent to child."""

    def __init__(self, pyramid: ScalePyramid):
        self.pyramid = pyramid
        self._maps = {}

    def self_map(self, level: int) -> FusedKernelMap:
        """3x3x3 map of `level` onto itself."""
        key = ("self", level)
        if key not in self._maps:
            c = self.pyramid.coords[level]
            table = np.full((27, len(c)), -1, dtype=np.int64).T  # by column
            table[:, :13] = _neighbours(self.pyramid.indexes[level], c,
                                        kernel_offsets(3)[:13],
                                        self.pyramid.stride(level))
            table[:, 13] = np.arange(len(c))
            # c[i] == c[j] + o*s  <=>  c[j] == c[i] - o*s
            offset, row, entry = _table_pairs(table[:, :13])
            table[entry, 26 - offset] = row
            offset, row, entry = _table_pairs(table)
            self._maps[key] = FusedKernelMap(offset, entry, row, len(c), len(c))
        return self._maps[key]

    def up_map(self, level: int) -> FusedKernelMap:
        """Transpose-conv map from `level` down to `level - 1` (k=2): the
        child table with parents as inputs and children as outputs."""
        key = ("up", level)
        if key not in self._maps:
            offset, parent, child = _table_pairs(self._children(level))
            self._maps[key] = FusedKernelMap(
                offset, parent, child, len(self.pyramid.coords[level]),
                len(self.pyramid.coords[level - 1]))
        return self._maps[key]

    def pool_children(self, level: int):
        """Child-row table (n_parents, 8) for 2x pooling into `level`; -1 = absent."""
        return self._children(level)

    def _children(self, level: int):  # shared by pool_children and up_map
        key = ("children", level)
        if key not in self._maps:
            self._maps[key] = _neighbours(
                self.pyramid.indexes[level - 1], self.pyramid.coords[level],
                kernel_offsets(2), self.pyramid.stride(level - 1))
        return self._maps[key]


class SparseConv:
    """Generalized sparse convolution; `weight[o]` is offset o's
    (c_in, c_out) matrix, as kernel_offsets orders them."""

    def __init__(self, c_in: int, c_out: int, kernel_size: int, rng,
                 weight_scale: float = 1.0):
        self.c_in = c_in
        self.c_out = c_out
        n_off = len(kernel_offsets(kernel_size))
        limit = weight_scale * np.sqrt(6.0 / (c_in * n_off))
        self.weight = Parameter(rng.uniform(-limit, limit,
                                            (n_off, c_in, c_out)))
        self.bias = Parameter(np.zeros(c_out))

    def named_parameters(self, prefix: str):
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]

    def __call__(self, x: Node, fmap: FusedKernelMap) -> Node:
        """out[j] = bias + sum_o sum_{(i,j) in map[o]} x[i] @ W_o.

        One fused node. Each offset does one GEMM of its gathered input
        rows, and the map's `_RankSum`s add the products into the output
        rows in offset order, group by group; the backward pass does the
        same into input rows. The weight gradient is zero at offsets the
        map does not use. It computes in the dtype of `x`, the weights cast
        to it on each call (free when they already hold that dtype, as a
        loaded model's float32 weights do for coding), never cached in
        another dtype; the input gradient takes the upstream gradient's
        dtype.
        """
        if x.value.shape[1] != self.c_in:
            raise ShapeMismatch(
                f"conv expects {self.c_in} input channels, got {x.value.shape[1]}")
        xv = x.value
        w = self.weight.value.astype(xv.dtype, copy=False)
        rows_in, rows_out = fmap.rows_in, fmap.rows_out

        # `take` gathers rows 1.5-3x faster than fancy indexing (numpy 2.4,
        # 8 to 8000 rows)
        def forward(a, b, oi, prod):
            np.matmul(xv.take(rows_in[a:b], axis=0), w[oi], out=prod)

        out = fmap.sum_products(False, self.c_out, xv.dtype, forward)
        out += self.bias.value.astype(xv.dtype, copy=False)

        def bwd(g):
            gw = np.zeros_like(w)

            def backward(a, b, oi, prod):
                g_o = g.take(rows_out[a:b], axis=0)
                np.matmul(g_o, w[oi].T, out=prod)
                gw[oi] = xv.take(rows_in[a:b], axis=0).T @ g_o

            gx = fmap.sum_products(True, self.c_in, g.dtype, backward)
            return gx, gw, g.sum(axis=0)

        return Node(out, (x, self.weight, self.bias), bwd)


def max_pool2(x: Node, child_rows) -> Node:
    """Channel-wise max over existing stride-2 children (ties: lowest child).

    `child_rows` is `KernelMapCache.pool_children`'s (P, 8) table; every
    parent has a child. The gradient goes to the winning child row of each
    channel only; as each child has one parent, no winner repeats.
    """
    present = child_rows >= 0
    gathered = x.value.take(np.where(present, child_rows, 0), axis=0)
    gathered[~present] = -np.inf  # (P, 8, C)
    winner = np.argmax(gathered, axis=1)  # first occurrence: lowest child
    rows = np.take_along_axis(child_rows, winner, axis=1)  # (P, C)
    cols = np.arange(x.value.shape[1])
    value = np.take_along_axis(gathered, winner[:, None], axis=1)[:, 0]

    def bwd(g):
        gx = np.zeros_like(x.value)
        gx[rows, cols] = g
        return (gx,)

    return Node(value, (x,), bwd)


class ResidualBlock:
    """conv - ReLU - conv plus identity skip; second conv starts small."""

    def __init__(self, channels: int, rng):
        self.conv1 = SparseConv(channels, channels, 3, rng)
        self.conv2 = SparseConv(channels, channels, 3, rng, weight_scale=0.1)

    def named_parameters(self, prefix: str):
        return (self.conv1.named_parameters(f"{prefix}.conv1")
                + self.conv2.named_parameters(f"{prefix}.conv2"))

    def __call__(self, x: Node, fmap: FusedKernelMap) -> Node:
        h = ad.relu(self.conv1(x, fmap))
        return ad.add(x, self.conv2(h, fmap))


@dataclass
class ModelConfig:
    num_scales: int = 3
    hidden: int = 64
    latent_channels: int = 5
    res_blocks: int = 8
    mixtures: int = 10
    num_bins: int = 26

    def decoder_head_width(self, scale: int) -> int:
        # bottom decoder predicts RGB (12 values per mixture); the others
        # predict the independent-channel latent mixtures
        if scale == 1:
            return 12 * self.mixtures
        return 3 * self.mixtures * self.latent_channels

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


class ScaleEncoder:
    """conv + max-pool, residual blocks, then latent / forwarding branches.
    The top scale's forward has no reader: it keeps its conv's weights (they
    are part of checkpoints and the digest) but does not run it."""

    def __init__(self, scale: int, cfg: ModelConfig, rng):
        self.scale = scale
        self.forwards = scale < cfg.num_scales
        c_in = 3 if scale == 1 else cfg.hidden
        h = cfg.hidden
        self.head = SparseConv(c_in, h, 3, rng)
        self.blocks = [ResidualBlock(h, rng) for _ in range(cfg.res_blocks)]
        self.to_latent = SparseConv(h, cfg.latent_channels, 3, rng)
        self.to_forward = SparseConv(h, h, 3, rng)

    def named_parameters(self):
        p = f"enc{self.scale}"
        out = self.head.named_parameters(f"{p}.head")
        for i, b in enumerate(self.blocks):
            out += b.named_parameters(f"{p}.block{i}")
        out += self.to_latent.named_parameters(f"{p}.to_latent")
        out += self.to_forward.named_parameters(f"{p}.to_forward")
        return out

    def __call__(self, x: Node, maps: KernelMapCache):
        """x lives on level scale-1 coords; outputs live on level `scale`,
        the forward None at the top scale."""
        h = ad.relu(self.head(x, maps.self_map(self.scale - 1)))
        h = max_pool2(h, maps.pool_children(self.scale))
        fmap = maps.self_map(self.scale)
        for block in self.blocks:
            h = block(h, fmap)
        latent_pre = self.to_latent(h, fmap)
        forward = self.to_forward(h, fmap) if self.forwards else None
        return latent_pre, forward


class ScaleDecoder:
    """conv, residual blocks, transpose-conv upsampler, parameter/forward
    heads. As in ScaleEncoder, the bottom scale keeps its forward conv's
    weights but does not run it: no decoder reads its forward."""

    def __init__(self, scale: int, cfg: ModelConfig, rng):
        self.scale = scale
        self.forwards = scale > 1
        h = cfg.hidden
        c_in = cfg.latent_channels if scale == cfg.num_scales \
            else cfg.latent_channels + h
        self.conv_in = SparseConv(c_in, h, 3, rng)
        self.blocks = [ResidualBlock(h, rng) for _ in range(cfg.res_blocks)]
        self.upsample = SparseConv(h, h, 2, rng)
        self.to_params = SparseConv(h, cfg.decoder_head_width(scale), 3, rng)
        self.to_forward = SparseConv(h, h, 3, rng)

    def named_parameters(self):
        p = f"dec{self.scale}"
        out = self.conv_in.named_parameters(f"{p}.conv_in")
        for i, b in enumerate(self.blocks):
            out += b.named_parameters(f"{p}.block{i}")
        out += self.upsample.named_parameters(f"{p}.upsample")
        out += self.to_params.named_parameters(f"{p}.to_params")
        out += self.to_forward.named_parameters(f"{p}.to_forward")
        return out

    def __call__(self, latent: Node, forwarded, maps: KernelMapCache):
        """latent (+ forwarded feature) on level `scale`; outputs on
        scale-1, the forward None at the bottom scale."""
        x = latent if forwarded is None else ad.concat_cols(latent, forwarded)
        fmap = maps.self_map(self.scale)
        h = ad.relu(self.conv_in(x, fmap))
        for block in self.blocks:
            h = block(h, fmap)
        up = ad.relu(self.upsample(h, maps.up_map(self.scale)))
        fmap_fine = maps.self_map(self.scale - 1)
        params = self.to_params(up, fmap_fine)
        forward = self.to_forward(up, fmap_fine) if self.forwards else None
        return params, forward
