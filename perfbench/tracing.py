"""Per-layer tracing of pcac from outside its source.

`Tracer.install` replaces the public functions of each pcac module with
timing wrappers, patching the name where the caller looks it up (for example
`trainer.block_loss`, or `SparseConv.__call__` on the class), and
`Tracer.uninstall` puts the originals back. Spans (name, start, end, parent,
op) are kept in memory; per-layer self times are computed from them at the
end. The per-symbol range-coder calls are aggregated into per-op totals
instead of spanned, and `Node` constructions are only counted, so node ids
and their order are unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import weakref
from collections import Counter
from time import perf_counter

from pcac import (autodiff, codec, likelihood, pc_io, range_coder, sparse_nn,
                  trainer)

# span name -> per-layer metric that receives the span's self time
SELF_METRIC = {
    "tensor_core.build_pyramid": "tensor_core.pyramid_s",
    "sparse_nn.conv_bwd": "sparse_nn.conv_bwd_s",
    "sparse_nn.pool": "sparse_nn.pool_s",
    "sparse_nn.kernel_map": "sparse_nn.kernel_map_s",
    "autodiff.backward": "autodiff.backward_self_s",
    "autodiff.adam": "autodiff.adam_s",
    "likelihood.pmf": "likelihood.pmf_s",
    "likelihood.cdf_table": "likelihood.cdf_table_s",
    "likelihood.bits_node": "likelihood.bits_node_s",
    "quantizer.quantize": "quantizer.quantize_s",
    "pc_io.read_ply": "pc_io.read_ply_s",
    "pc_io.voxelize": "pc_io.voxelize_s",
    "pc_io.partition_blocks": "pc_io.partition_s",
    "pc_io.write_ply": "pc_io.write_ply_s",
}
# these spans' whole duration also goes to a metric of its own
INCLUSIVE_METRIC = {"codec.block_loss": "codec.block_loss_s"}

# per-op work counts that must repeat exactly between ops of one kind
EXACT_COUNTS = ("tensor_core.points.L0", "tensor_core.points.L1",
                "tensor_core.points.L2", "tensor_core.points.L3",
                "sparse_nn.kernel_map_builds", "sparse_nn.conv_pairs",
                "sparse_nn.conv_flops", "sparse_nn.conv_bytes",
                "autodiff.nodes", "likelihood.cdf_entries",
                "range_coder.symbols")

# (module or class, attribute, span name) of every spanned function
SPANNED = [
    (codec, "build_pyramid", "tensor_core.build_pyramid"),
    (trainer, "build_pyramid", "tensor_core.build_pyramid"),
    (sparse_nn, "max_pool2", "sparse_nn.pool"),
    (trainer, "backward", "autodiff.backward"),
    (trainer, "adam_step", "autodiff.adam"),
    (likelihood, "latent_pmfs", "likelihood.pmf"),
    (likelihood, "rgb_channel_pmf", "likelihood.pmf"),
    (likelihood, "build_cdf_table", "likelihood.cdf_table"),
    (likelihood, "latent_bits_node", "likelihood.bits_node"),
    (likelihood, "rgb_bits_node", "likelihood.bits_node"),
    (codec, "quantize_hard", "quantizer.quantize"),
    (codec, "quantize_soft", "quantizer.quantize"),
    (codec, "dequantize", "quantizer.quantize"),
    (codec, "encode", "codec.encode"),
    (codec, "decode", "codec.decode"),
    (codec, "decode_scalable", "codec.decode_scalable"),
    (codec, "encode_blocks", "codec.encode_blocks"),
    (codec, "decode_blocks", "codec.decode_blocks"),
    (codec, "truncate_bitstream", "codec.truncate_bitstream"),
    (trainer, "block_loss", "codec.block_loss"),
    (pc_io, "read_ply", "pc_io.read_ply"),
    (pc_io, "voxelize", "pc_io.voxelize"),
    (pc_io, "partition_blocks", "pc_io.partition_blocks"),
    (pc_io, "write_ply", "pc_io.write_ply"),
]

# span name -> exact counts to take from the spanned function's result
RESULT_COUNTS = {
    "tensor_core.build_pyramid": lambda pyramid: [
        (f"tensor_core.points.L{level}", len(coords))
        for level, coords in enumerate(pyramid.coords)],
    "likelihood.cdf_table": lambda table: [
        ("likelihood.cdf_entries", table.size)],
}

# (class, method, per-op time counter, counts as one coded symbol)
AGGREGATED = [
    (range_coder.RangeEncoder, "encode_symbol", "range_coder.encode_s", True),
    (range_coder.RangeEncoder, "encode_uniform_symbol", "range_coder.encode_s",
     True),
    (range_coder.RangeEncoder, "finish", "range_coder.encode_s", False),
    (range_coder.RangeDecoder, "__init__", "range_coder.decode_s", False),
    (range_coder.RangeDecoder, "decode_symbol", "range_coder.decode_s", True),
    (range_coder.RangeDecoder, "decode_uniform_symbol", "range_coder.decode_s",
     True),
]

# KernelMapCache method -> output level of the map it returns (None: no conv)
KERNEL_MAPS = {
    "self_map": lambda level: level,
    "up_map": lambda level: level - 1,
    "pool_children": lambda level: None,
}

# a span: [name, start, end, parent index or -1, op index, conv level,
#          seconds of aggregated calls made directly inside it]
NAME, START, END, PARENT, OP, LEVEL, AGG = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.ops = []  # [kind, start, end]
        self.counts = []  # one Counter per op
        self._stack = []
        self._op = None
        self._patches = []
        self._seen_maps = weakref.WeakKeyDictionary()  # cache -> built keys
        self._map_level = weakref.WeakKeyDictionary()  # kernel map -> level

    # ------------------------------------------------------------ ops

    def begin_op(self, kind: str):
        self.end_op()
        self._op = len(self.ops)
        self.ops.append([kind, perf_counter(), None])
        self.counts.append(Counter())

    def end_op(self):
        if self._op is not None:
            self.ops[self._op][2] = perf_counter()
            self._op = None

    def count(self, name: str, n=1):
        if self._op is not None:
            self.counts[self._op][name] += n

    # ---------------------------------------------------------- spans

    def _enter(self, name, level=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op, level,
                           0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index):
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a call that the benchmark makes itself."""
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    # ---------------------------------------------------------- patching

    def _patch(self, owner, attr, make_wrapper):
        raw = vars(owner)[attr]
        setattr(owner, attr, functools.wraps(raw)(make_wrapper(
            getattr(owner, attr))))
        self._patches.append((owner, attr, raw))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, name in SPANNED:
                self._patch(owner, attr, self._spanned(name))
            for owner, attr, metric, symbol in AGGREGATED:
                self._patch(owner, attr, self._aggregated(metric, symbol))
            for method, level_of in KERNEL_MAPS.items():
                self._patch(sparse_nn.KernelMapCache, method,
                            self._kernel_map(method, level_of))
            self._patch(sparse_nn.SparseConv, "__call__", self._conv)
            self._patch(autodiff.Node, "__init__", self._node_init)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ---------------------------------------------------------- wrappers

    def _spanned(self, name):
        tracer = self
        counts_of = RESULT_COUNTS.get(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                index = tracer._enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._exit(index)
                if counts_of is not None:
                    for metric, n in counts_of(out):
                        tracer.count(metric, n)
                return out
            return wrapper
        return make

    def _aggregated(self, metric, symbol):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    tracer.count(metric, elapsed)
                    if symbol:
                        tracer.count("range_coder.symbols")
                    if tracer._stack:
                        tracer.spans[tracer._stack[-1]][AGG] += elapsed
            return wrapper
        return make

    def _kernel_map(self, method, level_of):
        tracer = self

        def make(fn):
            def wrapper(cache, level, *args, **kwargs):
                # a cache builds a map on the first request for its key
                key = (method, level, args, tuple(sorted(kwargs.items())))
                built = tracer._seen_maps.setdefault(cache, set())
                index = tracer._enter("sparse_nn.kernel_map")
                try:
                    out = fn(cache, level, *args, **kwargs)
                finally:
                    tracer._exit(index)
                if key in built:
                    tracer.spans.pop()  # a cache hit: no span
                else:
                    built.add(key)
                    tracer.count("sparse_nn.kernel_map_builds")
                if level_of(level) is not None:
                    tracer._map_level[out] = level_of(level)
                return out
            return wrapper
        return make

    def _conv(self, fn):
        tracer = self

        def wrapper(conv, x, fmap):
            index = tracer._enter("sparse_nn.conv_fwd",
                                  tracer._map_level.get(fmap))
            try:
                node = fn(conv, x, fmap)
            finally:
                tracer._exit(index)
            # work computed from array sizes, not measured
            pairs = len(fmap.rows_in)
            macs = pairs * conv.c_in * conv.c_out
            tracer.count("sparse_nn.conv_pairs", pairs)
            tracer.count("sparse_nn.conv_flops", 2 * macs)
            tracer.count("sparse_nn.conv_bytes", 8 * (
                pairs * (conv.c_in + conv.c_out) + fmap.n_out * conv.c_out
                + len(fmap.offset_slices) * conv.c_in * conv.c_out))
            backward = node.backward_fn

            def timed_backward(g):
                inner = tracer._enter("sparse_nn.conv_bwd")
                try:
                    return backward(g)
                finally:
                    tracer._exit(inner)
                    tracer.count("sparse_nn.conv_flops", 4 * macs)

            node.backward_fn = timed_backward
            return node
        return wrapper

    def _node_init(self, fn):
        tracer = self

        def wrapper(node, *args, **kwargs):
            tracer.count("autodiff.nodes")
            fn(node, *args, **kwargs)
        return wrapper

    # ------------------------------------------------------- summaries

    def op_metrics(self, op: int) -> Counter:
        """Per-layer seconds and counts of one op.

        A span's self time is its duration minus its child spans and the
        aggregated calls made directly inside it. The op's time outside every
        span goes to the layer that owns the op: the trainer for a training
        epoch, the codec (with its call-site glue) for a coding op.
        """
        kind, op_start, op_end = self.ops[op]
        out = Counter(self.counts[op])
        members = [i for i, s in enumerate(self.spans) if s[OP] == op]
        children = Counter()
        for i in members:
            s = self.spans[i]
            if s[PARENT] >= 0:
                children[s[PARENT]] += s[END] - s[START]
        outside = op_end - op_start
        for i in members:
            name, start, end, parent, _, level, agg = self.spans[i]
            own = end - start - children[i] - agg
            if name == "sparse_nn.conv_fwd":
                out[f"sparse_nn.conv_fwd_s.L{level}"] += own
            elif name.startswith("codec."):
                out["codec.self_s"] += own
            else:
                out[SELF_METRIC[name]] += own
            if name in INCLUSIVE_METRIC:
                out[INCLUSIVE_METRIC[name]] += end - start
            if parent < 0 or self.spans[parent][OP] != op:
                outside -= end - start
        out["trainer.self_s" if kind == "train_epoch" else "codec.self_s"] \
            += outside
        return out

    def write(self, path, env):
        """Write the ops, spans and per-op counts as JSON."""
        with open(path, "w") as f:
            json.dump({"env": env, "ops": self.ops,
                       "span_fields": ["name", "start", "end", "parent", "op",
                                       "level", "aggregated_s"],
                       "spans": self.spans, "counts": self.counts}, f)

    def by_kind(self):
        """{kind: [(op seconds, per-layer Counter) per op]}."""
        out = {}
        for op, (kind, start, end) in enumerate(self.ops):
            out.setdefault(kind, []).append((end - start, self.op_metrics(op)))
        return out


def median_metrics(ops):
    """Median of every metric over a list of per-op Counters."""
    names = set().union(*ops) if ops else set()
    return {n: statistics.median(m.get(n, 0) for m in ops) for n in names}


def count_mismatches(ops):
    """Indices of ops whose exact counts differ from the first op's."""
    first = {n: ops[0].get(n, 0) for n in EXACT_COUNTS}
    return [i for i, m in enumerate(ops)
            if any(m.get(n, 0) != first[n] for n in EXACT_COUNTS)]
