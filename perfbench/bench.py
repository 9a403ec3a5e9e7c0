"""Benchmark worker: writes a workload's inputs, or measures the workload.

    bench.py prepare --workload W --seed N --dir D
    bench.py measure --workload W --seed N --dir D --seconds S --trace 0|1
                     --budget B --result FILE

Start it through run.py, which pins the BLAS thread count and points
PYTHONPATH at the checkout's src/. `prepare` is not timed. `measure` loads
the checkpoint and input (set-up), trains for the workload's fixed number of
epochs, runs one untimed warm-up encode whose stream becomes the reference,
then repeats timed cycles of encode, decode, scalable decode and a short
training run until S seconds of timed work (the epochs included) and at
least MIN_CYCLES cycles are done. With --trace 1 it alternates traced and
untraced coding cycles and reports per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from workloads import SMALL_MODEL, TRAIN_SETTINGS, WORKLOADS

from pcac import codec, pc_io, trainer
from pcac.sparse_nn import ModelConfig
from pcac.tensor_core import sort_coords

# set-up runs at least 3 and at most 15 times, as many as fit in about 3 s
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 15, 3.0
# The seed draws the point cloud. Weights start from one fixed seed (as in
# acceptance criterion 8): the rate reached after a fixed number of epochs
# then depends on the data alone, not on a lucky initialisation.
MODEL_SEED = 0
# Timings are medians over a run's ops; on dense-block an op takes seconds,
# so a run always codes at least this many untraced cycles.
MIN_CYCLES = 2
# Each untraced cycle ends with a training run of this many epochs on a fresh
# model, so that epoch times are sampled across the whole run and not only
# in the few seconds of the workload's own training.
REPEAT_EPOCHS = 2
SCALABLE_CHUNKS = 3  # top latent + both latent levels; the RGB chunk dropped
BLOCK_SIZE = 64
CODING_KINDS = ("encode", "decode", "scalable_decode")
CHECKPOINT = "model.npz"
INPUT = "input.ply"


# ------------------------------------------------------------------ prepare

def prepare(workload, seed: int, workdir: Path):
    rng = np.random.default_rng(seed)
    positions, colours = workload.make_cloud(rng)
    pc_io.write_ply(pc_io.PointCloud(positions, colours), workdir / INPUT)
    model = codec.CodecModel(ModelConfig(**workload.model), seed=MODEL_SEED)
    codec.ModelCheckpoint(model).save(workdir / CHECKPOINT)


# --------------------------------------------------------------- operations

class Ledger:
    """Counts operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what, fn, *args):
        """Run one op; returns (seconds, its output or None if it raised)."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = fn(*args)
        except Exception:  # any exception is a failed op, never an abort
            elapsed = perf_counter() - start
            self.fail(what, traceback.format_exc(limit=3))
            return elapsed, None
        return perf_counter() - start, out

    def fail(self, what, why):
        self.failed += 1
        print(f"FAILED {what}: {why}", file=sys.stderr)


class BlockCoder:
    """One block through encode / decode / decode_scalable."""

    def __init__(self, coords, rgb, model):
        self.coords, self.rgb, self.model = coords, rgb, model
        self.points = len(coords)
        self.expected = rgb[sort_coords(coords)]

    def encode(self):
        return codec.encode(self.coords, self.rgb, self.model)

    def decode(self, stream):
        return codec.decode(self.coords, stream, self.model)

    def scalable_decode(self, stream):
        return codec.decode_scalable(
            self.coords, codec.truncate_bitstream(stream, SCALABLE_CHUNKS),
            self.model, mode="mean")

    def block_streams(self, stream):
        return [(self.coords, self.rgb, stream)]


class FileCoder:
    """A whole PLY file through the same calls as `pcac encode` / `decode`."""

    def __init__(self, workdir: Path, bit_depth: int, model):
        self.ply = workdir / INPUT
        self.bin = workdir / "input.bin"
        self.out = workdir / "decoded.ply"
        self.bit_depth = bit_depth
        self.model = model
        self.blocks = [(b.tensor.coords, b.tensor.features.astype(np.int64))
                       for b in self._blocks()]
        self.points = sum(len(c) for c, _ in self.blocks)
        self.expected = np.concatenate([rgb for _, rgb in self.blocks])
        self._streams = None

    def _blocks(self):
        tensor = pc_io.voxelize(pc_io.read_ply(self.ply), self.bit_depth)
        return pc_io.partition_blocks(tensor, BLOCK_SIZE)

    def encode(self):
        data = codec.encode_blocks(
            [(b.origin, b.tensor.coords, b.tensor.features.astype(np.int64))
             for b in self._blocks()], self.model)
        self.bin.write_bytes(data)
        return data

    def decode(self, _stream):
        blocks = self._blocks()
        decoded = codec.decode_blocks(self.bin.read_bytes(),
                                      [b.tensor.coords for b in blocks],
                                      self.model)
        positions = np.concatenate(
            [np.asarray(origin) + b.tensor.coords
             for b, (origin, _) in zip(blocks, decoded)])
        colours = np.concatenate([rgb for _, rgb in decoded])
        pc_io.write_ply(pc_io.PointCloud(positions, colours), self.out)
        return colours

    def scalable_decode(self, _stream):
        # per block, as `pcac decode-scalable` does
        return np.concatenate([
            codec.decode_scalable(
                coords, codec.truncate_bitstream(stream, SCALABLE_CHUNKS),
                self.model, mode="mean")
            for coords, _, stream in self.block_streams(None)])

    def block_streams(self, _stream):
        if self._streams is None:
            self._streams = [(c, rgb, codec.encode(c, rgb, self.model))
                             for c, rgb in self.blocks]
        return self._streams


class CodingChecks:
    """Checks each coding op's output against the run's references."""

    def __init__(self, coder, ledger: Ledger):
        self.coder = coder
        self.ledger = ledger
        self.stream = None  # the run's first stream
        self.scalable = None  # the run's first scalable decode

    def op(self, kind, stream=None):
        """Run one coding op of `kind`, check it; returns (seconds, output)."""
        fn = {"encode": self.coder.encode, "decode": self.coder.decode,
              "scalable_decode": self.coder.scalable_decode}[kind]
        args = () if kind == "encode" else (stream,)
        failed_before = self.ledger.failed
        seconds, out = self.ledger.run(kind, fn, *args)
        if self.ledger.failed > failed_before:
            return seconds, None
        why = getattr(self, f"_check_{kind}")(out)
        if why:
            self.ledger.fail(kind, why)
            return seconds, None
        return seconds, out

    def _check_encode(self, stream):
        if self.stream is None:
            self.stream = stream
        elif stream != self.stream:
            return "stream differs from the run's first stream"

    def _check_decode(self, rgb):
        if not np.array_equal(rgb, self.coder.expected):
            return "decoded RGB differs from the input"

    def _check_scalable_decode(self, rgb):
        if rgb.shape != (self.coder.points, 3):
            return f"shape {rgb.shape}"
        if rgb.min() < 0 or rgb.max() > 255:
            return "values outside 0..255"
        if self.scalable is None:
            self.scalable = rgb
        elif not np.array_equal(rgb, self.scalable):
            return "differs from the run's first scalable decode"


# ----------------------------------------------------------------- measure

def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup(workdir: Path, tracer=None):
    """Load the checkpoint and read the input, as every CLI call does."""
    with tracer.span("codec.checkpoint_load") if tracer else nullcontext():
        model = codec.ModelCheckpoint.load(workdir / CHECKPOINT).model
    return model, pc_io.read_ply(workdir / INPUT)


def train(workload, model, blocks, ledger, tracer=None, epochs=None):
    """Train for `epochs` (default: the workload's); returns (epoch seconds,
    checkpoint).

    The first epoch is left out of the seconds: it also prepares the blocks
    and builds their kernel maps, once per `trainer.train` call.
    """
    epochs = epochs or workload.train_epochs
    marks = [perf_counter()]

    def on_epoch(_message):
        marks.append(perf_counter())
        if tracer is not None:
            tracer.begin_op("train_epoch")

    config = trainer.TrainConfig(max_epochs=epochs, patience=epochs + 1,
                                 seed=MODEL_SEED, **TRAIN_SETTINGS)
    if tracer is not None:
        tracer.install()
        tracer.begin_op("train_epoch")
    try:
        _, ckpt = ledger.run("train", trainer.train, blocks, config, model,
                             None, on_epoch)
    finally:
        if tracer is not None:
            tracer.end_op()
            tracer.ops[-1][0] = "train_tail"  # after the last epoch's log
            tracer.uninstall()
    ran = None if ckpt is None else ckpt.metadata["epochs_run"]
    if ckpt is not None and ran != epochs:
        ledger.fail("train", f"ran {ran} epochs, not {epochs}")
    return np.diff(marks)[1:].tolist(), ckpt


def training_model(workload, workdir):
    if workload.code_trained:
        return codec.ModelCheckpoint.load(workdir / CHECKPOINT).model
    return fresh_model()


def fresh_model():
    """The model every workload trains, before training (as `prepare` wrote
    it for train-overfit)."""
    return codec.CodecModel(ModelConfig(**SMALL_MODEL), seed=MODEL_SEED)


def median(values):
    return statistics.median(values) if values else float("nan")


def measure(args):
    workload = WORKLOADS[args.workload]
    workdir = Path(args.dir)
    began = perf_counter()
    env = environment()
    print("env: " + json.dumps(env), flush=True)
    ledger = Ledger()
    traced = args.trace == 1
    tracer = tracing.Tracer() if traced else None

    setup_times = []

    def timed_setup():
        start = perf_counter()
        loaded = setup(workdir)
        setup_times.append(perf_counter() - start)
        return loaded

    model, cloud = timed_setup()
    # More set-ups are spread over the run (between cycles), so that their
    # median does not hang on one stretch of a busy host.
    setups_wanted = 1 if traced else max(SETUP_MIN, min(
        SETUP_MAX, int(SETUP_SECONDS / setup_times[0])))
    if traced:
        tracer.begin_op("setup")
        setup(workdir, tracer)
        tracer.end_op()

    if workload.whole_file:
        coder = FileCoder(workdir, workload.bit_depth, model)
        blocks = coder.blocks
    else:
        tensor = pc_io.voxelize(cloud, workload.bit_depth)
        blocks = [(tensor.coords, tensor.features.astype(np.int64))]
        coder = BlockCoder(*blocks[0], model)

    # training: a fixed number of epochs, so the rate it reaches is exact
    epoch_s, ckpt = train(workload, training_model(workload, workdir),
                          blocks, ledger)
    timed = sum(epoch_s)
    if traced:
        traced_epochs, traced_ckpt = train(
            workload, training_model(workload, workdir), blocks, ledger,
            tracer)
        if ckpt is not None and traced_ckpt is not None and (
                traced_ckpt.metadata != ckpt.metadata
                or traced_ckpt.model.digest() != ckpt.model.digest()):
            ledger.fail("train", "traced training differs from untraced")
    if workload.code_trained and ckpt is not None:
        coder.model = ckpt.model
    if len(setup_times) < setups_wanted:
        timed_setup()

    first_repeat = None  # (metadata, model digest) of the first repeat

    def repeat_training():
        """A short training run on a fresh model; its epochs join epoch_s."""
        nonlocal first_repeat
        model = fresh_model()  # outside every epoch
        seconds, ckpt = train(workload, model, blocks, ledger,
                              epochs=REPEAT_EPOCHS)
        if ckpt is None:
            return
        epoch_s.extend(seconds)
        result = (ckpt.metadata, ckpt.model.digest())
        if first_repeat is None:
            first_repeat = result
        elif result != first_repeat:
            ledger.fail("train", "a repeated training run differs")

    # warm-up: the first encode is untimed (it is slower than the ones after
    # it) and its stream is the run's reference
    checks = CodingChecks(coder, ledger)
    checks.op("encode")
    ledger.run("block streams", coder.block_streams, checks.stream)

    times = {kind: [] for kind in CODING_KINDS}
    traced_times = {kind: [] for kind in CODING_KINDS}
    cycles = traced_cycles = 0
    while True:
        trace_this = traced and traced_cycles <= cycles
        if trace_this:
            tracer.install()
        cycle_start = perf_counter()
        try:
            for kind in CODING_KINDS:
                if trace_this:
                    tracer.begin_op(kind)
                seconds, _ = checks.op(kind, checks.stream)
                if trace_this:
                    tracer.end_op()
                    traced_times[kind].append(seconds)
                else:
                    times[kind].append(seconds)
        finally:
            if trace_this:
                tracer.uninstall()
        if not traced:
            repeat_training()
        last_cycle = perf_counter() - cycle_start
        timed += last_cycle
        if trace_this:
            traced_cycles += 1
        else:
            cycles += 1
        enough = timed >= args.seconds and (
            traced_cycles >= 2 and cycles >= 1 if traced
            else cycles >= MIN_CYCLES)
        out_of_time = perf_counter() - began + 2 * last_cycle > args.budget
        if enough or out_of_time:
            break
        if len(setup_times) < setups_wanted:
            timed_setup()
    while len(setup_times) < setups_wanted:
        timed_setup()

    if traced:
        metrics = per_layer(tracer, workload, coder, checks, ledger,
                            times, traced_times, epoch_s, traced_epochs)
        tracer.write(args.spans, env)
    else:
        metrics = end_to_end(workload, coder, checks, ckpt, setup_times,
                             epoch_s, times, ledger)
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    Path(args.result).write_text(json.dumps(result))
    for kind, values in (("setup", setup_times), ("train_epoch", epoch_s),
                         *times.items()):
        if values:
            print(f"timing {kind}: n={len(values)} median={median(values):.4f}"
                  f" min={min(values):.4f} s")
    if traced:
        print(f"traced cycles: {traced_cycles}")


def end_to_end(workload, coder, checks, ckpt, setup_times, epoch_s, times,
               ledger):
    ok = ledger.attempted - ledger.failed
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "encode_pts_per_s": (coder.points / median(times["encode"]),
                             "points/s"),
        "decode_pts_per_s": (coder.points / median(times["decode"]),
                             "points/s"),
        "scalable_decode_pts_per_s": (
            coder.points / median(times["scalable_decode"]), "points/s"),
        "train_epoch_s": (median(epoch_s), "s"),
        "train_val_bpp": (ckpt.metadata["val_bits_per_point"]
                          if ckpt is not None else float("nan"), "bits/point"),
        "bpp": (codec.measure_bpp(checks.stream, coder.points)
                if checks.stream is not None else float("nan"), "bits/point"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ops_ok_frac": (ok / ledger.attempted, "ok/attempted"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    return {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}


def per_layer(tracer, workload, coder, checks, ledger, times, traced_times,
              epoch_s, traced_epoch_s):
    kinds = tracer.by_kind()
    cycle_kinds = CODING_KINDS + ("train_epoch",)
    medians = {}
    for kind in cycle_kinds:
        ops = [m for _, m in kinds.get(kind, [])]
        # the first epoch builds the kernel maps; later ones reuse them
        repeat = ops[1:] if kind == "train_epoch" else ops
        if repeat:
            for i in tracing.count_mismatches(repeat):
                ledger.fail(kind, f"traced op {i}: counts differ from op 0")
        medians[kind] = tracing.median_metrics(ops)

    def per_cycle(name):
        return sum(medians[k].get(name, 0) for k in cycle_kinds)

    metrics = {}
    for name, unit in LAYER_METRICS:
        if name.startswith("tensor_core.points."):  # the input, per encode
            metrics[name] = (medians["encode"].get(name, 0), unit)
        else:
            metrics[name] = (per_cycle(name), unit)
    load = next(s for s in tracer.spans
                if s[tracing.NAME] == "codec.checkpoint_load")
    metrics["codec.checkpoint_load_s"] = (
        load[tracing.END] - load[tracing.START], "s")

    # rate: chunk bytes and coded bits over the integer tables' information
    names = ["top"] + [f"L{n}" for n in range(
        coder.model.config.num_scales - 1, 0, -1)] + ["rgb"]
    chunk_bytes = dict.fromkeys(names, 0)
    payload_bits = info_bits = 0.0
    for coords, rgb, stream in coder.block_streams(checks.stream):
        for name, length in zip(names, codec.chunk_lengths(stream)):
            chunk_bytes[name] += length
        payload_bits += 8 * sum(codec.chunk_lengths(stream))
        info_bits += codec.quantized_info_bits(coder.model, coords, rgb)
    for name in names:
        metrics[f"codec.chunk_bytes.{name}"] = (chunk_bytes[name], "B")
    metrics["range_coder.overhead_bits"] = (payload_bits - info_bits, "bit")

    # the same estimator as the end-to-end timings: each kind's median op
    untraced = sum(median(times[k]) for k in CODING_KINDS) + median(epoch_s)
    with_trace = (sum(median(traced_times[k]) for k in CODING_KINDS)
                  + median(traced_epoch_s))
    metrics["trace.overhead_frac"] = (with_trace / untraced - 1.0, "ratio")

    print_split(workload, kinds, medians, cycle_kinds)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    return {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}


def print_split(workload, kinds, medians, cycle_kinds):
    """Each layer's self-time share of the median traced op, per op kind."""
    for kind in cycle_kinds:
        ops = kinds.get(kind, [])
        if not ops:
            continue
        op_s = median([s for s, _ in ops])
        shares = sorted(((medians[kind].get(n, 0) / op_s, n)
                         for n in SELF_TIMES if medians[kind].get(n, 0) > 0),
                        reverse=True)
        print(f"split {workload.name} {kind} ({len(ops)} ops, median "
              f"{op_s:.4f} s): " + ", ".join(
                  f"{n} {100 * f:.1f}%" for f, n in shares))


# (per-layer metric, unit); BENCHMARK.json lists the same names
LAYER_METRICS = [
    ("tensor_core.pyramid_s", "s/cycle"),
    ("tensor_core.points.L0", "count"),
    ("tensor_core.points.L1", "count"),
    ("tensor_core.points.L2", "count"),
    ("tensor_core.points.L3", "count"),
    ("sparse_nn.conv_fwd_s.L0", "s/cycle"),
    ("sparse_nn.conv_fwd_s.L1", "s/cycle"),
    ("sparse_nn.conv_fwd_s.L2", "s/cycle"),
    ("sparse_nn.conv_fwd_s.L3", "s/cycle"),
    ("sparse_nn.conv_bwd_s", "s/cycle"),
    ("sparse_nn.pool_s", "s/cycle"),
    ("sparse_nn.kernel_map_s", "s/cycle"),
    ("sparse_nn.kernel_map_builds", "count/cycle"),
    ("sparse_nn.conv_pairs", "count/cycle"),
    ("sparse_nn.conv_flops", "flop-computed"),
    ("sparse_nn.conv_bytes", "B-computed"),
    ("autodiff.backward_self_s", "s/cycle"),
    ("autodiff.adam_s", "s/cycle"),
    ("autodiff.nodes", "count/cycle"),
    ("likelihood.pmf_s", "s/cycle"),
    ("likelihood.cdf_table_s", "s/cycle"),
    ("likelihood.cdf_entries", "count/cycle"),
    ("likelihood.bits_node_s", "s/cycle"),
    ("quantizer.quantize_s", "s/cycle"),
    ("range_coder.symbols", "count/cycle"),
    ("range_coder.encode_s", "s/cycle"),
    ("range_coder.decode_s", "s/cycle"),
    ("codec.self_s", "s/cycle"),
    ("codec.block_loss_s", "s/cycle"),
    ("pc_io.read_ply_s", "s/cycle"),
    ("pc_io.voxelize_s", "s/cycle"),
    ("pc_io.partition_s", "s/cycle"),
    ("pc_io.write_ply_s", "s/cycle"),
    ("trainer.self_s", "s/cycle"),
]

# the per-layer self times, which add up to the op's duration
SELF_TIMES = [name for name, unit in LAYER_METRICS if unit == "s/cycle"
              and name not in tracing.INCLUSIVE_METRIC.values()]


# -------------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["prepare", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--budget", type=float, default=150)
    parser.add_argument("--result", help="where measure writes its JSON")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    if args.mode == "prepare":
        prepare(WORKLOADS[args.workload], args.seed, Path(args.dir))
    else:
        measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
