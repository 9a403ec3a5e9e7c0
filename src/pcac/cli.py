"""Command-line front end: train / encode / decode / decode-scalable /
evaluate / self-check.

Exit codes: 0 success, 1 usage error, 2 data or model error. Outputs are
written to a temp file and renamed, so failures never leave partial files.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import codec, pc_io, trainer
from .errors import MissingProperty, PcacError
from .tensor_core import sort_coords

CHECKPOINT_DIR_ENV = "PCAC_CHECKPOINT_DIR"


def _checkpoint_path(arg: str) -> Path:
    p = Path(arg)
    if not p.exists() and CHECKPOINT_DIR_ENV in os.environ:
        candidate = Path(os.environ[CHECKPOINT_DIR_ENV]) / arg
        if candidate.exists():
            return candidate
    return p


def _atomic_output(path, write):
    """Run write(tmp) on a temp file beside `path`, then rename it onto
    `path`; on failure the temp file is removed and `path` is untouched.
    The file gets the mode a plain open() would give it (0o666 less the
    umask); mkstemp alone would leave it 0o600."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    os.close(fd)
    umask = os.umask(0)
    os.umask(umask)
    try:
        write(tmp)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _cmd_train(args):
    blocks = []
    for path in sorted(Path(args.data_dir).glob("*.ply")):
        blocks.extend(pc_io.load_blocks(path))
    cfg = trainer.TrainConfig(seed=args.seed, max_epochs=args.max_epochs,
                              batch_size=args.batch_size)
    log = print if args.verbose else None
    ckpt = trainer.train(blocks, cfg, log=log)
    _atomic_output(args.out, ckpt.save)
    print(f"saved checkpoint to {args.out} "
          f"(best epoch {ckpt.metadata['epoch']}, "
          f"{ckpt.metadata['val_bits_per_point']:.2f} bits/point)")
    return 0


def _cmd_encode(args):
    model = codec.ModelCheckpoint.load(_checkpoint_path(args.model)).model
    blocks = pc_io.load_blocks(args.input)
    t0 = time.monotonic()
    data = codec.encode_blocks(
        [(b.origin, b.tensor.coords, b.rgb) for b in blocks], model)
    elapsed = time.monotonic() - t0
    _atomic_output(args.out, lambda tmp: Path(tmp).write_bytes(data))
    n = sum(len(b.tensor) for b in blocks)
    print(f"bpp: {codec.measure_bpp(data, n):.2f}")
    print(f"seconds: {elapsed:.2f}")
    return 0


def _decode_file(args, **scalable):
    model = codec.ModelCheckpoint.load(_checkpoint_path(args.model)).model
    blocks = pc_io.load_blocks(args.geometry)
    data = Path(args.bitstream).read_bytes()
    decoded = codec.decode_blocks(data, [b.tensor.coords for b in blocks],
                                  model, **scalable)
    positions = np.concatenate(
        [np.asarray(origin) + b.tensor.coords
         for b, (origin, _) in zip(blocks, decoded)])
    colors = np.concatenate([rgb for _, rgb in decoded])
    pc = pc_io.PointCloud(positions, colors)
    _atomic_output(args.out, lambda tmp: pc_io.write_ply(pc, tmp))
    return blocks, decoded


def _cmd_decode(args):
    blocks, decoded = _decode_file(args)
    try:
        lossless = all(np.array_equal(rgb, b.rgb)
                       for b, (_, rgb) in zip(blocks, decoded))
    except MissingProperty:  # a geometry-only PLY: nothing to compare with
        return 0
    print(f"lossless: {str(lossless).lower()}")
    return 0


def _cmd_decode_scalable(args):
    _decode_file(args, chunks=args.chunks, mode=args.mode, seed=args.seed)
    print(f"chunks used: {args.chunks}")
    return 0


def _cmd_evaluate(args):
    model = codec.ModelCheckpoint.load(_checkpoint_path(args.model)).model
    paths = sorted(Path(args.data_dir).glob("*.ply"))
    rows = trainer.evaluate(paths, model)

    def write_csv(tmp):
        with open(tmp, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["name", "points", "bpp", "enc_seconds"])
            for r in rows:
                w.writerow([r["name"], r["points"], f"{r['bpp']:.2f}",
                            f"{r['enc_seconds']:.2f}"])

    _atomic_output(args.csv, write_csv)
    for r in rows:
        print(f"{r['name']}: {r['points']} points, {r['bpp']:.2f} bpp, "
              f"{r['enc_seconds']:.2f} s")
    return 0


def _cmd_self_check(args):
    """Fast invariant sweep: round trips and the coder's CDF rows."""
    from . import likelihood as lh
    from . import range_coder as rc
    rng = np.random.default_rng(args.seed)
    model = codec.CodecModel(seed=args.seed)

    checks = {}  # check name -> the verdict of each of its cases

    def check(name, ok):
        checks.setdefault(name, []).append(bool(ok))

    # range coder round trip
    for _ in range(20):
        m = int(rng.integers(2, 300))
        pmf = rng.dirichlet(np.ones(m))
        cdf = lh.build_cdf_table(pmf)[0]
        syms = rng.integers(0, m, size=int(rng.integers(1, 500)))
        data = rc.encode_with_cdfs(syms, np.asarray(cdf))
        back = rc.decode_with_cdfs(data, np.asarray(cdf), len(syms))
        check("range coder round trip", np.array_equal(syms, back))
    # the coder's CDF rule, in the coder's dtype: rows run from 0 to TOTAL
    # and strictly increase
    mixtures = rng.normal(size=(3, 50, 10)).astype(codec.CODING_DTYPE)
    rows = lh.pointwise_cdf(*lh.mixture_terms(*mixtures), lh.RGB_GRID,
                            np.arange(lh.RGB_GRID.num_symbols + 1))
    check("pointwise cdf rows",
          (rows[:, [0, -1]] == [0, rc.TOTAL]).all() and np.diff(rows).min() > 0)
    # codec round trip on a small random block
    coords = np.unique(rng.integers(0, 16, size=(200, 3)), axis=0)
    rgb = rng.integers(0, 256, size=(len(coords), 3))
    stream = codec.encode(coords, rgb, model)
    back = codec.decode(coords, stream, model)
    check("codec round trip", np.array_equal(back, rgb[sort_coords(coords)]))

    for name, cases in checks.items():
        print(f"{'ok' if all(cases) else 'FAIL'}: {name} "
              f"({sum(cases)}/{len(cases)} cases passed)")
    return 0 if all(all(cases) for cases in checks.values()) else 2


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="pcac",
        description="Multiscale lossless point-cloud attribute codec")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model on a directory of PLYs")
    t.add_argument("data_dir")
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--max-epochs", type=_positive_int, default=200)
    t.add_argument("--batch-size", type=_positive_int, default=128)
    t.add_argument("--verbose", action="store_true")
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("encode", help="compress a PLY's attributes")
    e.add_argument("input")
    e.add_argument("--model", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=_cmd_encode)

    d = sub.add_parser("decode", help="reconstruct attributes losslessly")
    d.add_argument("geometry")
    d.add_argument("bitstream")
    d.add_argument("--model", required=True)
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_decode)

    s = sub.add_parser("decode-scalable",
                       help="lossy decode from a stream prefix")
    s.add_argument("geometry")
    s.add_argument("bitstream")
    s.add_argument("--model", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--mode", choices=["mean", "sample"], default="mean")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--chunks", type=int, default=3, choices=[1, 2, 3, 4])
    s.set_defaults(func=_cmd_decode_scalable)

    v = sub.add_parser("evaluate", help="rate/time report over a directory")
    v.add_argument("data_dir")
    v.add_argument("--model", required=True)
    v.add_argument("--csv", required=True)
    v.set_defaults(func=_cmd_evaluate)

    c = sub.add_parser("self-check", help="run fast built-in invariant checks")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_self_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except PcacError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
