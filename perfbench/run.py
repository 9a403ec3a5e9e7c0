"""pcac benchmark: one seeded workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload dense-block --seed 1 --seconds 20 \
        --trace 0

Run it from the root of a checkout. It benchmarks the checkout's own src/
(no install needed), keeps its scratch files under .bench_work/, and prints
one JSON object as its last line: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. Workloads are listed in perfbench/workloads.py and
documented in perfbench/README.md.

The launcher pins the BLAS thread count, writes the workload's inputs in an
untimed child process, then measures in a second, fresh child process, so
the peak memory reported is that of the measured work alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170  # a run must end within 180 s
# One BLAS thread: never more than nproc, the same on every machine, and on
# the 8128-point block two threads were no faster than one.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, deadline):
    """Run bench.py with `args`; returns its exit code (-1 on timeout)."""
    proc = subprocess.Popen([sys.executable, str(HERE / "bench.py"), *args],
                            env=child_env(), cwd=ROOT)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("error: benchmark child ran out of time", file=sys.stderr)
        return -1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # a terminated launcher still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    if not (ROOT / "src" / "pcac" / "__init__.py").is_file():
        print(f"error: no pcac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work"
    rundir = work / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    result = rundir / "result.json"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", str(rundir)]
    try:
        if run_child(["prepare", *common], deadline) != 0:
            print("error: preparing the workload failed", file=sys.stderr)
            return 1
        budget = deadline - time.monotonic() - 5
        spans = work / f"spans-{args.workload}-seed{args.seed}.json"
        code = run_child(
            ["measure", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--budget", f"{budget:.1f}",
             "--result", str(result), "--spans", str(spans)],
            deadline)
        if code != 0 or not result.is_file():
            print("error: measuring the workload failed", file=sys.stderr)
            return 1
        line = json.dumps(json.loads(result.read_text()))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(f"wall: {time.monotonic() - started:.1f} s")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
