"""The demos run to completion against the current API.

`overfit_block.py` is left out: it trains for about two minutes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["round_trip.py", "scalable_decode.py",
                                  "ply_pipeline.py"])
def test_demo_exits_0(tmp_path, demo):
    pythonpath = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(tmp_path)}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         env=env, cwd=tmp_path, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
