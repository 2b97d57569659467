"""The traced benchmark run wraps stopcc functions by name; every one of
those names must still exist."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py looks each name up with getattr; a renamed or
    # deleted one fails here instead of only in the traced benchmark run
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c",
         "from tracing import Tracer, instrument; instrument(Tracer())"],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
