"""Smoke tests of the scripts under ``scripts/``, each run as a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_far_pairs_redraws_what_the_sweep_drew():
    # the script exits non-zero when a re-drawn graph's edge count or diameter
    # differs from the sweep's record; it re-draws on the dense path and the
    # sweep on the streamed threshold draw, so this also checks that the two agree
    argv = [sys.executable, str(ROOT / "scripts" / "far_pairs.py"), "--n", "200", "--theta", "0.6", "--trials", "2"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["trial 0", "trial 1"]
    assert lines[-1].startswith("n=200 theta=0.6 seed=1071 trials=2: q=")
    assert "independent-edge expectation" in lines[-1]
