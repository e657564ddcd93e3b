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


def test_code_lines_counts_token_start_lines(tmp_path):
    # code lines: 5 (import), 8-9 (def over two lines), 12 (return) and 13 (an
    # assignment whose string spans two lines); docstrings, comments and blanks count nothing
    module = '''"""Module docstring.

Two paragraphs.
"""
import math  # a trailing comment

# a comment line
def f(a,
      b):
    """Function docstring."""

    return math.hypot(a, b)
x = """a string
that spans lines"""
'''
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(module)
    (tmp_path / "pkg" / "b.py").write_text("y = 1\n")
    argv = [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path / "pkg")]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["a.py 5", "b.py 1", "total 6"]


def test_code_lines_total_is_the_module_sum():
    argv = [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(ROOT / "src" / "simplexgraphs")]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    *modules, total = [line.split() for line in done.stdout.splitlines()]
    assert "oracle.py" in [name for name, _ in modules]
    assert total[0] == "total" and int(total[1]) == sum(int(count) for _, count in modules)
