"""README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    kappa, absent = out.getvalue().split()
    # the component count of one draw above p0, and the closed-form absence
    # probability of three edges at p0: (1 - 3 p0 / N)^N
    assert int(kappa) >= 1
    assert float(absent) == pytest.approx(0.963, abs=5e-4)
