"""README's library example runs as printed, and its example config is C04's."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from simplexgraphs.experiments import ExperimentConfig, parse_config

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


def test_example_config_is_c04():
    (block,) = re.findall(r"Example:\n\n```\n(.*?)```", README.read_text(), flags=re.DOTALL)
    # the config of tests/test_acceptance.py::test_c04_connectivity_limit_law, with its out file
    c04 = ExperimentConfig(
        kind="connectivity",
        n=1000,
        trials=1000,
        seed=104,
        p_mode="clogn",
        c_values=(-2.0, 0.0, 2.0),
        out="connectivity.csv",
    )
    assert parse_config(block) == c04
