"""Input fuzz: config text and CLI argv end in exit 0, 2 or 3, never in a traceback.

An error (exit 2 or 3) leaves exactly one stderr line and no stdout; a
success leaves stderr empty and raises no warning.  The argv values have the types argparse
declares (its own usage errors are argparse's contract, not this package's),
and the config values are free text.  Sizes stay small (n <= 12, at most three
trials) so the fuzz adds seconds, and a run never asks for more than one
worker: the worker cap is fuzzed by parsing alone, so no example starts a
process pool.
"""

import io
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from simplexgraphs import CapacityError, ConfigError, ExperimentConfig, parse_config
from simplexgraphs.cli import main
from simplexgraphs.experiments import KINDS

FUZZ = settings(max_examples=120, deadline=None)

# edge values: empty, not-a-number, infinities, a subnormal, a budget past the
# L * 53 ln 2 overflow bound and one just inside it, and plain junk
EDGE_NUMBERS = ("", "nan", "-nan", "inf", "-inf", "+inf", "1e-320", "1.5e308", "4.8e306", "1e300", "1e-300",
                "-1", "0", "0.5", "2", "abc", "1,2", "0x10")
SPECS = ("ones", "1", "", "const:", "const:2", "const:nan", "const:inf", "const:-1", "const:0", "const:1e-320",
         "const:1.5e308", "uniform:", "uniform:2", "uniform:0.5", "uniform:inf", "dvalues:", "dvalues:1x4",
         "dvalues:2x2,0.5x2", "dvalues:1e-160x4", "dvalues:1.5e308x4", "dvalues:1e150x6", "dvalues:1x",
         "dvalues:x4", "dvalues:nanx4", "dvalues:1x-2,1x6", "warp:2", "ones,ones")
JUNK = st.text(alphabet="0123456789.,:-+exn aif#=", max_size=6)

numbers = st.one_of(st.sampled_from(EDGE_NUMBERS), JUNK)
specs = st.one_of(st.sampled_from(SPECS), JUNK)
# argparse float values: the edge numbers it accepts, or any float's repr
cli_floats = st.one_of(
    st.sampled_from(("nan", "inf", "-inf", "1e-320", "1.5e308", "4.8e306", "1e300", "1e-300", "0", "-1", "0.5", "3")),
    st.floats().map(repr),
)
cli_n = st.integers(-2, 12).map(str)
cli_trials = st.integers(-1, 3).map(str)
cli_seed = st.integers(-(2**65), 2**65).map(str)


def run_cli(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    # a warning would be one more stderr line on the command line
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3), (argv, code)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (argv, err.getvalue())
        assert out.getvalue() == "", argv
    else:
        assert err.getvalue() == "", (argv, err.getvalue())
    return code


def flags(draw, pairs) -> list[str]:
    """Each (flag, strategy) pair as ``flag=value``, included or left out; '=' keeps "-inf" a value."""
    return [f"{flag}={draw(strategy)}" for flag, strategy in pairs if draw(st.booleans())]


@st.composite
def config_texts(draw, workers):
    """Config text: the four required keys (values fuzzed or empty) plus fuzzed optional keys and junk lines."""
    lines = [
        "kind=" + draw(st.one_of(st.sampled_from(KINDS), st.sampled_from(("", "warp")))),
        "n=" + draw(st.one_of(st.integers(-2, 12).map(str), st.sampled_from(("", "nan", "6.0", "1e1", "x")))),
        "trials=" + draw(st.one_of(st.integers(-1, 3).map(str), st.sampled_from(("", "two")))),
        "seed=" + draw(st.one_of(st.integers(-(2**65), 2**65).map(str), st.just(""))),
    ]
    optional = {
        "model": st.sampled_from(("simplex", "exponential", "ball", "", "cube")),
        "alpha": specs,
        "beta": specs,
        "L": numbers,
        "rate": numbers,
        "radius": numbers,
        "p_mode": st.sampled_from(("explicit", "clogn", "p0eps", "theta", "", "warp")),
        "p": st.one_of(numbers, st.sampled_from(("0.3", "0.1,0.5", "0.2,nan", "0.2,,0.4"))),
        "c": st.one_of(numbers, st.sampled_from(("-1,0,1", "-5", "0,inf"))),
        "eps": numbers,
        "theta": numbers,
        "edge": st.one_of(st.integers(-1, 70).map(str), st.sampled_from(("", "x"))),
        "workers": workers,
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            lines.append(f"{key}={draw(strategy)}")
    lines += draw(st.lists(st.sampled_from(("", "# comment", "junk", "=1", "bogus=1", "n=4")), max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n"


class TestParseConfigFuzz:
    @FUZZ
    @given(text=config_texts(st.one_of(st.integers(-3, 10**6).map(str), st.sampled_from(("", "x", "1.5")))))
    def test_config_or_config_error(self, text):
        try:
            cfg = parse_config(text)
        except (ConfigError, CapacityError):
            return
        assert isinstance(cfg, ExperimentConfig)
        assert 1 <= cfg.workers <= (os.cpu_count() or 1)


class TestCliFuzz:
    @FUZZ
    @given(data=st.data())
    def test_sample(self, data):
        argv = ["sample", f"--n={data.draw(cli_n)}"] + flags(data.draw, [
            ("--model", st.sampled_from(("simplex", "exponential", "ball"))),
            ("--alpha", specs), ("--L", cli_floats), ("--rate", cli_floats), ("--radius", cli_floats),
            ("--trials", cli_trials), ("--seed", cli_seed),
        ])
        run_cli(argv)

    @FUZZ
    @given(data=st.data())
    def test_oracle(self, data):
        argv = ["oracle", f"--n={data.draw(cli_n)}"] + flags(data.draw, [
            ("--alpha", specs), ("--L", cli_floats), ("--p", cli_floats), ("--seed", cli_seed),
        ])
        run_cli(argv)

    @FUZZ
    @given(data=st.data())
    def test_mst(self, data):
        argv = ["mst", f"--n={data.draw(cli_n)}"] + flags(data.draw, [
            ("--d", specs), ("--trials", cli_trials), ("--seed", cli_seed),
        ])
        run_cli(argv)

    @FUZZ
    @given(data=st.data())
    def test_atsp(self, data):
        sizes = data.draw(st.lists(cli_n, min_size=1, max_size=2))
        argv = ["atsp"] + [f"--n={n}" for n in sizes] + flags(data.draw, [
            ("--beta", specs), ("--trials", cli_trials), ("--seed", cli_seed),
        ])
        run_cli(argv)

    @FUZZ
    @given(text=config_texts(st.sampled_from(("", "1", "0", "-1", "x"))), data=st.data())
    def test_sweep(self, text, data):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "fuzz.conf"
            config.write_text(text)
            overrides = flags(data.draw, [
                ("--trials", cli_trials), ("--seed", cli_seed), ("--workers", st.sampled_from(("1", "0", "-1"))),
                ("--out", st.just(str(Path(tmp) / "fuzz.csv"))),
            ])
            run_cli(["sweep", "--config", str(config)] + overrides)
