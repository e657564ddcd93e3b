import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import simplexgraphs

from brutes import expected_mst_weight_exact
from simplexgraphs import (
    CapacityError,
    ConfigError,
    ExperimentConfig,
    SimplexModel,
    atsp_experiment,
    mst_experiment,
    parse_config,
    run_sweep,
    wilson_interval,
)
from simplexgraphs.experiments import KINDS, _CONFIG_KEYS, _build_context, _run_trial, _summarize, resolve_dvalues

BASIC = """
kind=marginals
n=6
p=0.4,0.8
trials=25
seed=5
"""


class TestConfigParsing:
    def test_happy_path(self):
        cfg = parse_config(BASIC)
        assert cfg.kind == "marginals"
        assert cfg.p_values == (0.4, 0.8)
        assert cfg.trials == 25

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\nkind=moments\nn=6\np=0.3\ntrials=2\nseed=1\n")
        assert cfg.kind == "moments"

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config(BASIC + "bogus=1\n")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            parse_config("kind=percolation\nn=6\np=0.1\ntrials=1\nseed=0\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            parse_config("kind=moments\np=0.1\ntrials=1\nseed=0\n")

    @pytest.mark.parametrize("key", ["kind", "n", "trials", "seed"])
    def test_empty_required_value(self, key):
        lines = {"kind": "moments", "n": "6", "p": "0.1", "trials": "1", "seed": "0"}
        lines[key] = ""
        with pytest.raises(ConfigError, match=f"missing required config key '{key}'"):
            parse_config("".join(f"{k}={v}\n" for k, v in lines.items()))

    def test_empty_optional_value_takes_the_default(self):
        cfg = parse_config("kind=moments\nn=6\np=0.1\ntrials=1\nseed=0\nalpha=\nL=\nworkers=\nc=\nout=\n")
        assert cfg == ExperimentConfig(kind="moments", n=6, trials=1, seed=0, p_values=(0.1,))

    def test_replace_checks_the_overrides(self):
        cfg = parse_config("kind=moments\nn=6\np=0.1\ntrials=1\nseed=0\n")
        with pytest.raises(ConfigError, match="trials"):
            replace(cfg, trials=-1)
        with pytest.raises(ConfigError, match="n >= 2"):
            replace(cfg, n=1)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("kind=moments\nkind=moments\nn=4\np=0.1\ntrials=1\nseed=0\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("kind=moments\nn=six\np=0.1\ntrials=1\nseed=0\n")

    def test_not_key_value(self):
        with pytest.raises(ConfigError):
            parse_config("kind moments\n")

    def test_explicit_schedule_required(self):
        with pytest.raises(ConfigError):
            parse_config("kind=moments\nn=6\ntrials=1\nseed=0\n")

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("kind=moments\nn=6\np=-0.2\ntrials=1\nseed=0\n")

    @pytest.mark.parametrize("schedule", ["p=nan", "p=0.1,inf", "p_mode=clogn\nc=0,nan"])
    def test_non_finite_threshold_rejected(self, schedule):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(f"kind=connectivity\nn=6\n{schedule}\ntrials=1\nseed=0\n")

    @pytest.mark.parametrize("kind", KINDS)
    def test_unknown_p_mode_for_every_kind(self, kind):
        # mst and atsp run at p = inf and read no schedule, but a misspelt mode is still an error
        with pytest.raises(ConfigError, match="unknown p_mode 'warp'"):
            parse_config(f"kind={kind}\nn=10\np=0.3\ntrials=1\nseed=0\np_mode=warp\n")

    def test_matching_needs_even_n(self):
        with pytest.raises(ConfigError):
            parse_config("kind=matching\nn=5\np=0.3\ntrials=1\nseed=0\n")

    def test_hamilton_capacity(self):
        with pytest.raises(CapacityError):
            parse_config("kind=hamilton\nn=30\np=0.5\ntrials=1\nseed=0\n")

    def test_eps_schedule_validation(self):
        with pytest.raises(ConfigError):
            parse_config("kind=connectivity\nn=20\np_mode=p0eps\neps=0\ntrials=1\nseed=0\n")
        cfg = parse_config("kind=connectivity\nn=20\np_mode=p0eps\neps=0.3\ntrials=1\nseed=0\n")
        assert cfg.eps == 0.3

    @pytest.mark.parametrize(
        "setting",
        ["model=ball\nradius=nan", "model=ball\nradius=inf", "model=exponential\nrate=nan", "alpha=const:abc",
         "alpha=const:inf", "alpha=uniform:nan", "alpha=unknown:1", "alpha=dvalues:nanx8"],
    )
    def test_bad_model_parameter_is_config_error(self, setting):
        cfg = parse_config(f"kind=connectivity\nn=8\np=0.3\n{setting}\ntrials=1\nseed=0\n")
        with pytest.raises(ConfigError):
            run_sweep(cfg)

    @pytest.mark.parametrize("beta", ["const:-1", "const:0", "const:nan", "const:inf", "const:x", "uniform:0.5", "warp:2"])
    def test_bad_beta_is_config_error(self, beta):
        with pytest.raises(ConfigError, match="beta"):
            run_sweep(ExperimentConfig(kind="atsp", n=8, trials=1, seed=0, beta=beta))

    @pytest.mark.parametrize("kind", ["moments", "mst", "atsp"])
    @pytest.mark.parametrize("L", [-1.0, 0.0, math.inf, math.nan, 1.5e308])
    def test_bad_budget_is_config_error(self, kind, L):
        with pytest.raises(ConfigError, match="budget"):
            run_sweep(ExperimentConfig(kind=kind, n=6, trials=1, seed=0, L=L, p_values=(0.1,)))

    @pytest.mark.parametrize(
        "spec", ["dvalues:-1x6", "dvalues:0x6", "dvalues:nanx6", "dvalues:infx6", "dvalues:1xabc", "dvalues:abcx6",
                 "dvalues:1x6,2x-2", "dvalues:1x6,2", "dvalues:1e-300x6", "dvalues:1e200x6",
                 "dvalues:1e-200x2,1x4", "dvalues:1e160x2,1x4", "dvalues:1x10000000000", "dvalues:1x3,1x10000000000"],
    )
    def test_bad_dvalues_are_config_errors(self, spec):
        with pytest.raises(ConfigError, match="dvalues"):
            resolve_dvalues(spec, 6)

    def test_readme_schema_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Config file schema\n", 1)[1]
        table = re.search(r"^\|.*\|\n(?:\|.*\|\n)+", section, re.M).group(0)
        assert sorted(re.findall(r"^\| `(\w+)` ", table, re.M)) == sorted(_CONFIG_KEYS)

    def test_workers_capped_at_cpu_count(self):
        # parsing only: a config over the cap must never reach a pool
        cpus = os.cpu_count() or 1
        text = "kind=moments\nn=6\np=0.1\ntrials=1\nseed=0\nworkers={}\n"
        assert parse_config(text.format(cpus)).workers == cpus
        for workers in (cpus + 1, 100_000, 0):
            with pytest.raises(ConfigError, match="workers"):
                parse_config(text.format(workers))

    def test_theta_schedule_validation(self):
        with pytest.raises(ConfigError):
            parse_config("kind=diameter\nn=20\np_mode=theta\ntheta=1.2\ntrials=1\nseed=0\n")


class TestRunSweep:
    def test_zero_trials_header_only(self):
        cfg = parse_config("kind=moments\nn=6\np=0.1\ntrials=0\nseed=0\n")
        result = run_sweep(cfg)
        assert result.csv_text == "p_index,trial,stream,p,outcome\n"
        assert result.records == ()
        assert result.summaries == ()

    def test_rows_and_summary_structure(self):
        result = run_sweep(parse_config(BASIC))
        lines = result.csv_text.strip().split("\n")
        assert lines[0] == "p_index,trial,stream,p,outcome,value"
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 1 + 2 * 25
        summary = [ln for ln in lines if ln.startswith("#summary,")]
        assert len(summary) == 2
        assert "oracle=" in summary[0]

    def test_byte_identical_rerun(self):
        a = run_sweep(parse_config(BASIC)).csv_text
        b = run_sweep(parse_config(BASIC)).csv_text
        assert a == b

    def test_workers_do_not_change_output(self):
        serial = run_sweep(parse_config(BASIC)).csv_text
        parallel = run_sweep(parse_config(BASIC + "workers=2\n")).csv_text
        assert serial == parallel

    def test_marginals_interval_covers_exact_cdf(self):
        # randomized configurations: Wilson interval covers the oracle in >= 18/20
        rng = np.random.default_rng(125)
        covered = 0
        for case in range(20):
            n = int(rng.integers(4, 11))
            p = float(rng.uniform(0.1, 1.0))
            cfg = ExperimentConfig(kind="marginals", n=n, trials=400, seed=8000 + case, p_values=(p,))
            summary = run_sweep(cfg).summaries[0]
            covered += summary["wilson_lo"] <= summary["oracle"] <= summary["wilson_hi"]
        assert covered >= 18

    def test_moments_summary_matches_oracle(self):
        cfg = parse_config("kind=moments\nn=12\np=0.2\ntrials=400\nseed=9\n")
        s = run_sweep(cfg).summaries[0]
        model = SimplexModel.uniform(12)
        from simplexgraphs import edge_count_variance_bound, expected_edge_count

        assert s["expected"] == pytest.approx(expected_edge_count(model, 0.2))
        assert abs(s["mean"] - s["expected"]) < 4 * math.sqrt(s["var"] / 400)
        assert s["var"] <= 1.15 * edge_count_variance_bound(model, 0.2)

    def test_connectivity_with_exponential_model(self):
        cfg = parse_config(
            "kind=connectivity\nmodel=exponential\nn=30\nrate=1\np=0.5\ntrials=40\nseed=3\n"
        )
        s = run_sweep(cfg).summaries[0]
        assert 0.0 <= s["freq"] <= 1.0

    def test_giant_kind(self):
        cfg = parse_config("kind=giant\nn=60\np=0.05\ntrials=30\nseed=4\n")
        s = run_sweep(cfg).summaries[0]
        assert 0.0 < s["mean"] <= 1.0

    def test_diameter_kind_mode(self):
        cfg = parse_config("kind=diameter\nn=40\np_mode=theta\ntheta=0.8\ntrials=20\nseed=5\n")
        s = run_sweep(cfg).summaries[0]
        assert s["mode"] in (1.0, 2.0, 3.0)

    def test_hamilton_kind(self):
        cfg = parse_config("kind=hamilton\nn=12\np=5\ntrials=10\nseed=6\n")
        s = run_sweep(cfg).summaries[0]
        assert s["freq"] == 1.0  # near-complete threshold graph: always Hamiltonian

    def test_matching_kind(self):
        cfg = parse_config("kind=matching\nn=20\np=0.9\ntrials=10\nseed=7\n")
        s = run_sweep(cfg).summaries[0]
        assert s["freq"] == 1.0

    def test_mst_kind_uses_inf_threshold(self):
        cfg = parse_config("kind=mst\nn=10\nalpha=ones\ntrials=5\nseed=8\n")
        result = run_sweep(cfg)
        assert result.schedule == (math.inf,)
        assert all(r.p == math.inf for r in result.records)

    def test_atsp_kind_summary(self):
        cfg = parse_config("kind=atsp\nn=8\ntrials=5\nseed=9\n")
        s = run_sweep(cfg).summaries[0]
        assert s["mean_ratio"] >= 1.0
        assert s["mean_tour_over_opt"] >= 1.0

    def test_out_file_written(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = parse_config(BASIC + f"out={out}\n")
        result = run_sweep(cfg)
        assert out.read_text() == result.csv_text

    def test_uniform_alpha_spec_reproducible(self):
        cfg = parse_config("kind=connectivity\nn=12\nalpha=uniform:1.5\np=0.6\ntrials=10\nseed=11\n")
        a = run_sweep(cfg).csv_text
        b = run_sweep(cfg).csv_text
        assert a == b


class TestConstantAlphaContext:
    @pytest.mark.parametrize("model, alpha", [("simplex", "ones"), ("simplex", "const:2"), ("exponential", "ones")])
    def test_diameter_context_allocates_no_coefficient_vector(self, model, alpha):
        # at n=3000 a vector of N = 4.5e6 coefficients or rates would take 36 MB
        cfg = ExperimentConfig(
            kind="diameter", n=3000, trials=1, seed=0, model=model, alpha=alpha, p_mode="theta", theta=0.45
        )
        tracemalloc.start()
        try:
            ctx = _build_context(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        simplex = ctx.model.simplex
        stored = ctx.model.rates if simplex is None else simplex.alpha
        assert stored.shape == (ctx.model.space.num_edges,)
        assert stored.strides == (0,) and not stored.flags.writeable
        if simplex is not None:
            assert simplex.unit_alpha == (alpha == "ones")


# Each function that loads scipy.special on its first call, as an expression in
# the names of ``from simplexgraphs import *`` and numpy.
FIRST_CALL_CASES = (
    "marginal_cdf(DensityModel.orthant_ball(1.5, EdgeSpace(7)), 3, 0.4)",
    "DensityModel.orthant_ball(1.5, EdgeSpace(7)).second_moment(2)",
    "DensityModel.orthant_ball(2.0, EdgeSpace(9)).mean(0)",
    "mst_series(DecomposableWeights(np.repeat([1.0, 2.5], [4, 5])), mode='exact')",
    "mst_series(DecomposableWeights(np.repeat([1.0, 2.5, 0.5], [10, 12, 8])), mode='grouped')",
)


class TestNoScipyAtImport:
    """Importing the package loads numpy only; scipy.special loads on first use."""

    @staticmethod
    def fresh(code: str) -> str:
        src = str(Path(simplexgraphs.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        return done.stdout

    LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"

    def test_import_loads_no_scipy_and_numpy_random(self):
        # numpy.random is loaded at import so that forked pool workers inherit it
        code = f"import sys\nimport simplexgraphs\nprint({self.LOADED_SCIPY}, 'numpy.random' in sys.modules)\n"
        assert self.fresh(code).strip() == "[] True"

    def test_benchmarked_sweeps_load_no_scipy(self):
        # scipy.optimize (~22 MB) and scipy.sparse.csgraph (~9.5 MB) are test
        # references or matching-only, and scipy.special serves only the ball
        # marginal and the spanning-tree series; no benchmarked sweep kind needs them
        workers = min(2, os.cpu_count() or 1)
        code = (
            "import sys\n"
            "from simplexgraphs import ExperimentConfig, run_sweep\n"
            "run_sweep(ExperimentConfig(kind='atsp', n=12, trials=1, seed=0))\n"
            "run_sweep(ExperimentConfig(kind='mst', n=20, trials=1, seed=0))\n"
            "run_sweep(ExperimentConfig(kind='connectivity', n=30, trials=2, seed=0, p_mode='clogn',"
            f" c_values=(0.0,), workers={workers}))\n"
            "run_sweep(ExperimentConfig(kind='diameter', n=30, trials=1, seed=0, p_mode='theta', theta=0.6))\n"
            f"print({self.LOADED_SCIPY})\n"
        )
        assert self.fresh(code).strip() == "[]"

    def test_first_call_equals_in_process_value(self):
        # a function that misses its local import fails here with a NameError;
        # equal reprs show that loading scipy.special on first use moves no bit
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from simplexgraphs import *\n"
            "assert 'scipy.special' not in sys.modules\n"
            f"for case in {FIRST_CALL_CASES!r}:\n"
            "    print(repr(eval(case)))\n"
        )
        names = {"np": np, **{name: getattr(simplexgraphs, name) for name in simplexgraphs.__all__}}
        assert self.fresh(code).splitlines() == [repr(eval(case, names)) for case in FIRST_CALL_CASES]


class TestWilson:
    def test_known_interval(self):
        lo, hi = wilson_interval(5, 10)
        assert 0.23 < lo < 0.24
        assert 0.76 < hi < 0.77

    def test_edge_cases(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.1
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo > 0.9


class TestConnectivityLimit:
    CLOGN = ExperimentConfig(kind="connectivity", n=50, trials=2, seed=1, p_mode="clogn", c_values=(0.0,))

    def test_theory_column(self):
        cfg = replace(self.CLOGN, c_values=(-2.0, 0.0, 2.0, 4.0), trials=5)
        oracles = [s["oracle"] for s in run_sweep(cfg).summaries]
        assert oracles[0] == pytest.approx(math.exp(-math.exp(2.0)), abs=1e-5)
        assert oracles[0] == pytest.approx(0.00062, abs=1e-5)
        assert oracles[1] == pytest.approx(0.36788, abs=1e-5)
        assert oracles[3] == pytest.approx(0.98185, abs=1e-5)

    @pytest.mark.parametrize("L, stated", [(None, True), (19900.0, True), (79600.0, False), (4975.0, False)])
    def test_oracle_only_at_budget_N(self, L, stated):
        # n=200 has N=19900; at another budget the thresholds (ln n + c)/n sit elsewhere in the law
        cfg = ExperimentConfig(kind="connectivity", n=200, trials=2, seed=3, L=L, p_mode="clogn", c_values=(0.0, 2.0))
        oracles = [s["oracle"] for s in run_sweep(cfg).summaries]
        if stated:
            assert oracles == [math.exp(-1.0), math.exp(-math.exp(-2.0))]
        else:
            assert all(math.isnan(v) for v in oracles)

    def test_p_schedule(self):
        (s,) = run_sweep(replace(self.CLOGN, c_values=(1.0,))).summaries
        assert s["p"] == pytest.approx((math.log(50) + 1.0) / 50)


class TestTransition:
    """A connectivity sweep with ``p_mode=p0eps`` runs at (1 -+ eps) p0."""

    @staticmethod
    def config(n, eps, trials, seed):
        return ExperimentConfig(kind="connectivity", n=n, trials=trials, seed=seed, p_mode="p0eps", eps=eps)

    def test_eps_zero_rejected(self):
        with pytest.raises(ConfigError):
            self.config(30, 0.0, 5, seed=1)

    def test_separation_small_model(self):
        below, above = run_sweep(self.config(120, 0.5, trials=60, seed=2)).summaries
        assert above["freq"] > below["freq"]
        assert below["wilson_lo"] <= below["freq"] <= below["wilson_hi"]

    def test_negative_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            self.config(10, 0.3, -1, seed=1)


class TestMstExperiment:
    def test_wrong_n_rejected(self):
        with pytest.raises(ConfigError, match="counts sum to 6, config says n=7"):
            mst_experiment("dvalues:1x6", 7, 5, seed=1)

    def test_negative_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            mst_experiment("ones", 6, -1, seed=1)

    def test_too_many_values_rejected(self):
        with pytest.raises(ConfigError, match="no series mode"):
            mst_experiment("dvalues:0.8x5,0.9x5,1x5,1.1x5,1.2x5", 25, 5, seed=1)

    def test_small_n_exact_oracle(self):
        # exact finite-size expectation 73/70 for the all-ones model at n=4,
        # derived from order-statistic spacings; the asymptotic series sits
        # ~6% above it, which the relative gap records
        exact = expected_mst_weight_exact(4)
        assert exact == pytest.approx(73.0 / 70.0, abs=1e-12)
        res = mst_experiment("ones", 4, trials=30_000, seed=12)
        se = res.mc_se
        assert abs(res.mc_mean - 73.0 / 70.0) < 4 * se
        assert 0.03 < res.relative_gap < 0.10
        assert res.series_value == pytest.approx(1.1091037326388889)

    def test_exact_oracle_n5_cross_check(self):
        exact = expected_mst_weight_exact(5)
        res = mst_experiment("ones", 5, trials=30_000, seed=13)
        assert abs(res.mc_mean - exact) < 4 * res.mc_se

    def test_mode_selection(self):
        res = mst_experiment("ones", 12, trials=5, seed=14)
        assert res.series_mode == "exact"
        res = mst_experiment("ones", 40, trials=5, seed=15)
        assert res.series_mode == "grouped"


class TestAtspExperiment:
    def test_rows_and_opt_ratio(self):
        rows = atsp_experiment("ones", (8,), trials=4, seed=16)
        (row,) = rows
        assert row.n == 8
        assert row.mean_tour_over_assignment >= 1.0
        assert row.mean_tour_over_optimal >= 1.0
        assert row.bound_M == 1.0

    def test_bad_size_rejected(self):
        with pytest.raises(ConfigError, match="n >= 2"):
            atsp_experiment("ones", (8, 1), trials=2, seed=1)

    def test_larger_n_skips_optimum(self):
        rows = atsp_experiment("ones", (16,), trials=2, seed=17)
        assert math.isnan(rows[0].mean_tour_over_optimal)


class TestNamedExperimentsAreSweeps:
    """The named experiments run a sweep's trials and summaries: equal numbers, not just equal laws."""

    @pytest.mark.parametrize("alpha", ["ones", "dvalues:0.5x6,2x6"])
    def test_mst_experiment(self, alpha):
        res = mst_experiment(alpha, 12, trials=15, seed=21)
        s = run_sweep(ExperimentConfig(kind="mst", n=12, trials=15, seed=21, alpha=alpha)).summaries[0]
        assert (res.mc_mean, res.mc_se) == (s["mean"], s["se"])

    def test_atsp_experiment_two_sizes(self):
        rows = atsp_experiment("uniform:2", (9, 20), trials=4, seed=22)
        for n_index, (row, n) in enumerate(zip(rows, (9, 20))):
            # size i runs on streams (i, t), so only the first size is a plain sweep
            ctx = _build_context(ExperimentConfig(kind="atsp", n=n, trials=4, seed=22, beta="uniform:2"))
            s = _summarize(ctx, n_index, math.inf, [_run_trial(ctx, n_index, math.inf, t) for t in range(4)])
            np.testing.assert_equal(
                (row.mean_tour_over_assignment, row.se_tour_over_assignment, row.mean_tour_over_optimal,
                 row.mean_cycles, row.bound_M),
                (s["mean_ratio"], s["se_ratio"], s["mean_tour_over_opt"], s["mean_cycles"], ctx.model.simplex.M),
            )
        first = run_sweep(ExperimentConfig(kind="atsp", n=9, trials=4, seed=22, beta="uniform:2")).summaries[0]
        assert rows[0].mean_tour_over_assignment == first["mean_ratio"]
