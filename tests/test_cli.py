import math
import os
import warnings

import numpy as np
import pytest

from brutes import mst_series_subset_reference
from simplexgraphs import DensityModel, experiments
from simplexgraphs.cli import main


def assert_one_line_config_error(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "4", "--L", "-2"],
        ["sample", "--n", "1"],
        ["sample", "--n", "4", "--model", "ball", "--radius", "nan"],
        ["sample", "--n", "4", "--model", "exponential", "--rate", "inf"],
        ["sample", "--n", "4", "--trials", "-1"],
        ["oracle", "--n", "4", "--L", "-3"],
        ["oracle", "--n", "4", "--L", "nan"],
        ["mst", "--n", "6", "--d", "dvalues:-1x6"],
        ["mst", "--n", "6", "--d", "dvalues:nanx6"],
        ["mst", "--n", "6", "--d", "dvalues:1xabc"],
        ["mst", "--n", "4", "--d", "dvalues:1e-300x4"],
        ["mst", "--n", "4", "--d", "dvalues:1e200x4"],
        ["sample", "--n", "4", "--alpha", "dvalues:1e-300x4"],
        ["sample", "--n", "4", "--alpha", "dvalues:1e200x4"],
        ["sample", "--n", "4", "--alpha", "const:1e-320"],
        ["sample", "--n", "4", "--alpha", "dvalues:1e-160x4"],
        ["sample", "--n", "4", "--L", "1.5e308", "--trials", "30"],
        ["sample", "--n", "12", "--L", "1e-320"],
        ["mst", "--n", "4", "--d", "dvalues:1e-160x4"],
        # a huge count is refused before any factor is built
        ["mst", "--n", "30", "--d", "dvalues:1x10000000000"],
        ["mst", "--n", "1"],
        ["mst", "--n", "6", "--trials", "-1"],
        ["atsp", "--n", "1"],
        ["atsp", "--n", "6", "--trials", "-1"],
    ],
    ids=" ".join,
)
def test_bad_input_exit_2(capsys, argv):
    assert main(argv) == 2
    assert_one_line_config_error(capsys)


@pytest.mark.parametrize(
    "setting",
    ["kind=connectivity\np=0.3\nL=-1", "kind=connectivity\np=0.3\nL=inf",
     "kind=connectivity\np=0.3\nalpha=dvalues:nanx6", "kind=connectivity\np=0.3\nalpha=dvalues:1e-300x6",
     "kind=connectivity\np=0.3\nalpha=dvalues:1x10000000000",
     "kind=mst\nalpha=dvalues:1e200x6", "kind=mst\nL=-1", "kind=atsp\nL=inf", "kind=atsp\nL=1.5e308",
     "kind=mst\np_mode=warp", "kind=atsp\np_mode=warp",
     "kind=", "kind=mst\nn=", "kind=mst\ntrials=", "kind=mst\nseed="],
)
def test_bad_sweep_config_exit_2(tmp_path, capsys, setting):
    # n, trials and seed are valid unless the setting gives them
    given = {line.split("=", 1)[0] for line in setting.splitlines()}
    rest = "".join(f"{key}={value}\n" for key, value in (("n", 6), ("trials", 2), ("seed", 2)) if key not in given)
    config = tmp_path / "conf.txt"
    config.write_text(f"{setting}\n{rest}")
    assert main(["sweep", "--config", str(config)]) == 2
    assert_one_line_config_error(capsys)



class TestFileErrors:
    """A path that cannot be read or written ends as a one-line config error naming it."""

    def assert_names(self, capsys, path):
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1 and str(path) in err

    def test_missing_config(self, tmp_path, capsys):
        path = tmp_path / "absent.conf"
        assert main(["sweep", "--config", str(path)]) == 2
        self.assert_names(capsys, path)

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path)]) == 2
        self.assert_names(capsys, tmp_path)

    def test_config_not_text(self, tmp_path, capsys):
        path = tmp_path / "binary.conf"
        path.write_bytes(b"\xff\xfe\x00kind=mst\n")
        assert main(["sweep", "--config", str(path)]) == 2
        self.assert_names(capsys, path)

    def test_sample_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "absent" / "w.csv"
        assert main(["sample", "--n", "4", "--out", str(out)]) == 2
        self.assert_names(capsys, out)

    def test_sweep_out_is_a_directory(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_text("kind=moments\nn=8\np=0.3\ntrials=2\nseed=2\n")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 2
        self.assert_names(capsys, tmp_path)

    def test_config_out_in_missing_directory_fails_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran before the output path was checked")

        monkeypatch.setattr(experiments, "_run_trials", no_trials)
        out = tmp_path / "absent" / "run.csv"
        config = tmp_path / "conf.txt"
        config.write_text(f"kind=connectivity\nn=30\np=0.3\ntrials=3\nseed=1\nout={out}\n")
        assert main(["sweep", "--config", str(config)]) == 2
        self.assert_names(capsys, out)


class TestSweepCommand:
    # an mst sweep reads alpha like every simplex kind, uniform:<M> included
    @pytest.mark.parametrize(
        "setting", ["kind=moments\np=0.3", "kind=mst\nalpha=uniform:2"], ids=["moments", "mst-uniform"]
    )
    def test_writes_csv_and_exits_zero(self, tmp_path, setting):
        config = tmp_path / "conf.txt"
        out = tmp_path / "run.csv"
        config.write_text(f"{setting}\nn=8\ntrials=6\nseed=2\n")
        code = main(["sweep", "--config", str(config), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("p_index,trial,stream,p,outcome")
        assert any(ln.startswith("#summary,") for ln in lines)

    def test_stdout_when_no_out(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_text("kind=moments\nn=8\np=0.3\ntrials=2\nseed=2\n")
        assert main(["sweep", "--config", str(config)]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("p_index,trial")

    def test_config_error_exit_2(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_text("kind=warp\nn=8\np=0.3\ntrials=2\nseed=2\n")
        assert main(["sweep", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_nan_threshold_exit_2(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_text("kind=moments\nn=8\np=nan\ntrials=2\nseed=2\n")
        assert main(["sweep", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""

    def test_nan_ball_radius_exit_2(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_text("kind=connectivity\nmodel=ball\nradius=nan\nn=8\np=0.3\ntrials=2\nseed=2\n")
        assert main(["sweep", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_atsp_bad_beta_exit_2(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_text("kind=atsp\nbeta=const:-1\nn=8\ntrials=2\nseed=2\n")
        assert main(["sweep", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_capacity_error_exit_3(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_text("kind=hamilton\nn=30\np=0.3\ntrials=2\nseed=2\n")
        assert main(["sweep", "--config", str(config)]) == 3
        assert "capacity error" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", sorted({1, min(2, os.cpu_count() or 1)}))
    @pytest.mark.parametrize(
        "error, line",
        [(MemoryError("Unable to allocate 149. GiB for an array"), "Unable to allocate 149. GiB for an array"),
         (MemoryError(), "out of memory")],
        ids=["numpy", "bare"],
    )
    def test_memory_error_exit_3(self, tmp_path, capsys, monkeypatch, workers, error, line):
        # a draw too large to allocate; pool workers inherit the patch under fork.
        # A connectivity trial draws through threshold_draw, not sample.
        def no_memory(model, rng, p):
            raise error

        monkeypatch.setattr(DensityModel, "threshold_draw", no_memory)
        config = tmp_path / "conf.txt"
        config.write_text(f"kind=connectivity\nn=30\np=0.3\ntrials=2\nseed=2\nworkers={workers}\n")
        assert main(["sweep", "--config", str(config)]) == 3
        assert capsys.readouterr() == ("", f"capacity error: {line}\n")

    def test_trials_override(self, tmp_path):
        config = tmp_path / "conf.txt"
        out = tmp_path / "run.csv"
        config.write_text("kind=moments\nn=8\np=0.3\ntrials=50\nseed=2\n")
        main(["sweep", "--config", str(config), "--trials", "3", "--out", str(out)])
        data = [ln for ln in out.read_text().strip().split("\n") if not ln.startswith("#")]
        assert len(data) == 1 + 3


class TestSampleCommand:
    def test_prints_weight_rows(self, capsys):
        assert main(["sample", "--n", "4", "--trials", "2", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "trial," + ",".join(f"x{e}" for e in range(6))
        assert len(lines) == 3
        values = np.asarray(lines[1].split(",")[1:], dtype=float)
        assert (values >= 0).all() and values.sum() <= 6.0

    def test_ball_model(self, capsys):
        assert main(["sample", "--model", "ball", "--n", "4", "--radius", "2", "--trials", "1"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        values = np.asarray(row.split(",")[1:], dtype=float)
        assert np.linalg.norm(values) <= 2.0

    def test_file_output(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["sample", "--n", "4", "--trials", "1", "--out", str(out)])
        assert out.read_text().startswith("trial,")

    def test_deterministic(self, capsys):
        main(["sample", "--n", "5", "--trials", "3", "--seed", "9"])
        first = capsys.readouterr().out
        main(["sample", "--n", "5", "--trials", "3", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestOracleCommand:
    def test_prints_quantities(self, capsys):
        assert main(["oracle", "--n", "4", "--L", "6", "--p", "0.5"]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert float(fields["q"]) == pytest.approx(0.4067078, abs=1e-6)
        assert float(fields["p0"]) == pytest.approx(0.4125989, abs=1e-6)
        assert float(fields["sigma2_e0"]) == pytest.approx(72.0 / 56.0, rel=1e-9)


    @pytest.mark.parametrize("p", ["nan", "inf", "-0.5"])
    def test_bad_threshold_exit_2(self, capsys, p):
        assert main(["oracle", "--n", "4", "--p", p]) == 2
        assert_one_line_config_error(capsys)


class TestMstCommand:
    def test_reports_series_and_gap(self, capsys):
        assert main(["mst", "--n", "10", "--trials", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert float(fields["series"]) == pytest.approx(mst_series_subset_reference(np.ones(10)), rel=1e-11)
        assert float(fields["relative_gap"]) < 0.5

    def test_series_over_cap_exit_3_before_any_trial(self, capsys):
        # 25 distinct factors need 2^25 - 1 count vectors; the refusal comes before the trials
        spec = "dvalues:" + ",".join(f"{1 + i / 100}x1" for i in range(25))
        assert main(["mst", "--n", "25", "--d", spec, "--trials", "100000"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("capacity error:") and captured.err.count("\n") == 1
        assert "25 distinct factor values" in captured.err
        assert captured.out == ""

    def test_huge_weights_give_a_finite_standard_error(self, capsys):
        # products d_v*d_w = 1e-300 make MST weights near 1e300, whose squared
        # deviations overflow unless the summary scales them first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mst", "--n", "4", "--d", "dvalues:1e-150x4", "--trials", "3"]) == 0
        captured = capsys.readouterr()
        fields = dict(line.split("=", 1) for line in captured.out.strip().split("\n"))
        assert math.isfinite(float(fields["mc_se"])) and float(fields["mc_se"]) > 0
        assert captured.err == ""


class TestAtspCommand:
    @pytest.mark.parametrize("beta", ["const:-1", "const:nan", "const:abc"])
    def test_bad_beta_exit_2(self, capsys, beta):
        assert main(["atsp", "--n", "8", "--beta", beta, "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_table(self, capsys):
        assert main(["atsp", "--n", "7", "--trials", "3", "--seed", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("n,trials,")
        n, trials, ratio = lines[1].split(",")[:3]
        assert n == "7" and trials == "3"
        assert float(ratio) >= 1.0


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
