import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import m1lab
from m1lab.cli import main
from m1lab.config import ConfigError, parse_config, replace_config
from m1lab.models import LinearSpec, RegVarSpec
from m1lab.paths import CadlagPath
from conftest import save_path_csv


class TestParse:
    def test_minimal_defaults(self):
        cfg, echo = parse_config("[model]\nvariant = iid\nalpha = 0.8\n")
        assert cfg.n_grid == (100, 1000, 10000)
        assert cfg.model == LinearSpec((1.0,), RegVarSpec(0.8, p=0.5))
        assert any("n_grid" in line for line in echo)

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match="model.alpha.*\\(0,2\\)"):
            parse_config("[model]\nvariant = iid\nalpha = 2.5\n")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 3: unknown key 'model.bogus'"):
            parse_config("[model]\nvariant = iid\nbogus = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nonsense]\n")

    def test_malformed_number_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 2.*model.alpha.*'abc'"):
            parse_config("[model]\nalpha = abc\n")

    def test_override_wins_over_file(self):
        cfg, _ = parse_config("[run]\nseed = 3\n", overrides=["run.seed=7"])
        assert cfg.seed == 7

    def test_env_seed_lowest_precedence(self):
        cfg, echo = parse_config("", env={"SEED": "99"})
        assert cfg.seed == 99
        cfg2, _ = parse_config("[run]\nseed = 3\n", env={"SEED": "99"})
        assert cfg2.seed == 3

    def test_linear_model_built(self):
        cfg, _ = parse_config(
            "[model]\nvariant = linear\nalpha = 1.2\ncoeffs = 1.0, 0.5\n"
        )
        assert isinstance(cfg.model, LinearSpec)
        assert cfg.model.coeffs == (1.0, 0.5)

    def test_iid_is_order_zero_linear(self):
        # one model, two spellings: equal configs and digests; iid ignores coeffs
        iid, _ = parse_config("[model]\nvariant = iid\nalpha = 1.5\np = 0.7\n")
        ma0, _ = parse_config(
            "[model]\nvariant = linear\ncoeffs = 1.0\nalpha = 1.5\np = 0.7\n"
        )
        iid_coeffs, _ = parse_config(
            "[model]\nvariant = iid\ncoeffs = 1.0, 0.5\nalpha = 1.5\np = 0.7\n"
        )
        assert iid.model == LinearSpec((1.0,), RegVarSpec(1.5, p=0.7))
        assert iid == ma0 == iid_coeffs
        assert iid.digest() == ma0.digest() == iid_coeffs.digest()

    def test_t_grid_must_include_one(self):
        with pytest.raises(ConfigError, match="t_grid"):
            parse_config("[run]\nt_grid = 0.2, 0.5\n")

    def test_n_grid_increasing(self):
        with pytest.raises(ConfigError, match="n_grid"):
            parse_config("[run]\nn_grid = 100, 100\n")

    def test_programmatic_config_validated(self):
        # keyword overrides go through the same range checks as parsed keys
        with pytest.raises(ConfigError, match="key 'run.karamata_alphas'"):
            replace_config(parse_config("")[0], karamata_alphas=(1.0,))

    def test_digest_stable_and_sensitive(self):
        a = parse_config("")[0]
        b = parse_config("")[0]
        assert a.digest() == b.digest()
        c = replace_config(a, seed=1)
        assert c.digest() != a.digest()


class TestM1DistCmd:
    @pytest.fixture
    def fixture_files(self, tmp_path):
        step = CadlagPath([0.0, 0.5], [0.0, 1.0])
        ramp = CadlagPath([0.0, 0.5, 0.51], [0.0, 0.0, 1.0], "pl")
        two = CadlagPath([0.0], [[1.0, 2.0]])
        fa = tmp_path / "a.csv"
        fb = tmp_path / "b.csv"
        fc = tmp_path / "c.csv"
        save_path_csv(step, str(fa))
        save_path_csv(ramp, str(fb))
        save_path_csv(two, str(fc))
        return fa, fb, fc

    def test_identical_all_zero(self, fixture_files, capsys):
        fa, _, _ = fixture_files
        assert main(["m1dist", str(fa), str(fa)]) == 0
        out = capsys.readouterr().out
        assert "uniform=0" in out and "m1=0" in out and "j1=0" in out and "weak_m1=0" in out

    def test_step_vs_ramp_fixture(self, fixture_files, capsys):
        fa, fb, _ = fixture_files
        assert main(["m1dist", str(fa), str(fb)]) == 0
        out = dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert float(out["m1"]) <= 0.01 + 1e-3
        assert float(out["j1"]) >= 0.5 - 0.01
        assert float(out["weak_m1"]) == float(out["m1"])

    def test_dimension_mismatch_exit_2(self, fixture_files, capsys):
        fa, _, fc = fixture_files
        assert main(["m1dist", str(fa), str(fc)]) == 2
        assert "coordinate" in capsys.readouterr().err

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["m1dist", str(tmp_path / "no.csv"), str(tmp_path / "no.csv")]) == 3

    STEP_A = "# kind=step d=1\n0,0\n0.25,1\n0.5,0.5\n0.75,2\n"
    PL_A = "# kind=pl d=1\n0,0\n0.3,1\n0.6,0.5\n1,1\n"
    # (first path file, second path file, extra arguments, exit code); None
    # leaves the second file missing
    EXIT_CASES = {
        "valid_step_pair": (STEP_A, "# kind=step d=1\n0,0\n0.5,1\n", [], 0),
        "valid_pl_pair": (PL_A, "# kind=pl d=1\n0,0\n0.5,0.8\n1,1\n", ["--resolution", "256"], 0),
        "missing_file": (STEP_A, None, [], 3),
        "malformed_row": (STEP_A, "# kind=step d=1\n0,0\n0.5,abc\n", [], 2),
        "non_integer_d": (STEP_A, "# kind=step d=x\n0,0\n0.5,1\n", [], 2),
        "resolution_too_small": (STEP_A, "# kind=step d=1\n0,0\n0.5,1\n", ["--resolution", "4"], 2),
        "resolution_zero": (STEP_A, "# kind=step d=1\n0,0\n0.5,1\n", ["--resolution", "0"], 2),
        "resolution_negative": (PL_A, "# kind=pl d=1\n0,0\n0.5,0.8\n1,1\n", ["--resolution", "-4"], 2),
        "mismatched_d": (STEP_A, "# kind=step d=2\n0,0,1\n0.5,1,1\n", [], 2),
        # NaN fails every comparison, so the range and order checks must not
        # be written as "x < lo or x > hi"
        "nan_time": (STEP_A, "# kind=step d=1\n0,0\nnan,1\n1,0\n", [], 2),
        "nan_last_time": (STEP_A, "# kind=step d=1\n0,0\n0.5,1\nnan,0\n", [], 2),
    }

    @pytest.mark.parametrize("case", sorted(EXIT_CASES))
    def test_exit_codes(self, case, tmp_path, capsys):
        text_a, text_b, extra, code = self.EXIT_CASES[case]
        fa = tmp_path / "a.csv"
        fb = tmp_path / "b.csv"
        fa.write_text(text_a)
        if text_b is not None:
            fb.write_text(text_b)
        assert main(["m1dist", str(fa), str(fb)] + extra) == code
        out, err = capsys.readouterr()
        assert bool(err) == (code != 0)
        if code != 0:
            assert out == ""

    def test_negative_resolution_step_pair_returns(self, tmp_path):
        # a negative bisection tolerance never ends the J1 search of a step
        # pair; in a child process the timeout stops such a run
        fa = tmp_path / "a.csv"
        fb = tmp_path / "b.csv"
        fa.write_text(self.STEP_A)
        fb.write_text("# kind=step d=1\n0,0\n0.5,1\n")
        # the child imports the same m1lab as this test
        src = os.path.dirname(os.path.dirname(os.path.abspath(m1lab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "m1lab.cli", "m1dist", str(fa), str(fb), "--resolution", "-4"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (run.returncode, run.stdout) == (2, "")
        assert "Traceback" not in run.stderr


class TestModelExitCodes:
    GARCH = ["--set", "model.variant=garch"]
    MODEL_ERROR = "config error: model: "
    # (arguments after ``simulate``, exit code, start of stderr); "{tmp}"
    # stands for the test's temporary directory
    EXIT_CASES = {
        "stationary_garch": (GARCH + ["--set", "model.a1=0.5", "--set", "model.b1=0.3"], 0, ""),
        "nonstationary_garch": (
            GARCH + ["--set", "model.a1=1.5", "--set", "model.b1=0.5"], 2, MODEL_ERROR
        ),
        "nonstationary_squared_garch": (
            ["--set", "model.variant=squared_garch", "--set", "model.a1=1.5",
             "--set", "model.b1=0.5"],
            2,
            MODEL_ERROR,
        ),
        "unit_b1_garch": (
            GARCH + ["--set", "model.a1=0.1", "--set", "model.b1=1.0"], 2, MODEL_ERROR
        ),
        "nonpositive_omega": (GARCH + ["--set", "model.omega=-1"], 2, MODEL_ERROR),
        "all_zero_coeffs": (
            ["--set", "model.variant=linear", "--set", "model.coeffs=0,0"], 2, MODEL_ERROR
        ),
        "negative_n": (["--n", "-5"], 2, "usage: "),
        "zero_n": (["--n", "0"], 2, "usage: "),
        "out_in_missing_dir": (
            ["--out", "{tmp}/no_such_dir/x.csv"], 3, "error: cannot write output: "
        ),
        "removed_run_u": (["--set", "run.u=0.1"], 2, "config error: override #1: "),
        # a non-finite number is refused when the config is parsed
        "nan_coeffs": (["--set", "model.variant=linear", "--set", "model.coeffs=nan, 1"], 2,
                       "config error: line 0: key 'model.coeffs': non-finite number 'nan'"),
        "inf_coeffs": (["--set", "model.variant=linear", "--set", "model.coeffs=inf, 1"], 2,
                       "config error: line 0: key 'model.coeffs': non-finite number 'inf'"),
        "nan_a1": (GARCH + ["--set", "model.a1=nan"], 2, "config error: line 0: key 'model.a1'"),
        "nan_omega": (GARCH + ["--set", "model.omega=nan"], 2,
                      "config error: line 0: key 'model.omega'"),
        "nan_b1": (GARCH + ["--set", "model.b1=-nan"], 2, "config error: line 0: key 'model.b1'"),
    }

    @pytest.mark.parametrize("case", sorted(EXIT_CASES))
    def test_exit_codes(self, case, tmp_path, capsys):
        extra, code, err_start = self.EXIT_CASES[case]
        extra = [a.replace("{tmp}", str(tmp_path)) for a in extra]
        out = tmp_path / "x.csv"
        assert main(["simulate", "--n", "200", "--out", str(out)] + extra) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith(err_start)
            assert not out.exists()
        else:
            assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()

    def test_parse_config_rejects_nonstationary(self):
        with pytest.raises(ConfigError, match="non-stationary GARCH"):
            parse_config("[model]\nvariant = garch\na1 = 1.5\nb1 = 0.5\n")


class TestEstimateExitCodes:
    # (data file text or None to simulate, extra arguments, exit code, start
    # of stderr); "{tmp}" stands for the test's temporary directory
    EXIT_CASES = {
        "valid_data": ("i,x\n" + "".join(f"{i},{(-1) ** i * (i % 97 + 1.5)}\n"
                                         for i in range(1, 2001)), [], 0, ""),
        "missing_data_file": (None, ["--data", "{tmp}/no.csv"], 3, "error: cannot read data: "),
        "non_numeric_cell": ("i,x\n1,0.5\n2,abc\n", [], 2, "error: malformed data: "),
        "missing_column": ("x\n1\n2\n", [], 2, "error: malformed data: "),
        "too_few_values": ("i,x\n1,2.0\n", [], 2, "error: need 0 < k < n"),
        # a non-finite value is malformed data, whichever row holds it
        "infinite_value": ("i,x\n" + "".join(f"{i},{'inf' if i == 7 else i % 97 + 1.5}\n"
                                             for i in range(1, 2001)), [], 2,
                           "error: malformed data: non-finite value in row 7"),
        "nan_value": ("i,x\n" + "".join(f"{i},{'nan' if i == 1500 else i % 97 + 1.5}\n"
                                        for i in range(1, 2001)), [], 2,
                      "error: malformed data: non-finite value in row 1500"),
        "out_in_missing_dir": (
            None, ["--n", "2000", "--out", "{tmp}/no_such_dir/d.jsonl"], 3,
            "error: cannot write output: ",
        ),
        "negative_n": (None, ["--n", "-5"], 2, "usage: "),
        "zero_n": (None, ["--n", "0"], 2, "usage: "),
    }

    @pytest.mark.parametrize("case", sorted(EXIT_CASES))
    def test_exit_codes(self, case, tmp_path, capsys):
        data, extra, code, err_start = self.EXIT_CASES[case]
        args = ["estimate"] + [a.replace("{tmp}", str(tmp_path)) for a in extra]
        if data is not None:
            (tmp_path / "data.csv").write_text(data)
            args += ["--data", str(tmp_path / "data.csv")]
        assert main(args) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(err_start)
        assert bool(captured.err) == (code != 0)
        if code:
            assert captured.out == ""


class TestConvergeExitCodes:
    KEY = "config error: key 'run."
    # (check, overrides of ``converge --check CHECK``, exit code, start of
    # stderr); the run values are checked when the config is parsed, before
    # any check runs
    EXIT_CASES = {
        "karamata_alpha_one": ("karamata", ["run.karamata_alphas=1.0"], 2,
                               KEY + "karamata_alphas'"),
        "karamata_alpha_zero": ("karamata", ["run.karamata_alphas=0.5, 0.0"], 2,
                                KEY + "karamata_alphas'"),
        "karamata_u_zero": ("karamata", ["run.karamata_u_grid=0.0, 0.1"], 2,
                            KEY + "karamata_u_grid'"),
        "karamata_u_negative": ("karamata", ["run.karamata_u_grid=-0.1"], 2,
                                KEY + "karamata_u_grid'"),
        "slutsky_alpha_one": ("slutsky", ["run.slutsky_alpha=1.0"], 2,
                              KEY + "slutsky_alpha'"),
        "slutsky_alpha_zero": ("slutsky", ["run.slutsky_alpha=0"], 2, KEY + "slutsky_alpha'"),
        "kappa_above_one": ("theta", ["run.kappa=1.5"], 2, KEY + "kappa'"),
        "kappa_zero": ("theta", ["run.kappa=0"], 2, KEY + "kappa'"),
        "karamata_valid": (
            "karamata", ["run.karamata_u_grid=0.5", "run.karamata_mc=100000",
                         "run.karamata_n=1000"], 0, "",
        ),
        "n_grid_zero": ("fidi", ["run.n_grid=0,100"], 2, KEY + "n_grid'"),
        "contrast_n_grid_zero": ("contrast", ["run.contrast_n_grid=0"], 2,
                                 KEY + "contrast_n_grid'"),
        "limit_draws_zero": ("fidi", ["run.limit_draws=0"], 2, KEY + "limit_draws'"),
        "theta_replicates_zero": ("theta", ["run.theta_replicates=0"], 2,
                                  KEY + "theta_replicates'"),
        "contrast_replicates_zero": ("contrast", ["run.contrast_replicates=0"], 2,
                                     KEY + "contrast_replicates'"),
        "karamata_n_zero": ("karamata", ["run.karamata_n=0", "run.karamata_mc=1000"], 2,
                            KEY + "karamata_n'"),
        "karamata_mc_zero": ("karamata", ["run.karamata_mc=0"], 2, KEY + "karamata_mc'"),
        "slutsky_n_zero": ("slutsky", ["run.slutsky_n=0"], 2, KEY + "slutsky_n'"),
        "slutsky_replicates_zero": ("slutsky", ["run.slutsky_replicates=0"], 2,
                                    KEY + "slutsky_replicates'"),
        "theta_n_below_exceedances": ("theta", ["run.theta_n=10"], 2,
                                      KEY + "theta_exceedances'"),
        "theta_exceedances_zero": ("theta", ["run.theta_exceedances=0"], 2,
                                   KEY + "theta_exceedances'"),
        "n_pts_below_floor": ("fidi", ["run.n_pts=10"], 2, KEY + "n_pts'"),
        # an empty list key would crash a check or pass it on no rows
        "n_grid_empty": ("fidi", ["run.n_grid="], 2, KEY + "n_grid'"),
        "contrast_n_grid_empty": ("contrast", ["run.contrast_n_grid="], 2,
                                  KEY + "contrast_n_grid'"),
        "karamata_alphas_empty": ("karamata", ["run.karamata_alphas="], 2,
                                  KEY + "karamata_alphas'"),
        "karamata_u_grid_empty": ("karamata", ["run.karamata_u_grid="], 2,
                                  KEY + "karamata_u_grid'"),
        "slutsky_u_grid_empty": ("slutsky", ["run.slutsky_u_grid="], 2,
                                 KEY + "slutsky_u_grid'"),
        "slutsky_eps_grid_empty": ("slutsky", ["run.slutsky_eps_grid="], 2,
                                   KEY + "slutsky_eps_grid'"),
        # the Slutsky bound divides by eps and takes u to a fractional power
        "slutsky_eps_zero": ("slutsky", ["run.slutsky_eps_grid=0"], 2,
                             KEY + "slutsky_eps_grid'"),
        "slutsky_eps_negative": ("slutsky", ["run.slutsky_eps_grid=-1"], 2,
                                 KEY + "slutsky_eps_grid'"),
        "slutsky_u_negative": ("slutsky", ["run.slutsky_u_grid=-0.1"], 2,
                               KEY + "slutsky_u_grid'"),
        # a non-finite number is refused when the config is parsed
        "t_grid_nan": ("fidi", ["run.t_grid=nan, 1"], 2,
                       "config error: line 0: key 'run.t_grid': non-finite number 'nan'"),
        "coeffs_nan_contrast": ("contrast", ["model.variant=linear", "model.coeffs=nan, 1"],
                                2, "config error: line 0: key 'model.coeffs'"),
        "kappa_inf": ("theta", ["run.kappa=inf"], 2, "config error: line 0: key 'run.kappa'"),
        "tolerance_nan": ("fidi", ["tolerances.ks_fidi=nan"], 2,
                          "config error: line 0: key 'tolerances.ks_fidi'"),
        "tolerance_negative_inf": ("slutsky", ["tolerances.theta_abs=-inf"], 2,
                                   "config error: line 0: key 'tolerances.theta_abs'"),
        # refusals found while a check runs
        "contrast_garch": ("contrast", ["model.variant=garch"], 2,
                           "error: the contrast check needs theoretical norming"),
        "selfnorm_series_too_heavy": (
            "selfnorm", ["model.alpha=1.9", "run.n_grid=100", "run.replicates=200",
                         "run.limit_draws=200"], 2, "error: series tail too heavy",
        ),
        # half an exceedance in 10 points leaves none inside a complete block
        "theta_no_block_exceedances": (
            "theta", ["run.theta_n=10", "run.theta_exceedances=0.5",
                      "run.theta_replicates=3"], 2,
            "error: no exceedances inside complete blocks",
        ),
    }

    @pytest.mark.parametrize("case", sorted(EXIT_CASES))
    def test_exit_codes(self, case, capsys):
        check, overrides, code, err_start = self.EXIT_CASES[case]
        args = ["converge", "--check", check, "--seed", "20240503"]
        for ov in overrides:
            args += ["--set", ov]
        assert main(args) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(err_start)
        if code == 2:
            assert captured.out == ""
        else:
            assert captured.err == ""

    @pytest.mark.parametrize("command", [["simulate"], ["suite", "--out", "unused"]])
    def test_empty_n_grid_other_commands(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--set", "run.n_grid="]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(self.KEY + "n_grid'")
        assert captured.out == ""
        assert not (tmp_path / "unused").exists()


class TestSimulateEstimate:
    def test_simulate_deterministic_csv(self, tmp_path, capsys):
        args = ["simulate", "--set", "model.alpha=1.0", "--seed", "5", "--n", "50"]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        first = (tmp_path / "a.csv").read_text().splitlines()
        assert first[0] == "i,x"
        assert len(first) == 51

    def test_squared_garch_columns(self, tmp_path):
        args = [
            "simulate",
            "--set",
            "model.variant=squared_garch",
            "--n",
            "20",
            "--out",
            str(tmp_path / "g.csv"),
        ]
        assert main(args) == 0
        head = (tmp_path / "g.csv").read_text().splitlines()[0]
        assert head == "i,x2,sigma2"

    def test_estimate_jsonl(self, tmp_path):
        out = tmp_path / "diag.jsonl"
        rc = main(
            [
                "estimate",
                "--set",
                "model.alpha=1.0",
                "--n",
                "20000",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        import json

        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert any(r["diagnostic"] == "tail_summary" for r in recs)


class TestLimitsCmd:
    KEYS = {
        "alpha", "theta", "c_plus", "c_minus", "gamma1", "r2", "gamma2", "p", "q",
        "regime", "gamma1_flagged",
        "stable_alpha", "stable_c", "stable_beta", "stable_tau",
    }
    # stdout of the record as it was built field by field, before it came
    # from the dataclasses
    RECORDS = {
        "iid_alpha08": (
            ["model.alpha=0.8"],
            '{"alpha": 0.80000000000000004, "c_minus": 0.5, "c_plus": 0.5, "gamma1": 0, '
            '"gamma1_flagged": false, "gamma2": 0.66666666666666674, "p": 0.5, "q": 0.5, '
            '"r2": 1, "regime": "(0,1)", "stable_alpha": 0.80000000000000004, '
            '"stable_beta": 0, "stable_c": 1.4186487255269971, "stable_tau": 0, "theta": 1}',
        ),
        "iid_alpha1_p07": (
            ["model.alpha=1.0", "model.p=0.7"],
            '{"alpha": 1, "c_minus": 0.30000000000000004, "c_plus": 0.69999999999999996, '
            '"gamma1": 0, "gamma1_flagged": true, "gamma2": 0, "p": 0.69999999999999996, '
            '"q": 0.30000000000000004, "r2": 1, "regime": "[1,2)", "stable_alpha": 1, '
            '"stable_beta": 0.39999999999999991, "stable_c": 1.5707963267948966, '
            '"stable_tau": 0.16911373403938681, "theta": 1}',
        ),
        "linear_alpha12": (
            ["model.variant=linear", "model.coeffs=1,-0.6,0.3", "model.alpha=1.2"],
            '{"alpha": 1.2, "c_minus": 0.32590247028319319, "c_plus": 0.32590247028319319, '
            '"gamma1": 0, "gamma1_flagged": false, "gamma2": -0.4453816649144906, "p": 0.5, '
            '"q": 0.5, "r2": 1.2497432545525011, "regime": "[1,2)", "stable_alpha": 1.2, '
            '"stable_beta": 0, "stable_c": 0.65961717132633468, "stable_tau": 0, '
            '"theta": 0.5625786636542075}',
        ),
    }

    @pytest.mark.parametrize("case", sorted(RECORDS))
    def test_record_text(self, case, capsys):
        sets, want = self.RECORDS[case]
        args = ["limits"]
        for ov in sets:
            args += ["--set", ov]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out == want + "\n"
        assert set(json.loads(out)) == self.KEYS

    def test_linear_record(self, capsys):
        rc = main(
            [
                "limits",
                "--set",
                "model.variant=linear",
                "--set",
                "model.alpha=0.8",
                "--set",
                "model.p=1.0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert '"theta"' in out and '"stable_c"' in out

    def test_garch_rejected(self, capsys):
        rc = main(["limits", "--set", "model.variant=garch"])
        assert rc == 2


class TestSuiteCmd:
    SMALL = """
[model]
variant = iid
alpha = 0.8
p = 0.5

[run]
seed = 11
n_grid = 100, 400
replicates = 200
limit_draws = 300
n_pts = 1000
contrast_n_grid = 100
contrast_replicates = 6
karamata_mc = 1000000
slutsky_replicates = 60
slutsky_n = 1000
theta_replicates = 4
theta_n = 20000
"""

    LOOSE = """
[tolerances]
ks_fidi = 1.0
ks_selfnorm = 1.0
karamata_rel = 1.0
theta_abs = 1.0
m1_j1_frac = 0.0
"""

    def test_missing_config_exit_3(self, tmp_path):
        assert main(["suite", "--config", str(tmp_path / "absent.cfg")]) == 3

    def test_verdict_failure_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.SMALL + "\n[tolerances]\nks_fidi = 1e-9\n")
        rc = main(["suite", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert rc == 1
        assert "fidi" in capsys.readouterr().err

    def test_pass_exit_0_and_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.SMALL + self.LOOSE)
        rc1 = main(["suite", "--config", str(cfg), "--out", str(tmp_path / "b1")])
        rc2 = main(["suite", "--config", str(cfg), "--out", str(tmp_path / "b2")])
        assert rc1 == 0 and rc2 == 0
        for name in ("report.jsonl", "manifest.json"):
            a = (tmp_path / "b1" / name).read_bytes()
            b = (tmp_path / "b2" / name).read_bytes()
            assert a == b

    def test_stdout_machine_stable(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.SMALL + self.LOOSE)
        main(["suite", "--config", str(cfg), "--out", str(tmp_path / "b1")])
        out1 = capsys.readouterr().out
        main(["suite", "--config", str(cfg), "--out", str(tmp_path / "b2")])
        out2 = capsys.readouterr().out
        assert out1 == out2
