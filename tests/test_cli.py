"""Command-line interface tests: bundled configs, exit codes, file outputs,
manifests and reproducibility."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pikappa import cli, models, oracle, solvers
from pikappa.errors import DomainError


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_a1_eta1_case_iii(self, capsys):
        code, out, _ = run(["solve", "--model", "a1", "--eta", "1.0"], capsys)
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert fields["case"] == "DiffRates-iii"
        assert float(fields["pi_sum"]) == pytest.approx(1.0, abs=1e-6)

    def test_c1_rho_override_full_insurance(self, capsys):
        code, out, _ = run(["solve", "--model", "c1", "--rho", "0.6"], capsys)
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(fields["kappa"]) == 0.0
        assert float(fields["pi_1"]) == pytest.approx(-0.2222, abs=1e-4)

    def test_malformed_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken json!")
        code, _, err = run(["solve", "--model", str(bad)], capsys)
        assert code == 1
        assert "line" in err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(["solve", "--model", "nope.json"], capsys)
        assert code == 1

    def test_invalid_model_exit_1(self, tmp_path, capsys):
        doc = json.loads(open(cli.resolve_model_path("c1")).read())
        doc["R"] = 0.001   # below r
        p = tmp_path / "bad_rates.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(["solve", "--model", str(p)], capsys)
        assert code == 1

    def test_thresholds_flag(self, capsys):
        code, out, _ = run(["solve", "--model", "a1", "--thresholds"], capsys)
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(fields["eta_R"]) == pytest.approx(0.60, abs=0.01)
        assert float(fields["eta_r"]) == pytest.approx(1.47, abs=0.01)

    def test_json_format(self, capsys):
        code, out, _ = run(["solve", "--model", "c2", "--format", "json"],
                           capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["case"].startswith("DiffRates")


    @pytest.mark.parametrize("path,value", [
        (("mu",), [float("nan")]),
        (("b",), float("inf")),
        (("r",), float("-inf")),
        (("sigma",), float("nan")),
        (("eta",), float("inf")),
        (("lambda",), float("nan")),
        (("jump_law", "alpha"), float("nan")),
        (("premium", "q"), float("inf")),
    ])
    def test_non_finite_field_is_input_error(self, tmp_path, capsys, path,
                                             value):
        doc = json.loads(open(cli.resolve_model_path("b1")).read())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        p = tmp_path / "nonfinite.json"
        p.write_text(json.dumps(doc))   # writes NaN / Infinity tokens
        code, _, err = run(["solve", "--model", str(p)], capsys)
        assert code == 1
        assert err.startswith("input error:")
        assert "must be finite" in err

    def test_overflow_is_typed_failure(self, capsys):
        # (1 - kappa Y)^(-eta) overflows a double at a user kappa this close
        # to 1 with eta = 40
        code, _, err = run(["simulate", "--model", "b1", "--eta", "40",
                            "--pi", "0.1", "--kappa", "0.999999999",
                            "--paths", "1000"], capsys)
        assert code == 2
        assert "Traceback" not in err and "overflow" in err
        # not a certificate failure: the error names its own class
        assert err.startswith("simulate failed: DomainError: ")

    def test_certification_failure_prefixed_once(self, capsys):
        code, _, err = run(["solve", "--model", "b1", "--eta", "1e6"],
                           capsys)
        assert code == 2
        assert err.count("certification failed") == 1
        assert err.startswith("certification failed: label=DiffRates-")
        assert "in_domain=" in err and "corner_violation=" in err

    @pytest.mark.parametrize("command", [
        ["oracle"], ["verify"], ["simulate"], ["sweep", "--param", "eta",
                                               "--from", "1", "--to", "2",
                                               "--steps", "1"],
        ["mutual-fund", "--eta1", "1", "--eta2", "2", "--eta-bar", "1.5"]])
    def test_format_is_a_solve_option(self, command, capsys):
        # only solve prints json; elsewhere the flag would be dropped
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--model", "c2", "--format", "json"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "error: unrecognized arguments: --format json" in err

    def test_threads_is_a_sweep_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--model", "a1", "--threads", "2"])
        assert exc.value.code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flags,message", [
        (["--format", "xml"], "argument --format: invalid choice"),
        (["--eta", "abc"], "argument --eta: invalid float value"),
    ])
    def test_usage_error_exit_1(self, flags, message, capsys):
        # exit 2 is kept for certification failures
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--model", "a1", *flags])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: pikappa solve")
        assert f"pikappa solve: error: {message}" in err

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pikappa solve")



@pytest.mark.parametrize("argv,flag", [
    (["simulate", "--model", "a1", "--pi", "-0.5,0.3", "--paths", "1000"],
     "--pi"),
    (["sweep", "--model", "b1", "--param", "rho", "--from", "-1e-1", "--to",
      "0.5", "--steps", "2"], "--from"),
    (["solve", "--model", "b1", "--r", "-1e300"], "--r"),
], ids=["simulate", "sweep", "solve"])
def test_negative_value_after_a_space_reads_as_with_equals(argv, flag,
                                                           tmp_path, capsys):
    # argparse alone takes only -1 and -0.5 for values, and would read
    # -0.5,0.3, -1e-1 and -1e300 as flags
    i = argv.index(flag)
    joined = argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2:]
    results = []
    for k, args in enumerate((argv, joined)):
        out = tmp_path / f"{k}.csv"
        extra = ["--out", str(out)] if args[0] == "sweep" else []
        code, text, err = run(args + extra, capsys)
        assert (code, err) == (0, "")
        results.append(out.read_text() if extra else text)
    assert results[0] == results[1]


class TestBadPath:
    def test_directory_as_model_is_an_input_error(self, tmp_path, capsys):
        code, out, err = run(["solve", "--model", str(tmp_path)], capsys)
        assert (code, out) == (1, "")
        assert err == (f"input error: model file {str(tmp_path)!r} not found "
                       f"(not a file or bundled config)\n")

    def test_directory_named_like_a_config_does_not_shadow_it(
            self, tmp_path, monkeypatch, capsys):
        bundled = run(["solve", "--model", "b1"], capsys)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "b1").mkdir()
        assert run(["solve", "--model", "b1"], capsys) == bundled
        assert bundled[0] == 0

    @pytest.mark.parametrize("command", [
        ["sweep", "--param", "rho", "--from", "0", "--to", "0.5", "--steps",
         "2"],
        ["solve"]])
    def test_directory_as_out_is_an_input_error(self, command, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "outdir").mkdir()
        code, out, err = run([*command, "--model", "b1", "--out", "outdir"],
                             capsys)
        assert (code, out) == (1, "")
        assert err == "input error: 'outdir' is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir"]
        assert not any((tmp_path / "outdir").iterdir())

class TestSweep:
    def test_zero_steps_exit_1(self, tmp_path, capsys):
        code, _, err = run(["sweep", "--model", "c1", "--param", "rho",
                            "--from", "-1", "--to", "1", "--steps", "0",
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1

    def test_bad_param_exit_1(self, tmp_path, capsys):
        code, _, err = run(["sweep", "--model", "c1", "--param", "zeta",
                            "--from", "0", "--to", "1", "--steps", "4",
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1

    def test_csv_and_manifest_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        base = ["sweep", "--model", "c2", "--param", "rho", "--from", "-0.5",
                "--to", "0.5", "--steps", "10"]
        assert run(base + ["--out", str(out1)], capsys)[0] == 0
        assert run(base + ["--out", str(out2)], capsys)[0] == 0
        assert out1.read_text() == out2.read_text()
        man = json.loads((tmp_path / "s1.csv.manifest.json").read_text())
        assert man["command"] == " ".join(base + ["--out", str(out1)])
        assert man["outputs"] == ["s1.csv"]
        assert "input_sha256" in man and "tool_version" in man

    def test_svg_plot_written(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        svg = tmp_path / "s.svg"
        code, _, _ = run(["sweep", "--model", "c2", "--param", "rho",
                          "--from", "-0.5", "--to", "0.5", "--steps", "6",
                          "--out", str(out), "--plot", str(svg),
                          "--y", "pi_sum,kappa"], capsys)
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text


    @pytest.mark.parametrize("y", ["case_label", "pi", "error", "kapa",
                                   "pi_sum,pi_2", ","])
    def test_plot_column_outside_the_csv_is_an_input_error(self, y, tmp_path,
                                                           capsys):
        out = tmp_path / "s.csv"
        code, _, err = run(["sweep", "--model", "c2", "--param", "rho",
                            "--from", "-0.5", "--to", "0.5", "--steps", "2",
                            "--out", str(out), "--plot",
                            str(tmp_path / "s.svg"), "--y", y], capsys)
        assert code == 1
        assert err.startswith("input error: --y ")
        assert "pi_1, pi_sum, kappa, xi_star, objective, cert_residual" in err
        assert not out.exists()          # refused before the sweep ran

    def test_plot_takes_the_csv_column_names(self, tmp_path, capsys):
        svg = tmp_path / "s.svg"
        code, _, _ = run(["sweep", "--model", "c2", "--param", "rho",
                          "--from", "-0.5", "--to", "0.5", "--steps", "4",
                          "--out", str(tmp_path / "s.csv"), "--plot",
                          str(svg), "--y", "pi_1,cert_residual"], capsys)
        assert code == 0
        assert svg.read_text().count("<polyline") == 2

    @pytest.mark.parametrize("frm,to", [("nan", "1"), ("0.5", "inf")])
    def test_non_finite_grid_exit_1(self, frm, to, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, err = run(["sweep", "--model", "a1", "--param", "eta",
                            "--from", frm, "--to", to, "--steps", "2",
                            "--out", str(out)], capsys)
        assert code == 1
        assert err == ("input error: sweep grid must be a nonempty, finite, "
                       "strictly increasing vector\n")
        assert not out.exists()

    @pytest.mark.parametrize("config,param,flag", [
        ("c2", "eta", "--eta"), ("a2", "rho", "--rho"), ("b1", "mu", "--mu"),
        ("b1", "mu1", "--mu")])
    def test_override_of_the_swept_field_exit_1(self, config, param, flag,
                                                tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, err = run(["sweep", "--model", config, "--param", param,
                            flag, "0.12", "--from", "1", "--to", "2",
                            "--steps", "1", "--out", str(out)], capsys)
        assert code == 1
        assert err == (f"input error: {flag} does not apply to a sweep of "
                       f"{param}: the sweep sets that field\n")
        assert not out.exists()

    @pytest.mark.parametrize("config,param,message", [
        ("a2", "mu", "mu needs a single-asset model; use mu1 or mu2"),
        ("b1", "mu2", "mu2 needs a two-asset model; use mu or mu1"),
        ("a2-zero-rho", "rho", "cannot scale a zero rho vector"),
        ("section5-example", "q",
         "q needs a linear or power premium schedule")])
    def test_parameter_that_cannot_apply_exit_1(self, config, param, message,
                                                tmp_path, capsys):
        # refused before the loop, as an unknown parameter is
        if config == "a2-zero-rho":
            doc = json.loads(open(cli.resolve_model_path("a2")).read())
            doc["rho"] = [0.0, 0.0]
            config = str(tmp_path / "a2-zero-rho.json")
            Path(config).write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        code, _, err = run(["sweep", "--model", config, "--param", param,
                            "--from", "0.1", "--to", "0.2", "--steps", "1",
                            "--out", str(out)], capsys)
        assert code == 1
        assert err == f"input error: {message}\n"
        assert not out.exists()


# one value per override flag at which b1 and a2 both certify
_OVERRIDE_VALUES = {"eta": 2.5, "rho": 0.3, "r": 0.025, "R": 0.07, "q": 0.25,
                    "lambda": 0.2, "b": 0.5, "mu": 0.12}


@pytest.mark.parametrize("config", ["b1", "a2"])
@pytest.mark.parametrize("flag", cli.OVERRIDES)
def test_override_solves_as_a_one_point_sweep(flag, config, capsys):
    inp = models.load_model_file(cli.resolve_model_path(config))
    if flag == "mu" and inp.model.d != 1:
        pytest.skip("--mu needs a single-asset model")
    v = _OVERRIDE_VALUES[flag]
    code, out, _ = run(["solve", "--model", config, f"--{flag}", repr(v),
                        "--format", "json"], capsys)
    assert code == 0
    (point,) = oracle.sweep(flag, [v], inp.model, inp.jumps, inp.friction,
                            inp.utility)
    assert out == json.dumps(cli._report_json(point.report), indent=2) + "\n"


def _estimate_is(monkeypatch, mean, std_error):
    """Make every Monte Carlo estimate the given one."""
    monkeypatch.setattr(cli.simulate, "simulate_terminal_utility",
                        lambda *args, **kwargs: cli.simulate.SimEstimate(
                            mean=mean, std_error=std_error,
                            floor_fraction=0.0))


class TestMonteCarloVsClosedForm:
    def test_riskless_policy_matches_to_rounding(self, capsys):
        # pi = 0, kappa = 0: every path has the same wealth, and the SE is
        # 0 or the rounding noise of the mean (1.1e-17 at 100 paths)
        for paths in ("2", "100"):
            code, out, _ = run(["simulate", "--model", "c2", "--pi", "0",
                                "--kappa", "0", "--paths", paths], capsys)
            fields = dict(l.split(" = ") for l in out.strip().splitlines())
            assert code == 0 and float(fields["mc_se"]) < 1e-15
            assert fields["z"] == "0.000"

    def test_tiny_values_far_apart_are_not_a_match(self, monkeypatch,
                                                   capsys):
        # an estimate of 7.3e-136 (what a plain estimator gave at pi = 128,
        # where most of the law lies below 1e-300) and the closed form
        # 1.5e-78 both lie far below 1e-12, 57 orders of magnitude apart,
        # and must not read as equal
        _estimate_is(monkeypatch, mean=7.285689621e-136, std_error=4.646e-136)
        code, out, _ = run(["simulate", "--model", "c2", "--pi", "128",
                            "--kappa", "0", "--eta", "0.5", "--paths",
                            "2000"], capsys)
        fields = dict(l.split(" = ") for l in out.strip().splitlines())
        assert code == 0 and float(fields["closed_form"]) > 0.0
        assert abs(float(fields["z"])) > 3.0

    def test_zero_se_off_the_closed_form_is_not_a_pass(self, monkeypatch,
                                                      capsys):
        # the estimator's SE covers the rounding of its mean, so an SE of 0
        # comes only from an estimate without spread or rounding
        _estimate_is(monkeypatch, mean=-0.555097065, std_error=0.0)
        monkeypatch.setattr(cli, "value_function", lambda *args: -1.0)
        code, out, _ = run(["simulate", "--model", "c2", "--pi", "0",
                            "--kappa", "0", "--paths", "2"], capsys)
        assert code == 0
        assert "mc_se = 0\n" in out and "z = inf\n" in out

    def test_verify_fails_a_zero_se_mismatch(self, monkeypatch, capsys):
        _estimate_is(monkeypatch, mean=-0.4, std_error=0.0)
        code, out, err = run(["verify", "--model", "c2", "--mc-paths", "2"],
                             capsys)
        assert code == 2
        assert "[fail] mc-vs-closed-form z=inf" in out
        assert err == "verify failed: CrossCheckFailed: mc-vs-closed-form\n"


    def test_utilities_near_double_range_give_a_finite_se(self, capsys):
        # section5-example at eta = 1e4: the utilities reach 1e256, so the
        # centred sum of squares overflows and is taken again rescaled
        model = ["--model", "section5-example", "--eta", "1e4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run(["simulate", *model, "--paths", "20000"],
                               capsys)
            assert code == 0
            fields = dict(l.split(" = ") for l in out.strip().splitlines())
            se, closed = float(fields["mc_se"]), float(fields["closed_form"])
            assert 0.0 < se <= 0.01 * abs(closed) < float("inf")
            assert abs(float(fields["z"])) <= 3.0
            code, out, _ = run(["verify", *model, "--mc-paths", "20000"],
                               capsys)
        assert code == 0
        assert "[pass] mc-vs-closed-form" in out
        assert "inconclusive" not in out and "inf" not in out

class TestVerify:
    def test_c2_all_pass(self, capsys):
        code, out, _ = run(["verify", "--model", "c2", "--mc-paths",
                            "400000"], capsys)
        assert code == 0
        assert "[pass] certificate" in out
        assert "[pass] oracle-gap" in out
        assert "[pass] mc-vs-closed-form" in out

    @pytest.mark.parametrize("eta", ["0.01", "1e-4"])
    def test_small_eta_meets_the_closed_form(self, eta, capsys):
        # the solved pi is large here (about (21, 35) at 0.01), and the
        # law's weight lies on paths a plain estimator rarely draws; the
        # conditional estimate meets the closed form
        code, out, _ = run(["verify", "--model", "a1", "--eta", eta,
                            "--mc-paths", "20000"], capsys)
        assert code == 0
        assert "[pass] mc-vs-closed-form" in out

    def test_low_power_mc_inconclusive(self, capsys):
        # a1 at eta = 1: the SE at 20,000 paths (about 0.001) is above 1% of
        # the closed form (-0.070)
        code, out, _ = run(["verify", "--model", "a1", "--eta", "1",
                            "--mc-paths", "20000"], capsys)
        assert code == 0
        assert "[inconclusive] mc-vs-closed-form" in out

    def test_underflowed_utilities_are_inconclusive(self, capsys):
        # at r = 800 every utility underflows: the closed form and the
        # estimate are both -0.0 with an SE of 0, which checks nothing
        code, out, _ = run(["verify", "--model", "b1", "--r", "800", "--R",
                            "800.02", "--mu", "800.06", "--eta", "3",
                            "--mc-paths", "2000"], capsys)
        assert code == 0
        assert "[inconclusive] mc-vs-closed-form" in out
        assert "[pass] mc-vs-closed-form" not in out

    def test_out_writes_the_checks(self, tmp_path, capsys):
        argv = ["verify", "--model", "c2", "--mc-paths", "100"]
        _, printed, _ = run(argv, capsys)
        path = tmp_path / "verify.txt"
        code, out, _ = run(argv + ["--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert path.read_text() == printed
        man = json.loads((tmp_path / "verify.txt.manifest.json").read_text())
        assert man["command"] == " ".join(argv + ["--out", str(path)])
        assert man["outputs"] == ["verify.txt"]

    def test_failed_check_raises_after_the_write(self, tmp_path, monkeypatch,
                                                 capsys):
        # an oracle value far above the solver's fails the oracle-gap check
        monkeypatch.setattr(cli.oracle, "grid_maximize",
                            lambda *args, **kwargs: (None, 1e9, 0.0))
        path = tmp_path / "verify.txt"
        code, out, err = run(["verify", "--model", "c2", "--mc-paths", "100",
                              "--out", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == "verify failed: CrossCheckFailed: oracle-gap\n"
        assert "[fail] oracle-gap" in path.read_text()


class TestColdStart:
    # no runtime code imports scipy (about half a second of import), so it
    # stays unloaded through every bundled solve. hashlib (and with it
    # OpenSSL) is imported only to hash the files --out writes, and
    # concurrent.futures (and with it logging) only to fill a Monte Carlo
    # draw of more than one block.
    SCRIPT = textwrap.dedent("""
        import contextlib, io, sys
        import pikappa as pk
        from pikappa import cli

        def check(step):
            loaded = sorted(m for m in sys.modules
                            if m == "scipy" or m.startswith("scipy."))
            assert not loaded, (step, loaded[:3])
            hashing = sorted({"hashlib", "_hashlib"} & set(sys.modules))
            assert not hashing, (step, hashing)
            assert "concurrent.futures" not in sys.modules, step

        check("import pikappa, pikappa.cli")
        argvs = [["solve", "--model", name] for name in CONFIGS]
        for argv in argvs + [["solve", "--model", "a1", "--thresholds"]]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
            check(" ".join(argv))
        inp = pk.load_model_file(cli.resolve_model_path("table-etaR"))
        pk.threshold_etas(inp.model, inp.jumps, inp.friction.premium)
        check("threshold_etas on table-etaR")
        inp = pk.load_model_file(cli.resolve_model_path("c2"))
        parts = (inp.model, inp.jumps, inp.friction, pk.Utility(1.0))
        assert 0.0 < pk.solve(*parts).policy.kappa < 1.0
        pk.grid_maximize(*parts)
        check("c2 eta = 1 solve and grid_maximize")
        print("ok")
        """)

    def test_no_scipy_module_is_loaded(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = f"CONFIGS = {_CONFIGS!r}\n" + self.SCRIPT
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"


class TestClosedStdout:
    def test_exit_1_without_a_traceback(self):
        # the reader closes the pipe before the child prints (as `| head`
        # does): exit 1, and nothing on stderr, not even at shutdown
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "pikappa.cli", "oracle", "--model", "c2",
             "--resolution", "21", "--refine-resolution", "21", "--rounds",
             "1"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err
        assert err == ""


class TestBeyondBeta:
    # b1 has Beta(2, 8) jumps: at eta = 40 >= beta the kappa = 1 corner is
    # ruled out by h(1) = -inf, and every command certifies
    @pytest.mark.parametrize("command", [
        "solve --model b1 --eta 40",
        "verify --model b1 --eta 40 --mc-paths 100000",
        "oracle --model b1 --eta 40 --resolution 41 --refine-resolution 41 "
        "--rounds 1",
        "mutual-fund --model b1 --eta1 35 --eta2 50 --eta-bar 40"])
    def test_exit_0(self, command, capsys):
        code, _, err = run(command.split(), capsys)
        assert code == 0 and err == ""


class TestMutualFund:
    def test_eta_bar_outside_exit_1(self, capsys):
        code, _, err = run(["mutual-fund", "--model", "a1", "--eta1", "2",
                            "--eta2", "5", "--eta-bar", "6"], capsys)
        assert code == 1

    def test_a2_case_iii_triple(self, capsys):
        code, out, _ = run(["mutual-fund", "--model", "a2", "--eta1", "1.0",
                            "--eta2", "2.0", "--eta-bar", "1.5"], capsys)
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        # both kappas sit on the corner 1, where separation is exact and
        # delta has a closed form: the combination is the direct solve to
        # round-off
        assert float(fields["max_discrepancy"]) <= 1e-15
        assert fields["cases"].count("DiffRates-iii") == 3

    def test_power_premium_at_delta_one_is_linear(self, tmp_path, capsys):
        argv = ["mutual-fund", "--eta1", "1.0", "--eta2", "2.0",
                "--eta-bar", "1.5", "--model"]
        doc = json.loads(open(cli.resolve_model_path("a2")).read())
        doc["premium"] = {"type": "power", "q": doc["premium"]["q"],
                          "delta": 1}
        path = tmp_path / "a2_power.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(argv + [str(path)], capsys)
        assert code == 0
        assert out == run(argv + ["a2"], capsys)[1]

    def test_case_mismatch_exit_2(self, capsys):
        code, _, err = run(["mutual-fund", "--model", "a1", "--eta1", "1.0",
                            "--eta2", "5.0", "--eta-bar", "2.0"], capsys)
        assert code == 2
        assert "mismatch" in err.lower() or "differ" in err.lower()


class TestOracleCmd:
    def test_solver_within_bound(self, capsys):
        code, out, _ = run(["oracle", "--model", "c2", "--resolution", "201",
                            "--refine-resolution", "801"], capsys)
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert fields["within_bound"] == "True"


    @pytest.mark.parametrize("flags", [["--R", "0.01"], ["--b", "-1"]])
    def test_invalid_model_exit_1(self, flags, capsys):
        code, out, err = run(["oracle", "--model", "b1"] + flags, capsys)
        assert code == 1
        assert err.startswith("input error:")
        assert "oracle_value" not in out


    @pytest.mark.parametrize("command", [["oracle"], ["verify"]])
    def test_oracle_failure_one_line_exit_2(self, command, monkeypatch,
                                            capsys):
        def fail(*args, **kwargs):
            raise DomainError("grid overflowed")
        monkeypatch.setattr(cli.oracle, "grid_maximize", fail)
        code, _, err = run(command + ["--model", "c2"], capsys)
        assert code == 2
        assert err == f"{command[0]} failed: DomainError: grid overflowed\n"


class TestJumpMomentEdge:
    # b1 has Beta(2, 8) jumps: at eta = 8.5 the oracle's kappa = 1 point is
    # finite (eta < beta + 1), at eta = 12 it is -inf; neither may crash
    @pytest.mark.parametrize("eta", ["8.5", "12"])
    @pytest.mark.parametrize("command", [
        ["oracle", "--resolution", "101", "--refine-resolution", "201"],
        ["verify", "--mc-paths", "100000"]])
    def test_no_traceback(self, command, eta, capsys):
        code, _, err = run(command + ["--model", "b1", "--eta", eta], capsys)
        assert code in (0, 2)
        assert "Traceback" not in err


class TestDiscreteLawAtLargeEta:
    # a discrete law's moments leave double range from eta of about 400
    # ((1 - kappa y) ** eta underflows); solve and the oracle still exit 0
    # with nothing on stderr
    @pytest.mark.parametrize("command", [["solve", "--eta", "5e4"],
                                         ["oracle", "--eta", "2000"]])
    def test_exit_0_with_empty_stderr(self, command, tmp_path, capsys):
        doc = json.loads(open(cli.resolve_model_path("b1")).read())
        doc["jump_law"] = {"type": "discrete", "points": [0.1, 0.4, 0.8],
                           "weights": [0.5, 0.3, 0.2]}
        path = tmp_path / "discrete.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(command + ["--model", str(path)], capsys)
        assert code == 0 and err == ""
        assert out


class TestSimulateCmd:
    def test_c2_z_small(self, capsys):
        code, out, _ = run(["simulate", "--model", "c2", "--paths", "200000",
                            "--seed", "3"], capsys)
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert abs(float(fields["z"])) <= 3.5

    def test_z_far_off_the_closed_form_stays_short(self, monkeypatch, capsys):
        # mc_mean -7.7e98 (what a plain estimator gave at pi = 40) against
        # closed_form -9.5e184 at SE 7.7e98: z is about 1.2e86, printed in
        # four significant digits
        _estimate_is(monkeypatch, mean=-7.7172686e98, std_error=7.717e98)
        code, out, _ = run(["simulate", "--model", "c2", "--pi", "40",
                            "--paths", "2000", "--eta", "3"], capsys)
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert fields["z"] == "1.231e+86"


class TestPortfolioPremiumLambda:
    """The portfolio premium reads its fair part lambda E[Y] from the jump
    law, so --lambda and a lambda sweep solve the file with that lambda."""

    @staticmethod
    def _with_lambda(tmp_path, lam):
        doc = json.loads(open(cli.resolve_model_path("section5-example")).read())
        doc["lambda"] = lam
        path = tmp_path / f"lambda-{lam}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_lambda_flag_solves_the_file_with_that_lambda(self, tmp_path,
                                                          capsys):
        code, out, _ = run(["solve", "--model", "section5-example",
                            "--lambda", "0.5"], capsys)
        assert code == 0
        assert out == run(["solve", "--model",
                           self._with_lambda(tmp_path, 0.5)], capsys)[1]
        assert out != run(["solve", "--model", "section5-example"], capsys)[1]

    def test_lambda_sweep_solves_the_file_at_each_lambda(self, tmp_path,
                                                         capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(["sweep", "--model", "section5-example", "--param",
                          "lambda", "--from", "0.25", "--to", "0.75",
                          "--steps", "2", "--out", str(out)], capsys)
        assert code == 0
        rows = list(csv.reader(out.open()))[1:]
        assert [row[0] for row in rows] == ["0.25", "0.5", "0.75"]
        for lam, row in zip((0.25, 0.5, 0.75), rows):
            inp = models.load_model_file(self._with_lambda(tmp_path, lam))
            rep = solvers.solve(inp.model, inp.jumps, inp.friction,
                                inp.utility)
            numbers = (rep.policy.pi[0], rep.policy.pi_sum, rep.policy.kappa)
            assert row[1:] == [f"{v:.12g}" for v in numbers] + [
                rep.case_label, "", f"{rep.objective.value:.12g}",
                f"{rep.certificate.residual:.12g}"]


class TestVerifyInvalidModel:
    def test_r_above_R_exit_1(self, tmp_path, capsys):
        doc = json.loads(open(cli.resolve_model_path("c2")).read())
        doc["R"] = 0.001
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(["verify", "--model", str(p)], capsys)
        assert code == 1
        assert "validation" in err


class TestExitContract:
    """main() alone maps an exception to an exit code and one stderr line."""

    @pytest.mark.parametrize("command,code,prefix", [
        ("solve --model c1 --thresholds", 2, "solve failed: NoThreshold:"),
        ("solve --model section5-example --thresholds", 1, "input error:"),
        ("solve --model section5-example --q 5", 1, "input error:"),
        # eta b sigma past 1e154: the second-order bound's squares would
        # overflow, so its sides are compared unsquared
        ("solve --model section5-example --eta 1e160", 2,
         "solve failed: DomainError:"),
        ("simulate --model b1 --eta 1e6 --paths 1000", 2,
         "certification failed:"),
        ("simulate --model section5-example --eta 0.2504069946105812 "
         "--paths 2000", 2, "simulate failed: SOCViolation:"),
        ("simulate --model b1 --eta 8.406740412392656e-10 --paths 2000", 2,
         "simulate failed: DomainError:"),
        ("mutual-fund --model b1 --eta1 35 --eta2 1e6 --eta-bar 40", 2,
         "certification failed:"),
        ("oracle --model b1 --eta 1e6 --resolution 41 --refine-resolution 41 "
         "--rounds 1", 2, "certification failed:"),
        ("verify --model b1 --eta 1e6 --mc-paths 1000", 2,
         "certification failed:"),
        ("oracle --model c2 --rounds -1", 1, "input error: grid rounds"),
        # the grid's Lipschitz estimate overflows a float
        ("oracle --model b1 --eta 161904.5 --R 0.038 --lambda 4.3 "
         "--resolution 21 --refine-resolution 21 --rounds 1", 2,
         "oracle failed: DomainError: grid_maximize overflowed"),
        # a user policy so large that f + H overflows
        ("simulate --model c2 --paths 100 --pi 1e308 --kappa 0.5", 2,
         "simulate failed: DomainError:"),
        # one path has no standard error, so nothing to compare with
        ("simulate --model c2 --paths 1", 1,
         "input error: need at least 2 paths"),
        ("verify --model c2 --mc-paths 1", 1,
         "input error: need at least 2 paths"),
        # antithetic paths have equal conditional values
        ("simulate --model c2 --paths 2 --antithetic", 1,
         "input error: --antithetic is gone:"),
        ("simulate --model c2 --kappa 0.9 --paths 1000", 1,
         "input error: --kappa needs --pi"),
        # a1 has d = 2, so one weight is not a policy
        ("simulate --model a1 --pi 0 --kappa 0 --paths 1000", 1,
         "input error: --pi gives 1 weights; the model has d = 2"),
        ("simulate --model c2 --pi 0.5,0.5 --paths 1000", 1,
         "input error: --pi gives 2 weights; the model has d = 1"),
        ("simulate --model a1 --pi abc --paths 1000", 1,
         "input error: --pi entry 1 is not a number: 'abc'"),
        ("simulate --model a1 --pi 0.1,,0.2 --paths 1000", 1,
         "input error: --pi entry 2 is not a number: ''"),
        # non-finite settings would reach numpy's Poisson sampler or print
        # a NaN estimate with exit 0
        ("simulate --model a1 --paths 1000 --x0 nan", 1,
         "input error: x0 must be finite and positive, got nan"),
        ("simulate --model a1 --paths 1000 --horizon nan", 1,
         "input error: horizon must be finite and positive, got nan"),
        ("simulate --model a1 --paths 1000 --horizon inf", 1,
         "input error: horizon must be finite and positive, got inf"),
        ("simulate --model a1 --paths 1000 --seed -1", 1,
         "input error: seed must be a non-negative integer, got -1"),
        ("verify --model c2 --mc-paths 1000 --seed -1", 1,
         "input error: seed must be a non-negative integer, got -1"),
        # 8 PB of normals lies beyond any address space, so the first
        # allocation fails at once
        ("simulate --model a1 --paths 1000000000000000", 1,
         "input error: not enough memory for 1000000000000000 Monte Carlo "
         "paths"),
        ("verify --model c2 --mc-paths 1000000000000000", 1,
         "input error: not enough memory for 1000000000000000 Monte Carlo "
         "paths"),
        # so do the jump sizes of a rate whose n lam T draws lie beyond
        # memory, before the Monte Carlo's rank table, which grows with
        # lam T; lam T = inf included
        ("simulate --model c2 --lambda 1e9 --pi 0.5 --kappa 0 --paths 1000",
         1, "input error: not enough memory for 1000 Monte Carlo paths"),
        ("simulate --model c2 --lambda 1e300 --horizon 1e10 --pi 0.5 "
         "--kappa 0 --paths 1000", 1, "input error:"),
        # the combination reads its risk aversions from its own three
        # flags, so a point --eta would be dropped without a word
        ("mutual-fund --model a2 --eta1 1 --eta2 2 --eta-bar 1.5 --eta 7", 1,
         "input error: --eta does not apply to mutual-fund: its risk "
         "aversions are --eta1, --eta2 and --eta-bar"),
    ])
    def test_failure_is_one_typed_line(self, command, code, prefix, capsys):
        got, _, err = run(command.split(), capsys)
        assert got == code
        assert err.startswith(prefix)
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("beta", [5e-4, 1e-3, 2e-3])
    def test_thresholds_on_an_empty_eta_interval_are_one_typed_line(
            self, beta, tmp_path, capsys):
        # a Beta law caps the eta search at beta - 1e-3, below its floor of
        # 1e-3 here: no threshold, not a value under the floor or a
        # ZeroDivisionError
        doc = json.loads(open(cli.resolve_model_path("table-etaR")).read())
        doc["jump_law"]["beta"] = beta
        path = tmp_path / "beta.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["solve", "--model", str(path), "--thresholds"],
                           capsys)
        assert code == 2
        assert err.startswith("solve failed: NoThreshold:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("delta", [0.5, 0, -1])
    def test_power_delta_below_one_is_one_typed_line(self, delta, tmp_path,
                                                     capsys):
        doc = json.loads(open(cli.resolve_model_path("c2")).read())
        doc["premium"] = {"type": "power", "q": 0.1, "delta": delta}
        path = tmp_path / "power.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["solve", "--model", str(path)], capsys)
        assert code == 1
        assert err.startswith("input error: model validation failed: "
                              "premium.delta >= 1")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("C,A,check", [
        (0.25, 0.0, "A > 0"), (0.25, -0.5, "A > 0"), (-0.005, 0.5, "C >= 0")])
    def test_portfolio_premium_outside_its_domain_is_one_typed_line(
            self, C, A, check, tmp_path, capsys):
        # A = 0 makes q'(0) = 0/0; A < 0 and C < 0 make q dip below its
        # fair part far out, past any sampled grid
        doc = json.loads(open(cli.resolve_model_path("section5-example"))
                         .read())
        doc["friction"].update(C=C, A=A)
        path = tmp_path / "pp.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["solve", "--model", str(path)], capsys)
        assert code == 1
        assert err.startswith("input error: model validation failed: "
                              f"portfolio-premium {check}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("premium,check", [
        ({"type": "linear", "q": -0.1}, "premium.q >= 0"),
        ({"type": "power", "q": 0.2, "delta": 0.5}, "premium.delta >= 1")])
    def test_unused_premium_outside_its_domain_is_one_typed_line(
            self, premium, check, tmp_path, capsys):
        # the portfolio premium has no use for the file's premium schedule,
        # which is validated all the same
        doc = json.loads(open(cli.resolve_model_path("section5-example"))
                         .read())
        doc["premium"] = premium
        path = tmp_path / "pp.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["solve", "--model", str(path)], capsys)
        assert code == 1
        assert err.startswith("input error: model validation failed: "
                              + check)
        assert len(err.splitlines()) == 1

    def test_overflowing_policy_warns_nothing(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["simulate", "--model", "c2", "--paths",
                                  "100", "--pi", "1e308", "--kappa", "0.5"],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("simulate failed: DomainError: f + H = ")

    def test_sweep_error_rows_stay_one_csv_row(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(["sweep", "--model", "b1", "--param", "rho",
                          "--from", "-1.5", "--to", "1.5", "--steps", "2",
                          "--out", str(out)], capsys)
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert [len(r) for r in rows] == [8] * 4
        assert rows[1][4].startswith("error(model validation failed: ")

    def test_solve_validates_once(self, monkeypatch, capsys):
        calls = []
        validate = models.validate_model

        def counting(*args):
            calls.append(args)
            return validate(*args)
        monkeypatch.setattr(models, "validate_model", counting)
        assert run(["solve", "--model", "c2"], capsys)[0] == 0
        assert len(calls) == 1


_CONFIGS = ("a1", "a2", "b1", "b2", "c1", "c2", "table-etaR",
            "section5-example")
_EXTREME_OVERRIDES = (("--eta", "1e-300"), ("--eta", "1e300"),
                      ("--b", "1e300"), ("--lambda", "1e300"),
                      ("--q", "1e300"), ("--r", "1e300"))


@pytest.mark.parametrize("override", _EXTREME_OVERRIDES, ids=" ".join)
@pytest.mark.parametrize("config", _CONFIGS)
def test_solve_at_an_extreme_override_keeps_the_exit_contract(config,
                                                              override,
                                                              capsys):
    # exit 0 with an empty stderr, or exit 1 or 2 with one typed line; an
    # exception escaping main fails the test
    code, _, err = run(["solve", "--model", config, *override], capsys)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err


_COMMANDS = (("solve",), ("solve", "--format", "json"),
             ("solve", "--thresholds"), ("simulate", "--paths", "2000"),
             ("oracle", "--resolution", "21", "--refine-resolution", "21",
              "--rounds", "1"),
             ("mutual-fund",))
_FLAG_RANGES = {"rho": (-1.3, 1.3), "r": (-0.05, 0.2), "R": (-0.05, 0.3),
                "q": (-0.5, 3.0), "lambda": (-0.5, 5.0), "b": (-0.5, 3.0),
                "mu": (-0.5, 1.0)}


@st.composite
def _invocations(draw):
    command = list(draw(st.sampled_from(_COMMANDS)))
    argv = command + ["--model", draw(st.sampled_from(_CONFIGS))]
    if command[0] == "mutual-fund":
        etas = sorted(draw(st.lists(st.floats(0.01, 30.0), min_size=3,
                                    max_size=3)))
        argv += [f"--eta1={etas[0]!r}", f"--eta-bar={etas[1]!r}",
                 f"--eta2={etas[2]!r}"]
    log_eta = draw(st.none() | st.floats(-13.0, 6.5))
    if log_eta is not None:
        argv.append(f"--eta={10.0 ** log_eta!r}")
    for name, (lo, hi) in _FLAG_RANGES.items():
        v = draw(st.none() | st.floats(lo, hi))
        if v is not None:
            # --name=value, so that argparse reads -1e-05 as a value
            argv.append(f"--{name}={v!r}")
    return argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_invocations())
def test_flag_contract(argv):
    """Every flag set exits 0, 1 or 2 without raising; a failure is one
    stderr line; a json solve that exits 0 carries a passing certificate."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    elif argv[:3] == ["solve", "--format", "json"]:
        doc = json.loads(out.getvalue())
        assert doc["cert_in_domain"] is True
        assert abs(doc["cert_residual"]) <= 1e-7


# single-field edits that take a model document out of the documented
# domain: each must exit 1 with an input error, whatever the rest of it
_MUTATIONS = {
    "R below r": lambda doc: doc.update(R=doc["r"] - 0.01),
    "eta zero": lambda doc: doc.update(eta=0.0),
    "lambda negative": lambda doc: doc.update({"lambda": -0.1}),
    "rho above 1": lambda doc: doc.update(rho=[1.5] * doc["d"]),
    "b negative": lambda doc: doc.update(b=-0.1),
    "mu too long": lambda doc: doc.update(mu=doc["mu"] + [0.1]),
    "mu not finite": lambda doc: doc.update(mu=[float("nan")] * doc["d"]),
    "sigma shape": lambda doc: doc.update(sigma=[[0.2, 0.0, 0.0]]),
    "sigma singular": lambda doc: doc.update(
        sigma=[[0.0] * doc["d"]] * doc["d"]),
    "law unknown": lambda doc: doc.update(jump_law={"type": "gamma"}),
    "alpha zero": lambda doc: doc.update(
        jump_law={"type": "beta", "alpha": 0.0, "beta": 8.0}),
    "point outside (0, 1)": lambda doc: doc.update(
        jump_law={"type": "discrete", "points": [0.5, 1.2],
                  "weights": [0.5, 0.5]}),
    "weights off 1": lambda doc: doc.update(
        jump_law={"type": "discrete", "points": [0.2, 0.5],
                  "weights": [0.5, 0.6]}),
    "q negative": lambda doc: doc.update(
        premium={"type": "linear", "q": -0.1}),
    "delta below 1": lambda doc: doc.update(
        premium={"type": "power", "q": 0.2, "delta": 0.5}),
    "friction unknown": lambda doc: doc.update(friction={"type": "tax"}),
    "smooth g not concave": lambda doc: doc.update(
        friction={"type": "smooth_g", "form": "quadratic", "c": 0.0}),
    "smooth g form unknown": lambda doc: doc.update(
        friction={"type": "smooth_g", "form": "cubic", "c": 0.1}),
    "portfolio premium A zero": lambda doc: doc.update(
        friction={"type": "portfolio_premium", "form": "fair_plus_sqrt",
                  "C": 0.1, "A": 0.0}),
    "portfolio premium A negative": lambda doc: doc.update(
        friction={"type": "portfolio_premium", "form": "fair_plus_sqrt",
                  "C": 0.1, "A": -0.5}),
    "portfolio premium C negative": lambda doc: doc.update(
        friction={"type": "portfolio_premium", "form": "fair_plus_sqrt",
                  "C": -0.005, "A": 0.5}),
    "m+ above m-": lambda doc: doc.update(
        friction={"type": "large_investor", "m_plus": 0.02,
                  "m_minus": -0.02}),
    "missing field": lambda doc: doc.pop("b"),
}


# the check each edit of a smooth friction's parameters must fail; its
# document is drawn for the portfolio premium (d = 1 and lambda > 0), so
# that the edit is the only thing out of the domain
_OWN_CHECK = {
    "smooth g not concave": "smooth-g c > 0",
    "portfolio premium A zero": "portfolio-premium A > 0",
    "portfolio premium A negative": "portfolio-premium A > 0",
    "portfolio premium C negative": "portfolio-premium C >= 0",
}


@st.composite
def _model_documents(draw, friction=None):
    """A model document inside the documented domain, covering every sigma
    form, jump law, premium and friction of the schema, or for the friction
    given."""
    d = draw(st.sampled_from([1, 2])) if friction is None else 1
    friction = friction or draw(st.sampled_from(
        ["differential_rates", "frictionless"] + (d == 1) * [
            "large_investor", "smooth_g", "portfolio_premium"]))
    r = draw(st.floats(0.0, 0.05))
    s1, s2 = draw(st.floats(0.15, 0.45)), draw(st.floats(0.15, 0.45))
    if d == 1:
        sigma = draw(st.sampled_from([s1, [[s1]]]))
    else:
        s = draw(st.floats(-0.7, 0.7))
        tri = [[s1, 0.0], [s2 * s, s2 * (1.0 - s * s) ** 0.5]]
        sigma = draw(st.sampled_from([{"sigma1": s1, "sigma2": s2, "s": s},
                                      tri]))
    rho = [draw(st.floats(-0.9, 0.9)) / d ** 0.5 for _ in range(d)]
    if draw(st.booleans()):
        law = {"type": "beta", "alpha": draw(st.floats(0.8, 14.0)),
               "beta": draw(st.floats(2.5, 12.0))}
    else:
        w = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4))
        law = {"type": "discrete",
               "points": [draw(st.floats(0.05, 0.95)) for _ in w],
               "weights": [x / sum(w) for x in w]}
    eta = draw(st.sampled_from([1.0, draw(st.floats(0.4, 6.0))]))
    b = draw(st.floats(0.05, 0.8))
    lam = draw(st.floats(0.01 if friction == "portfolio_premium" else 0.0,
                         0.5))
    q = draw(st.floats(0.0, 0.5))
    premium = draw(st.sampled_from(
        [{"type": "linear", "q": q},
         {"type": "power", "q": q, "delta": draw(st.floats(1.0, 3.0))}]))
    fr = {"type": friction}
    if friction == "large_investor":
        fr.update(m_plus=-draw(st.floats(0.0, 0.04)),
                  m_minus=draw(st.floats(0.0, 0.04)))
    elif friction == "smooth_g":
        fr.update(form="quadratic", c=draw(st.floats(0.01, 0.4)))
    elif friction == "portfolio_premium":
        # q(pi) >= lambda E[Y] must be positive, so lambda is; and
        # |q'| <= C below eta b sigma (1 - |rho|) keeps the second-order
        # bound, so the solve turns on the first-order condition alone
        c_max = eta * b * s1 * (1.0 - abs(rho[0]))
        fr.update(form="fair_plus_sqrt", C=draw(st.floats(0.0, 0.9)) * c_max,
                  A=draw(st.floats(0.2, 1.0)))
    return {"d": d, "mu": [r + draw(st.floats(-0.02, 0.18))
                           for _ in range(d)],
            "sigma": sigma, "r": r, "R": r + draw(st.floats(0.0, 0.08)),
            "rho": rho, "b": b, "lambda": lam, "jump_law": law,
            "premium": premium, "friction": fr, "eta": eta}


def _solve_file(doc):
    """cli.main's exit code, stdout and stderr on a json solve of doc."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["solve", "--model", path, "--format", "json"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_model_documents())
def test_model_file_contract(doc):
    """A model file inside the documented domain exits 0 or 2, a failure
    with one stderr line. Exit 0 carries a passing certificate, and the
    grid oracle finds nothing above the solved objective beyond its
    resolution bound."""
    code, out, err = _solve_file(doc)
    assert code in (0, 2), (code, err)
    if code:
        assert len(err.splitlines()) == 1, err
        return
    inputs = models.parse_model_dict(doc)
    parts = (inputs.model, inputs.jumps, inputs.friction, inputs.utility)
    rep = solvers.solve(*parts)
    assert rep.certificate.passes
    assert json.loads(out)["kappa"] == rep.policy.kappa
    grid = oracle.GridSpec(resolution=21, refine_resolution=21, rounds=1)
    _, val, bound = oracle.grid_maximize(*parts, grid)
    assert val - rep.objective.value <= bound + 1e-12


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
@settings(max_examples=4, derandomize=True, deadline=None)
@given(data=st.data())
def test_model_file_out_of_domain_is_an_input_error(mutation, data):
    check = _OWN_CHECK.get(mutation, "")
    doc = data.draw(_model_documents("portfolio_premium" if check else None))
    _MUTATIONS[mutation](doc)
    code, _, err = _solve_file(doc)
    assert code == 1, (code, err)
    assert err.startswith("input error: ") and len(err.splitlines()) == 1
    assert check in err, err
