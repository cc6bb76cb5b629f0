import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

from ginibre_overlaps.cli import dispatch


def _read(path):
    with open(path) as fh:
        return fh.read()


def _env(**extra):
    """The environment of a child python that imports this checkout's package."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=src, **extra)


class TestAnalyticCommand:
    def test_row_count_contract(self, tmp_path):
        out = tmp_path / "jpd.csv"
        rc = dispatch(["analytic", "--ensemble", "real", "--n", "6",
                       "--lambda", "0.5", "--t-grid", "log:1e-2:1e4:64",
                       "--out", str(out)])
        assert rc == 0
        lines = _read(out).strip().splitlines()
        assert lines[0].startswith("# provenance: ")
        assert lines[1] == "n,beta,lambda_or_abs_z,t,density"
        assert len(lines) == 2 + 64

    def test_byte_identical_reruns(self, tmp_path):
        args = ["analytic", "--ensemble", "complex", "--n", "4", "--abs-z", "1.0",
                "--t-grid", "log:1e-1:1e2:16"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(args + ["--out", str(a)]) == 0
        assert dispatch(args + ["--out", str(b)]) == 0
        assert _read(a) == _read(b)

    def test_json_format(self, tmp_path):
        out = tmp_path / "jpd.json"
        rc = dispatch(["analytic", "--ensemble", "real", "--n", "3",
                       "--lambda", "0", "--t-grid", "log:1e-1:10:5",
                       "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(_read(out))
        assert len(doc["data"]) == 5
        assert doc["provenance"]["command"] == "analytic"

    def test_emit_plot(self, tmp_path):
        out = tmp_path / "jpd.csv"
        rc = dispatch(["analytic", "--ensemble", "real", "--n", "3",
                       "--lambda", "0", "--t-grid", "log:1e-1:10:5",
                       "--out", str(out), "--emit-plot"])
        assert rc == 0
        assert (tmp_path / "jpd.gp").exists()


class TestDensityCommand:
    def test_density_rows(self, tmp_path):
        out = tmp_path / "rho.csv"
        rc = dispatch(["density", "--ensemble", "complex", "--n", "8",
                       "--grid", "lin:0:3:11", "--out", str(out)])
        assert rc == 0
        assert len(_read(out).strip().splitlines()) == 2 + 11


class TestSampleCommand:
    def test_histogram_json(self, tmp_path):
        out = tmp_path / "hist.json"
        rc = dispatch(["sample", "--beta", "2", "--n", "4", "--matrices", "300",
                       "--window", "annulus:0:0.6", "--seed", "5",
                       "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(_read(out))
        h = doc["histogram"]
        assert len(h["bin_edges"]) == len(h["counts"]) + 1
        assert h["n_samples"] == h["underflow"] + sum(h["counts"]) + h["overflow"]

    def test_determinism(self, tmp_path):
        args = ["sample", "--beta", "1", "--n", "4", "--matrices", "200",
                "--window", "real:-0.5:0.5", "--seed", "9", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert dispatch(args + ["--out", str(a)]) == 0
        assert dispatch(args + ["--out", str(b)]) == 0
        assert _read(a) == _read(b)

    def test_empty_window_exit_code(self, tmp_path):
        rc = dispatch(["sample", "--beta", "2", "--n", "4", "--matrices", "20",
                       "--window", "annulus:10:11", "--out", str(tmp_path / "x.json")])
        assert rc == 1


class TestCompareCommand:
    def test_pass_run(self, tmp_path):
        out = tmp_path / "report.json"
        rc = dispatch(["compare", "--beta", "2", "--n", "4", "--matrices", "2000",
                       "--window", "annulus:0:0.5", "--seed", "11",
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads(_read(out))
        rep = doc["report"]
        assert rep["pass"] is True
        assert rep["statistic_value"] <= rep["threshold"]
        assert rep["sample_size"] >= 100

    def test_wrong_model_fails(self, tmp_path):
        out = tmp_path / "report.json"
        rc = dispatch(["compare", "--beta", "2", "--n", "4", "--matrices", "2000",
                       "--window", "annulus:0:0.5", "--seed", "11",
                       "--analytic-n", "9", "--out", str(out)])
        assert rc == 2
        assert json.loads(_read(out))["report"]["pass"] is False

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_validation_failure(self, tmp_path, capsys, threads):
        out = tmp_path / "report.json"
        rc = dispatch(["compare", "--beta", "2", "--n", "4", "--matrices", "200",
                       "--window", "annulus:0:0.5", "--threads", threads,
                       "--out", str(out)])
        assert rc == 1
        assert "threads" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("analytic_n", ["0", "-3"])
    def test_analytic_n_below_one_is_a_validation_failure(self, tmp_path, capsys, analytic_n):
        # 0 is a size like any other, not a request for the default --n
        out = tmp_path / "report.json"
        rc = dispatch(["compare", "--beta", "2", "--n", "4", "--matrices", "200",
                       "--window", "annulus:0:0.5", "--analytic-n", analytic_n,
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestDetratioCommand:
    def test_closed_and_mc_columns(self, tmp_path):
        out = tmp_path / "dr.csv"
        rc = dispatch(["detratio", "--beta", "1", "--L", "2", "--n", "4",
                       "--lambda", "0.7", "--p", "1", "--mc", "20000",
                       "--seed", "2", "--out", str(out)])
        assert rc == 0
        lines = _read(out).strip().splitlines()
        header = lines[1].split(",")
        assert {"closed", "mc_mean", "mc_stderr", "z_score"} <= set(header)
        row = dict(zip(header, lines[2].split(",")))
        assert abs(float(row["z_score"])) < 5.0

    def test_unsupported_pair_exit_1(self):
        assert dispatch(["detratio", "--beta", "1", "--L", "1", "--n", "4",
                         "--p", "1"]) == 1

    def test_non_finite_z_exit_1(self, capsys):
        assert dispatch(["detratio", "--beta", "2", "--L", "1", "--n", "4",
                         "--abs-z", "nan", "--p", "1", "--mc", "2000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unconverged_closed_form_exit_1(self, capsys):
        # the L = 0 ratio at p = 1e-12 runs out of subdivisions
        assert dispatch(["detratio", "--beta", "2", "--L", "0", "--n", "4",
                         "--p", "1e-12"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no convergence") and "Traceback" not in err


class TestMetadata:
    def test_verify_roundtrip(self, tmp_path):
        out = tmp_path / "jpd.csv"
        dispatch(["analytic", "--ensemble", "real", "--n", "3", "--lambda", "0",
                  "--t-grid", "log:1e-1:10:5", "--out", str(out)])
        assert dispatch(["--verify-metadata", str(out)]) == 0

    def test_verify_detects_tampering(self, tmp_path):
        out = tmp_path / "jpd.csv"
        dispatch(["analytic", "--ensemble", "real", "--n", "3", "--lambda", "0",
                  "--t-grid", "log:1e-1:10:5", "--out", str(out)])
        text = _read(out).replace('"n": 3', '"n": 4').replace('"n":3', '"n":4')
        with open(out, "w") as fh:
            fh.write(text)
        assert dispatch(["--verify-metadata", str(out)]) == 1

    def test_verify_unreadable_exit_1(self, tmp_path, capsys):
        for name, text in (("empty.json", "{}"), ("text.txt", "not json\n"),
                           ("list.json", "[]"), ("scalar.json", '{"provenance": 3}')):
            path = tmp_path / name
            path.write_text(text)
            assert dispatch(["--verify-metadata", str(path)]) == 1, name
            assert capsys.readouterr().err.startswith("error: "), name
        assert dispatch(["--verify-metadata", str(tmp_path / "missing.json")]) == 1

    def test_verify_json_output(self, tmp_path):
        out = tmp_path / "hist.json"
        dispatch(["sample", "--beta", "2", "--n", "4", "--matrices", "100",
                  "--window", "annulus:0:0.8", "--format", "json", "--out", str(out)])
        assert dispatch(["--verify-metadata", str(out)]) == 0


class TestEntryPoint:
    @pytest.mark.skipif(shutil.which("ginibre-overlaps") is None,
                        reason="console script not on PATH")
    def test_installed_script(self, tmp_path):
        out = tmp_path / "rho.csv"
        proc = subprocess.run(
            ["ginibre-overlaps", "density", "--ensemble", "real", "--n", "4",
             "--grid", "lin:0:2:5", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()
        verify = subprocess.run(["ginibre-overlaps", "--verify-metadata", str(out)],
                                capture_output=True, text=True)
        assert verify.returncode == 0

    def test_module_entry_point(self, tmp_path):
        # python -m runs cli.py as __main__, which must call main()
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = tmp_path / "rho.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "ginibre_overlaps.cli", "density", "--ensemble", "real",
             "--n", "4", "--grid", "lin:0:2:5", "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert out.exists() and out.stat().st_size > 0


    def test_package_entry_point(self, tmp_path):
        # python -m ginibre_overlaps runs __main__.py: no runpy warning, so it
        # also runs under -W error
        out = tmp_path / "rho.csv"
        for argv in (["density", "--ensemble", "real", "--n", "4", "--grid", "lin:0:2:5",
                      "--out", str(out)], ["--verify-metadata", str(out)]):
            proc = subprocess.run([sys.executable, "-W", "error", "-m", "ginibre_overlaps", *argv],
                                  capture_output=True, text=True, env=_env())
            assert proc.returncode == 0 and proc.stderr == "", (argv, proc.stderr)
        assert out.stat().st_size > 0


class TestBlasThreads:
    def test_sample_file_identical_under_1_and_2_blas_threads(self, tmp_path):
        # at n = 200 the raw eigenvalues and t take different last bits under
        # 1 and 2 OpenBLAS threads; the binned histogram file does not
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"hist{threads}.json")
            proc = subprocess.run(
                [sys.executable, "-m", "ginibre_overlaps", "sample", "--beta", "2", "--n", "200",
                 "--matrices", "40", "--window", "annulus:0.5:0.6", "--seed", "3",
                 "--format", "json", "--out", str(outs[-1])],
                capture_output=True, text=True, env=_env(OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
        assert json.loads(_read(outs[0]))["histogram"]["n_samples"] > 0
        assert _read(outs[0]) == _read(outs[1])


class TestSelftest:
    def test_selftest_green(self, capsys):
        assert dispatch(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 6


class TestUsage:
    def test_unknown_flag_exit_1(self):
        with pytest.raises(SystemExit) as info:
            dispatch(["analytic", "--bogus", "1"])
        assert info.value.code == 1
        # a subcommand accepts only the flags its handler reads; every other
        # argument on these lines is valid
        analytic = ["analytic", "--ensemble", "real", "--n", "3", "--t-grid", "lin:1:2:3"]
        density = ["density", "--ensemble", "real", "--n", "3", "--grid", "lin:0:1:3"]
        detratio = ["detratio", "--beta", "1", "--L", "1", "--n", "4", "--p", "1"]
        compare = ["compare", "--beta", "2", "--n", "4", "--matrices", "10",
                   "--window", "annulus:0:0.5"]
        for argv in (analytic + ["--threads", "2"], analytic + ["--seed", "1"],
                     density + ["--threads", "2"], density + ["--seed", "1"],
                     detratio + ["--threads", "2"],
                     ["selftest", "--threads", "2"], ["selftest", "--seed", "1"],
                     ["selftest", "--format", "json"], ["selftest", "--out", "x.txt"],
                     ["selftest", "--emit-plot"],
                     compare + ["--format", "csv"], compare + ["--emit-plot"]):
            with pytest.raises(SystemExit) as info:
                dispatch(argv)
            assert info.value.code == 1, argv

    def test_bad_window_exit_1(self):
        rc = dispatch(["sample", "--beta", "2", "--n", "4", "--matrices", "10",
                       "--window", "circle:0:1"])
        assert rc == 1
        # malformed numbers in a grid or window end in an error line, not a traceback
        for argv in (["density", "--ensemble", "real", "--n", "3", "--grid", "lin:0:1:abc"],
                     ["sample", "--beta", "2", "--n", "4", "--matrices", "10",
                      "--window", "real:a:1"],
                     ["analytic", "--ensemble", "real", "--n", "3",
                      "--t-grid", "log:1e-2:1e2:nan"]):
            assert dispatch(argv) == 1, argv

    @pytest.mark.parametrize("argv", [
        ["density", "--ensemble", "complex", "--n", "4", "--grid", "log:1e-1:inf:3"],
        ["analytic", "--ensemble", "complex", "--n", "4", "--abs-z", "0.5",
         "--t-grid", "log:1e-1:inf:3"],
        ["density", "--ensemble", "real", "--n", "3", "--grid", "lin:-inf:1:3"]],
        ids=["density", "analytic", "lin"])
    def test_infinite_grid_bound_exit_1(self, argv, capsys):
        # an infinite bound is rejected before a grid is built: no inf,nan rows,
        # no numpy RuntimeWarning, and an error line that names the grid
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert dispatch(argv) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: grid bounds must be finite" in err and argv[-1] in err
        assert "Traceback" not in err and "RuntimeWarning" not in err

    def test_no_command_exit_1(self):
        assert dispatch([]) == 1
