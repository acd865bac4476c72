import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crowdfuse import cli
from crowdfuse.cli import main

ROOT = Path(__file__).resolve().parents[1]

SYNTH_CFG = """# tiny demo panel
num_forecasters = 5
num_surveys = 14
p_dist = uniform
p_low = 0.7
p_high = 0.95
"""


def write_config(tmp_path, text=SYNTH_CFG):
    path = tmp_path / "gen.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def edited_golden_panel(tmp_path, edits):
    """Input flags for a copy of the golden file panel with whole lines replaced.

    ``edits`` maps a file name to (old line, new line) pairs; each old line
    must be in the file.
    """
    golden = ROOT / "tests" / "data" / "golden" / "files"
    inputs = []
    for name in ("forecasts.csv", "realizations.csv", "vintages.csv"):
        text = (golden / name).read_text(encoding="utf-8")
        for old, new in edits.get(name, ()):
            assert old + "\n" in text
            text = text.replace(old + "\n", new + "\n")
        (tmp_path / name).write_text(text, encoding="utf-8")
        inputs += [f"--{name[:-5]}", str(tmp_path / name)]
    return inputs


def assert_reports_finite(out_dir):
    """Every number in every report CSV of ``out_dir`` is finite."""
    names = sorted(os.listdir(out_dir))
    assert names
    for name in names:
        for line in (out_dir / name).read_text().splitlines()[1:]:
            for field in line.split(",")[1:]:
                if field not in ("", "EWM", "KF", "CWM", "KFplus"):
                    assert math.isfinite(float(field)), (name, line)


class TestStartup:
    def test_import_loads_no_scipy(self):
        # scipy is a test-only oracle; importing it would cost every command's start-up
        probe = (
            "import sys, crowdfuse.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", [["backtest"], ["sweep", "--n-min", "1", "--n-max", "6"]])
    def test_commands_load_no_numpy_ma(self, tmp_path, command):
        # numpy.ma takes tens of milliseconds to import, and no command needs it
        golden = ROOT / "tests" / "data" / "golden" / "files"
        argv = command + [
            arg for name in ("forecasts", "realizations", "vintages")
            for arg in (f"--{name}", str(golden / f"{name}.csv"))
        ] + ["--out-dir", str(tmp_path / "reports")]
        probe = (
            "import sys; from crowdfuse.cli import main; "
            f"rc = main({argv!r}); print(rc, 'numpy.ma' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0 False"


class TestHelp:
    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["simulate", "--help"], ["theory", "--help"],
         ["backtest", "--help"], ["sweep", "--help"]],
    )
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        assert "--" in capsys.readouterr().out


class TestSimulate:
    def test_perfect_judge_zero_deltas(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main([
            "simulate", "--p", "1", "--C", "5", "--v", "1", "--t", "3",
            "--samples", "1000", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "moment,analytic,sample,abs_error,tolerance"
        mean_row = lines[1].split(",")
        assert mean_row[0] == "mean"
        assert float(mean_row[1]) == 3.0 and float(mean_row[3]) == 0.0
        var_row = lines[2].split(",")
        assert float(var_row[1]) == 0.0 and float(var_row[2]) == 0.0
        assert len(lines) == 3  # no shape rows for a degenerate walk

    def test_moment_deltas_within_tolerance(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main([
            "simulate", "--p", "0.8", "--C", "20", "--v", "1", "--t", "4",
            "--samples", "200000", "--seed", "11", "--out", str(out),
        ])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["mean", "variance", "skewness", "kurtosis"]
        for row in rows:
            assert float(row[3]) < float(row[4])

    @pytest.mark.parametrize("samples", ["0", "-3", "many"])
    def test_samples_below_one_usage_error(self, tmp_path, capsys, samples):
        out = tmp_path / "sim.csv"
        with pytest.raises(SystemExit) as err:
            main([
                "simulate", "--p", "0.8", "--C", "5", "--v", "1", "--t", "1",
                "--samples", samples, "--seed", "1", "--out", str(out),
            ])
        assert err.value.code == 2
        assert "--samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, empty", [
        # one draw, and fifty draws that all agree (exactly, and only up to the mean's rounding)
        (["--p", "0.75", "--C", "4", "--v", "1", "--t", "0", "--samples", "1"],
         {"skewness", "kurtosis"}),
        (["--p", "0.999", "--C", "2", "--v", "1", "--t", "0", "--samples", "50"],
         {"skewness", "kurtosis"}),
        (["--p", "0.999", "--C", "2", "--v", "0.1", "--t", "0", "--norm", "0.3", "--samples", "50"],
         {"skewness", "kurtosis"}),
        # the fourth power of a 1e-100 spread underflows; the third does not
        (["--p", "0.75", "--C", "4", "--v", "1e-100", "--t", "0", "--samples", "100"],
         {"kurtosis"}),
    ])
    def test_sample_without_shape_leaves_fields_empty(self, tmp_path, flags, empty):
        out = tmp_path / "sim.csv"
        assert main(["simulate", *flags, "--seed", "1", "--out", str(out)]) == 0
        rows = {r[0]: r[1:] for r in csv.reader(out.read_text().splitlines()[1:])}
        assert list(rows) == ["mean", "variance", "skewness", "kurtosis"]
        for name, (analytic, sample, abs_error, tolerance) in rows.items():
            assert math.isfinite(float(analytic)) and math.isfinite(float(tolerance))
            if name in empty:
                assert (sample, abs_error) == ("", ""), name
            else:
                assert abs(float(sample) - float(analytic)) == float(abs_error), name
        if "skewness" in empty:
            assert float(rows["variance"][1]) == 0.0

    @pytest.mark.parametrize("flags, reason", [
        # an evidence unit whose walk variance would overflow doubles
        (["--p", "0.75", "--C", "4", "--v", "1e200", "--t", "0"], "count * unit must not exceed"),
        (["--p", "0.75", "--C", "4", "--v", "2.5e49", "--t", "0", "--norm=-1e51"],
         "norm must be finite and at most 1e+50"),
        (["--p", "0.75", "--C", "4", "--v", "1", "--t", "0", "--norm", "nan"],
         "norm must be finite"),
    ])
    def test_magnitude_past_bound_exits_one(self, tmp_path, capsys, flags, reason):
        out = tmp_path / "sim.csv"
        assert main(["simulate", *flags, "--samples", "100", "--seed", "1", "--out", str(out)]) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_magnitude_at_bound_is_finite(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--p", "0.75", "--C", "4", "--v", "2.5e49", "--t", "0",
                     "--norm", "1e50", "--samples", "100", "--seed", "1", "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()[1:]))
        assert [r[0] for r in rows] == ["mean", "variance", "skewness", "kurtosis"]
        assert all(math.isfinite(float(x)) for row in rows for x in row[1:])

    def test_missing_seed_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([
                "simulate", "--p", "0.8", "--C", "5", "--v", "1", "--t", "1",
                "--samples", "10", "--out", str(tmp_path / "x.csv"),
            ])
        assert err.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_refuses_overwrite(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        argv = [
            "simulate", "--p", "0.9", "--C", "4", "--v", "1", "--t", "0",
            "--samples", "100", "--seed", "3", "--out", str(out),
        ]
        assert main(argv) == 0
        assert main(argv) == 1
        assert "exists" in capsys.readouterr().err
        assert main(argv + ["--force"]) == 0

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main([
                "simulate", "--p", "0.75", "--C", "10", "--v", "0.5", "--t", "2",
                "--samples", "5000", "--seed", "123", "--out", str(out),
            ])
        assert a.read_bytes() == b.read_bytes()


class TestTheory:
    def test_unknown_kind_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "theory", "--kind", "banana", "--seed", "1",
                "--out", str(tmp_path / "g.csv"),
            ])
        assert err.value.code == 2

    def test_uncertainty_cost_grid_nonnegative(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main([
            "theory", "--kind", "kfu-kfc", "--resolution", "10", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p1,p2,analytic,mc_mean,mc_stderr,trials"
        assert len(lines) == 101
        for line in lines[1:]:
            p1, p2, analytic, mc_mean, mc_stderr, trials = line.split(",")
            assert float(analytic) >= 0.0
            assert (mc_mean, mc_stderr, trials) == ("", "", "0")

    def test_byte_reproducible(self, tmp_path):
        # --seed is still accepted, and the grid does not depend on it
        paths = [tmp_path / f"{n}.csv" for n in ("a", "b", "c")]
        for out, seed in zip(paths, (["--seed", "9"], ["--seed", "9"], [])):
            assert main([
                "theory", "--kind", "sr-kfu", "--resolution", "10", *seed, "--out", str(out),
            ]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


class TestBacktest:
    def test_synthetic_run(self, tmp_path):
        out_dir = tmp_path / "reports"
        rc = main([
            "backtest", "--synthetic", write_config(tmp_path),
            "--seed", "21", "--out-dir", str(out_dir),
        ])
        assert rc == 0
        rmse_lines = (out_dir / "rmse.csv").read_text().splitlines()
        assert rmse_lines[0] == "variable,horizon,rule,rmse,n_surveys"
        assert len(rmse_lines) == 5  # four rules on one cell
        assert (out_dir / "dm.csv").exists()
        assert (out_dir / "diagnostics.csv").exists()

    def test_synthetic_needs_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([
                "backtest", "--synthetic", write_config(tmp_path),
                "--out-dir", str(tmp_path / "r"),
            ])
        assert err.value.code == 2
        assert "seed" in capsys.readouterr().err

    def test_all_perfect_judges_zero_rmse(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "num_forecasters = 4\nnum_surveys = 10\np_dist = const\np_value = 1.0\n",
        )
        out_dir = tmp_path / "reports"
        assert main(["backtest", "--synthetic", cfg, "--seed", "2",
                     "--out-dir", str(out_dir)]) == 0
        for line in (out_dir / "rmse.csv").read_text().splitlines()[1:]:
            rmse = line.split(",")[3]
            assert rmse == "0.000000"

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            assert main(["backtest", "--synthetic", cfg, "--seed", "33",
                         "--out-dir", str(d)]) == 0
        for name in ("rmse.csv", "dm.csv", "diagnostics.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_tiny_base_level_drops_the_overflowing_change(self, tmp_path, caplog):
        # a base level of 1e-307 makes the next year's change overflow to inf;
        # the period is dropped with a warning instead of failing the run
        inputs = edited_golden_panel(tmp_path, {
            "realizations.csv": [("2000Q1,GDP,100.0,2000Q2", "2000Q1,GDP,1e-307,2000Q2")],
            "vintages.csv": [("2000Q2,GDP,2000Q1,100.0", "2000Q2,GDP,2000Q1,1e-307")],
        })
        out_dir = tmp_path / "reports"
        with caplog.at_level("WARNING"):
            assert main(["backtest"] + inputs + ["--out-dir", str(out_dir)]) == 0
        dropped = [r.getMessage() for r in caplog.records if "not finite" in r.getMessage()]
        # once from the realizations' table, once from the vintages' calibration table
        assert dropped == ["yearly change of GDP 2001Q1 is not finite; value dropped"] * 2
        assert_reports_finite(out_dir)

    def test_quoted_variable_keeps_report_widths(self, tmp_path):
        # a variable named G,DP is quoted in every report row, so each row parses
        # to its header's width
        golden = ROOT / "tests" / "data" / "golden" / "files"
        edits = {
            name: [(line, line.replace(",GDP,", ',"G,DP",'))
                   for line in (golden / name).read_text(encoding="utf-8").splitlines()
                   if ",GDP," in line]
            for name in ("forecasts.csv", "realizations.csv", "vintages.csv")
        }
        out_dir = tmp_path / "reports"
        inputs = edited_golden_panel(tmp_path, edits)
        assert main(["backtest"] + inputs + ["--out-dir", str(out_dir)]) == 0
        for name in ("rmse.csv", "dm.csv", "diagnostics.csv"):
            with open(out_dir / name, encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert {len(row) for row in rows} == {len(header)}, name
            assert {row[0] for row in rows} == {"G,DP", "UNEMP"}, name

    def test_file_mode_missing_inputs(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["backtest", "--out-dir", str(tmp_path / "r")])
        assert err.value.code == 2

    def test_variable_without_vintages_exits_one(self, tmp_path, capsys):
        inputs = edited_golden_panel(tmp_path, {})
        vintages = tmp_path / "vintages.csv"
        lines = vintages.read_text(encoding="utf-8").splitlines(keepends=True)
        vintages.write_text("".join(line for line in lines if ",UNEMP," not in line),
                            encoding="utf-8")
        assert main(["backtest", *inputs, "--out-dir", str(tmp_path / "r")]) == 1
        assert "no vintage data to calibrate variables: ['UNEMP']" in capsys.readouterr().err

    def test_rules_subset_and_unknown(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "r"
        assert main(["backtest", "--synthetic", cfg, "--seed", "4",
                     "--rules", "ewm,kf", "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "rmse.csv").read_text().splitlines()[1:]
        assert {line.split(",")[2] for line in lines} == {"EWM", "KF"}
        with pytest.raises(SystemExit) as err:
            main(["backtest", "--synthetic", cfg, "--seed", "4",
                  "--rules", "ewm,magic", "--out-dir", str(tmp_path / "q"),
                  "--force"])
        assert err.value.code == 2

    def test_schema_error_exits_one(self, tmp_path, capsys):
        f = tmp_path / "f.csv"
        f.write_text("wrong,header\n", encoding="utf-8")
        r = tmp_path / "r.csv"
        r.write_text("target,variable,value,vintage\n", encoding="utf-8")
        v = tmp_path / "v.csv"
        v.write_text("asof,variable,period,level\n", encoding="utf-8")
        rc = main([
            "backtest", "--forecasts", str(f), "--realizations", str(r),
            "--vintages", str(v), "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "header" in capsys.readouterr().err


def scaled_unemp(scale):
    """Edits of the golden file panel that multiply every UNEMP value by ``scale``."""
    golden = ROOT / "tests" / "data" / "golden" / "files"
    edits = {}
    for name, column in (("forecasts.csv", 4), ("realizations.csv", 2), ("vintages.csv", 3)):
        for line in (golden / name).read_text(encoding="utf-8").splitlines()[1:]:
            fields = line.split(",")
            if fields[1] == "UNEMP":
                fields[column] = repr(float(fields[column]) * scale)
                edits.setdefault(name, []).append((line, ",".join(fields)))
    return edits


class TestMagnitudeBound:
    """Values whose squared errors would overflow or underflow never reach the engine.

    The loader rejects a forecast of 1e155, and the first-report table drops
    the yearly change of about 1e202 that a base level of 1e-200 gives. Both
    runs finish, with every reported number finite. A variable whose
    evidence unit is below 1e-50 fails calibration with a message naming it.
    """

    CASES = {
        "huge_forecast": (
            {"forecasts.csv": [("2001Q1,GDP,1,B,4.3", "2001Q1,GDP,1,B,1e155")]},
            "forecasts.csv:3: number '1e155' exceeds 1e+50 in magnitude; row rejected",
        ),
        "tiny_base_level": (
            {"realizations.csv": [("2000Q1,GDP,100.0,2000Q2", "2000Q1,GDP,1e-200,2000Q2")],
             "vintages.csv": [("2000Q2,GDP,2000Q1,100.0", "2000Q2,GDP,2000Q1,1e-200")]},
            "yearly change of GDP 2001Q1 exceeds 1e+50; value dropped",
        ),
    }
    COMMANDS = {
        "backtest": ["backtest"],
        "sweep": ["sweep", "--n-min", "1", "--n-max", "6"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_finishes_with_finite_reports(self, tmp_path, caplog, case, command):
        edits, message = self.CASES[case]
        inputs = edited_golden_panel(tmp_path, edits)
        out_dir = tmp_path / "reports"
        with caplog.at_level("WARNING"):
            assert main(self.COMMANDS[command] + inputs + ["--out-dir", str(out_dir)]) == 0
        assert any(r.getMessage().endswith(message) for r in caplog.records)
        assert_reports_finite(out_dir)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("scale", [1e-150, 1e-170])
    def test_tiny_unit_fails_calibration(self, tmp_path, capsys, scale, command):
        inputs = edited_golden_panel(tmp_path, scaled_unemp(scale))
        argv = self.COMMANDS[command] + inputs + ["--out-dir", str(tmp_path / "reports")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"crowdfuse: error: UNEMP: evidence unit \S+ is below 1e-50\n", err)


class TestSweep:
    def test_invalid_range(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "sweep", "--synthetic", write_config(tmp_path), "--seed", "5",
                "--n-min", "4", "--n-max", "2", "--out-dir", str(tmp_path / "r"),
            ])
        assert err.value.code == 2

    def test_small_sweep(self, tmp_path):
        out_dir = tmp_path / "r"
        rc = main([
            "sweep", "--synthetic", write_config(tmp_path), "--seed", "6",
            "--n-min", "2", "--n-max", "5", "--out-dir", str(out_dir),
        ])
        assert rc == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "horizon,rule,n_included,rmse"
        sizes = {int(line.split(",")[2]) for line in lines[1:]}
        assert sizes == {2, 3, 4, 5}


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["backtest", "sweep"])
    @pytest.mark.parametrize("window", ["0", "-1", "-500"])
    def test_window_below_one(self, tmp_path, capsys, command, window):
        out_dir = tmp_path / "r"
        argv = [command, "--synthetic", write_config(tmp_path), "--seed", "5",
                "--window", window, "--out-dir", str(out_dir)]
        if command == "sweep":
            argv += ["--n-min", "1", "--n-max", "3"]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "--window" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("horizons", ["x", "9", "1,9", "1,"])
    def test_sweep_horizons_not_in_panel(self, tmp_path, capsys, horizons):
        cfg = write_config(tmp_path, SYNTH_CFG + "horizons = 2\n")
        out_dir = tmp_path / "r"
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--synthetic", cfg, "--seed", "6", "--n-min", "2", "--n-max", "3",
                  "--horizons", horizons, "--out-dir", str(out_dir)])
        assert err.value.code == 2
        assert "horizons 1,2" in capsys.readouterr().err
        assert not (out_dir / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["backtest", "sweep"])
    @pytest.mark.parametrize("flags, message", [
        (["--forecasts", "F", "--realizations", "F", "--vintages", "F", "--seed", "1"],
         "--seed seeds the generator and needs --synthetic"),
        (["--synthetic", "F", "--seed", "1", "--forecasts", "F"], "--synthetic cannot be combined"),
        (["--synthetic", "F", "--realizations", "F"], "--synthetic cannot be combined"),
        (["--synthetic", "F", "--vintages", "F"], "--synthetic cannot be combined"),
        (["--forecasts", "F", "--realizations", "F"], "either --synthetic or all of"),
    ])
    def test_ignored_input_flags_before_any_work(self, tmp_path, capsys, monkeypatch, command,
                                                 flags, message):
        def no_reading(*args, **kwargs):
            raise AssertionError("input read before the input flags were checked")

        monkeypatch.setattr(cli, "load_panel", no_reading)
        monkeypatch.setattr(cli, "load_synth_config", no_reading)
        out_dir = tmp_path / "r"
        missing = str(tmp_path / "absent.csv")
        argv = [command, *[missing if f == "F" else f for f in flags], "--out-dir", str(out_dir)]
        if command == "sweep":
            argv += ["--n-min", "1", "--n-max", "3"]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["backtest", "sweep"])
    @pytest.mark.parametrize("inputs", ["files", "synthetic"])
    def test_unknown_rule_before_any_work(self, tmp_path, capsys, monkeypatch, command, inputs):
        def no_reading(*args, **kwargs):
            raise AssertionError("input read before the rules were checked")

        monkeypatch.setattr(cli, "load_panel", no_reading)
        monkeypatch.setattr(cli, "load_synth_config", no_reading)
        out_dir = tmp_path / "r"
        missing = str(tmp_path / "absent.csv")
        if inputs == "files":
            argv = ["--forecasts", missing, "--realizations", missing, "--vintages", missing]
        else:
            argv = ["--synthetic", missing, "--seed", "1"]
        argv = [command, *argv, "--rules", "bogus", "--out-dir", str(out_dir)]
        if command == "sweep":
            argv += ["--n-min", "1", "--n-max", "3"]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unknown rule 'bogus'" in capsys.readouterr().err
        assert not out_dir.exists()
