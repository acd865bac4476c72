import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from crowdfuse import cli
from crowdfuse.cli import main
from crowdfuse.panel import (
    FORECAST_HEADER,
    REALIZATION_HEADER,
    VINTAGE_HEADER,
    add_quarters,
    period_end_month,
)

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


PANEL_FILES = ("forecasts.csv", "realizations.csv", "vintages.csv")


def edited_golden_texts(edits):
    """The golden file panel's three texts, by file name, with whole lines replaced.

    ``edits`` maps a file name to (old line, new line) pairs; each old line
    must be in the file.
    """
    golden = ROOT / "tests" / "data" / "golden" / "files"
    texts = {}
    for name in PANEL_FILES:
        text = (golden / name).read_text(encoding="utf-8")
        for old, new in edits.get(name, ()):
            assert old + "\n" in text
            text = text.replace(old + "\n", new + "\n")
        texts[name] = text
    return texts


def panel_inputs(directory, texts):
    """Input flags for the panel files of ``texts``, written into ``directory``:
    a ``str`` as UTF-8, ``bytes`` as they are."""
    inputs = []
    for name in PANEL_FILES:
        text = texts[name]
        (Path(directory) / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        inputs += [f"--{name[:-5]}", str(Path(directory) / name)]
    return inputs


def edited_golden_panel(tmp_path, edits):
    """Input flags for a copy of the golden file panel with whole lines replaced."""
    return panel_inputs(tmp_path, edited_golden_texts(edits))


def assert_reports_finite(out_dir):
    """Every number field of every report CSV of ``out_dir`` is finite or empty."""
    names = sorted(os.listdir(out_dir))
    assert names
    for name in names:
        with open(Path(out_dir) / name, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        numbers = [i for i, column in enumerate(header) if column not in ("variable", "rule")]
        for row in rows:
            assert len(row) == len(header), (name, row)
            for i in numbers:
                assert row[i] == "" or math.isfinite(float(row[i])), (name, row)


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
        # a count numpy's binomial cannot draw, though count * unit is small
        (["--p", "0.8", "--C", "10000000000000000000000", "--v", "1e-30", "--t", "0"],
         "count must be at most 2**53"),
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
    def test_unknown_kind_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([
                "theory", "--kind", "banana", "--seed", "1",
                "--out", str(tmp_path / "g.csv"),
            ])
        assert err.value.code == 2
        # the choices, sorted; argparse quotes them or not, by version
        assert re.search("ew-kfu.*kfu-kfc.*sr-kfu", capsys.readouterr().err)

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

    @pytest.mark.parametrize("case", ["forecasts", "realizations", "vintages", "config"])
    def test_not_utf8_names_file_and_line(self, tmp_path, capsys, case):
        # a text read fails a chunk past the line it has reached, so the line is the bad byte's
        texts = edited_golden_texts({})
        if case == "forecasts":  # CRLF lines, and the bad byte, in an id, past the first 8 KB
            rows = [",".join(FORECAST_HEADER)] + [f"2001Q1,GDP,1,F{i},1.0" for i in range(700)]
            texts["forecasts.csv"] = "\r\n".join(rows + ["2001Q1,GDP,1,F\xe9,1.0", ""]).encode("latin-1")
            line = 702
        elif case == "realizations":  # a quoted line feed and a quoted lone CR end lines too
            texts["realizations.csv"] = texts["realizations.csv"].replace("vintage\n", (
                'vintage\n2000Q1,"G\nDP",1.0,2000Q2\n2000Q2,"G\rDP",1.0,2000Q3\n2000Q3,G\xe9DP,1.0,2000Q4\n'
            ), 1).encode("latin-1")
            line = 6
        elif case == "vintages":
            texts["vintages.csv"] = texts["vintages.csv"].encode("utf-16")
            line = 1
        if case == "config":  # a latin-1 byte in a comment
            path = tmp_path / "gen.cfg"
            path.write_bytes("num_forecasters = 4\nnum_surveys = 10\n# p\xe9 = 0.8\n".encode("latin-1"))
            inputs, line = ["--synthetic", str(path), "--seed", "1"], 3
        else:
            inputs = panel_inputs(tmp_path, texts)
            path = tmp_path / f"{case}.csv"
        out_dir = tmp_path / "r"
        assert main(["backtest", *inputs, "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"crowdfuse: error: {path}:{line}: not UTF-8 text\n"
        assert not (out_dir / "rmse.csv").exists()

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

    @pytest.mark.parametrize("horizons", ["x", "9", "1,9", "1,", ""])
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
        assert "unknown rule 'bogus', expected subset of ewm,kf,cwm,kfplus" in capsys.readouterr().err
        assert not out_dir.exists()


# ---------------------------------------------------------------------------
# File-level totality
# ---------------------------------------------------------------------------

# magnitudes from 1e-300 to 1e300, of both signs; the loader rejects those past 1e50
MAGNITUDES = st.builds(
    lambda sign, mantissa, exponent: float(f"{sign}{mantissa}e{exponent}"),
    st.sampled_from("+-"), st.integers(1, 9), st.integers(-300, 300),
)
NUMBERS = st.one_of(st.floats(-20.0, 20.0), st.just(0.0), MAGNITUDES)
LEVELS = st.one_of(st.floats(50.0, 150.0), NUMBERS)  # zero and tiny bases among them
# a stamp by its place around its period's end: inside, on it (two spellings, a
# tie), in the next quarter (its first month, or its end in two spellings, a tie),
# two quarters on
STAMPS = ("inside", "end", "end-month", "next-month", "next", "next-end", "late")
RARELY = st.sampled_from([False] * 9 + [True])
# a period's reports, most often one or two after its end, rarely none
REPORTS = st.one_of(
    st.lists(st.sampled_from(STAMPS[3:]), min_size=1, max_size=2, unique=True),
    st.lists(st.sampled_from(STAMPS), max_size=3, unique=True),
)


def stamp(period, kind):
    """A vintage stamp of ``period``, of one of the ``STAMPS`` kinds."""
    year, month = period_end_month(period)
    later = add_quarters(period, 1)
    next_year, next_end = period_end_month(later)
    return {
        "inside": f"{year:04d}-{month - 1:02d}",
        "end": period,
        "end-month": f"{year:04d}-{month:02d}-30",
        "next-month": f"{next_year:04d}-{next_end - 2:02d}-01",
        "next": later,
        "next-end": f"{next_year:04d}-{next_end:02d}",
        "late": add_quarters(period, 2),
    }[kind]


def csv_text(header, rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


@st.composite
def corrupted(draw, rows):
    """``rows`` with rows of the wrong width between them, each cut from or grown
    out of an earlier row so that its strings are memoised, and maybe one repeated key."""
    rows = list(rows)
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        at = draw(st.integers(1, len(rows)))
        row = rows[draw(st.integers(0, at - 1))]
        rows.insert(at, row[:-1] if draw(st.booleans()) else row + row[-1:])
    if rows and draw(RARELY):
        row = list(draw(st.sampled_from(rows)))
        if len(row) == 5:  # a forecast's key with a new value
            row[-1] = repr(draw(NUMBERS))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


@st.composite
def panel_texts(draw):
    """Three panel files of one or two variables (quoted names among them) over
    surveys from 2000Q1: levels and forecasts of any magnitude, zero and missing
    bases, stamps before, on and after the period end with ties, constant vintage
    series, rows of the wrong width and repeated keys."""
    names = draw(st.lists(st.sampled_from(["GDP", "UNEMP", "G,DP", 'Q"T']),
                          min_size=1, max_size=2, unique=True))
    n_surveys = draw(st.integers(1, 10))
    horizons = range(1, draw(st.integers(1, 3)) + 1)
    pool = [f"F{i}" for i in range(draw(st.integers(1, 4)))]
    forecasts, realizations, vintages = [], [], []
    for name in names:
        constant = draw(LEVELS) if draw(RARELY) else None
        for t in range(n_surveys + len(horizons) + 3):  # four quarters of bases first
            period = add_quarters("1999Q1", t)
            level = draw(LEVELS)
            for kind in draw(REPORTS):
                realizations.append([period, name, repr(level), stamp(period, kind)])
            for kind in draw(REPORTS):
                revised = level if constant is None else constant
                vintages.append([stamp(period, kind), name, period, repr(revised)])
        for s in range(n_surveys):
            for h in horizons:
                for j in draw(st.lists(st.sampled_from(pool), min_size=1, unique=True)):
                    value = draw(st.one_of(st.floats(-20.0, 20.0), NUMBERS))
                    forecasts.append([add_quarters("2000Q1", s), name, str(h), j, repr(value)])
    return {
        "forecasts.csv": csv_text(FORECAST_HEADER, draw(corrupted(forecasts))),
        "realizations.csv": csv_text(REALIZATION_HEADER, draw(corrupted(realizations))),
        "vintages.csv": csv_text(VINTAGE_HEADER, draw(corrupted(vintages))),
    }


GOLDEN_TEXTS = edited_golden_texts({})


class TestFileTotality:
    COMMANDS = (["backtest"], ["sweep", "--n-min", "1", "--n-max", "3"])

    @given(texts=panel_texts())
    @example(texts={**GOLDEN_TEXTS,  # a latin-1 byte in an id
                    "forecasts.csv": GOLDEN_TEXTS["forecasts.csv"].replace(",A,", ",\xc9,").encode("latin-1")})
    @example(texts={**GOLDEN_TEXTS, "vintages.csv": GOLDEN_TEXTS["vintages.csv"].encode("utf-16")})
    @example(texts={**GOLDEN_TEXTS,  # 0xff inside a quoted field
                    "realizations.csv": GOLDEN_TEXTS["realizations.csv"].encode("utf-8").replace(
                        b"2000Q1,GDP,100.0,", b'2000Q1,"G\xffDP",100.0,')})
    @example(texts=edited_golden_texts(TestMagnitudeBound.CASES["huge_forecast"][0]))
    @example(texts=edited_golden_texts(TestMagnitudeBound.CASES["tiny_base_level"][0]))
    @example(texts=edited_golden_texts(scaled_unemp(1e-150)))
    @example(texts=edited_golden_texts(scaled_unemp(1e-170)))
    @settings(max_examples=150, deadline=None)
    def test_finite_reports_or_an_error_message(self, texts):
        # a run exits 0 with finite reports or 1 with a message; a traceback fails
        with tempfile.TemporaryDirectory() as directory:
            inputs = panel_inputs(directory, texts)
            for command in self.COMMANDS:
                out_dir = os.path.join(directory, command[0])
                err = io.StringIO()
                with redirect_stderr(err):
                    rc = main(command + inputs + ["--out-dir", out_dir])
                if rc == 0:
                    assert_reports_finite(out_dir)
                    event(f"{command[0]} finishes")
                else:
                    assert rc == 1 and err.getvalue().startswith("crowdfuse: error: "), \
                        err.getvalue()
                    event(f"{command[0]} exits 1")
