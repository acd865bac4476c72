import logging
import random

import numpy as np
import pytest

import crowdfuse.panel as panel_module
from crowdfuse.panel import (
    CalibrationError,
    DuplicateRowError,
    MissingLevelError,
    MissingSeedError,
    Panel,
    SchemaError,
    SynthConfig,
    VintageRow,
    ZeroBaseError,
    add_quarters,
    asof_key,
    calibrate_v,
    calibration_series,
    load_panel,
    load_synth_config,
    parse_period,
    period_end_month,
    period_key,
    synth_panel,
    to_yearly_pct_change,
    write_panel,
)
from crowdfuse.quincunx import Judge, sample_estimate

FORECASTS = """survey,variable,horizon,forecaster_id,value
2000Q1,RGDP,1,alice,2.5
2000Q1,RGDP,1,bob,3.0
2000Q1,RGDP,1,carol,2.0
2000Q2,RGDP,1,alice,2.2
2000Q2,RGDP,1,bob,2.8
2000Q2,RGDP,1,carol,1.9
"""

REALIZATIONS = """target,variable,value,vintage
2000Q1,RGDP,104.0,2000Q2
2000Q2,RGDP,105.0,2000Q3
1999Q1,RGDP,100.0,1999Q2
1999Q2,RGDP,101.0,1999Q3
"""

VINTAGES = """asof,variable,period,level
2000Q2,RGDP,1999Q1,100.0
2000Q2,RGDP,1999Q2,101.0
2000Q2,RGDP,2000Q1,104.0
2000Q3,RGDP,2000Q2,105.0
"""


def write_inputs(tmp_path, forecasts=FORECASTS, realizations=REALIZATIONS, vintages=VINTAGES):
    f = tmp_path / "forecasts.csv"
    r = tmp_path / "realizations.csv"
    v = tmp_path / "vintages.csv"
    f.write_text(forecasts, encoding="utf-8")
    r.write_text(realizations, encoding="utf-8")
    v.write_text(vintages, encoding="utf-8")
    return str(f), str(r), str(v)


class TestPeriods:
    def test_parse_and_format(self):
        assert parse_period("2020Q3") == (2020, 3)
        assert add_quarters("2020Q3", 2) == "2021Q1"
        assert add_quarters("2020Q1", -4) == "2019Q1"
        assert period_key("2000Q2") > period_key("2000Q1")

    def test_bad_period(self):
        with pytest.raises(ValueError):
            parse_period("2020Q5")
        with pytest.raises(ValueError):
            parse_period("2020-01")

    def test_asof_key_formats(self):
        assert asof_key("2020Q1") == (2020, 3)
        assert asof_key("2020-04-15") == (2020, 4)
        assert asof_key("2020-04") == (2020, 4)
        with pytest.raises(ValueError):
            asof_key("April 2020")


class TestPctChange:
    def test_basic(self):
        levels = {"2019Q1": 100.0, "2020Q1": 110.0}
        assert to_yearly_pct_change(levels, "2020Q1") == pytest.approx(10.0)

    def test_flat_series(self):
        levels = {"2019Q1": 104.0, "2020Q1": 104.0}
        assert to_yearly_pct_change(levels, "2020Q1") == 0.0

    def test_unemployment_passthrough(self):
        # UNEMP is already in percent: its first reports come back as raw levels
        unemp = {"2019Q1": 3.8, "2019Q2": 3.6, "2020Q1": 4.4, "2020Q2": 13.0}
        rgdp = {"2019Q1": 100.0, "2020Q1": 110.0}
        vintages = tuple(
            VintageRow(add_quarters(period, 1), variable, period, level)
            for variable, levels in (("UNEMP", unemp), ("RGDP", rgdp))
            for period, level in levels.items()
        )
        series = calibration_series(Panel((), (), vintages, transform="yearly_pct"))
        assert series["UNEMP"] == list(unemp.values())
        assert series["RGDP"] == pytest.approx([10.0])

    def test_missing_lag(self):
        with pytest.raises(MissingLevelError):
            to_yearly_pct_change({"2020Q1": 110.0}, "2020Q1")

    def test_zero_base(self):
        with pytest.raises(ZeroBaseError):
            to_yearly_pct_change({"2019Q1": 0.0, "2020Q1": 1.0}, "2020Q1")


class TestCalibration:
    def test_examples(self):
        calib = calibrate_v({"A": [0.0, 10.0], "B": [-2.0, 0.0, 8.0]})
        assert calib.count == 1
        assert calib.unit_by_variable["A"] == 5.0
        assert calib.unit_by_variable["B"] == 6.0
        assert calib.pair("A") == (1, 5.0)

    def test_degenerate(self):
        with pytest.raises(CalibrationError):
            calibrate_v({"A": []})
        with pytest.raises(CalibrationError):
            calibrate_v({"A": [3.0, 3.0, 3.0]})

    def test_matches_exhaustive_scan(self):
        rng = random.Random(51)
        for _ in range(20):
            series = [rng.uniform(-10, 10) for _ in range(rng.randint(2, 40))]
            calib = calibrate_v({"X": series})
            norm = sum(series) / len(series)
            best = 0.0
            for x in series:
                best = max(best, abs(x - norm))
            assert calib.unit_by_variable["X"] == best


class TestLoadPanel:
    def test_small_fixture(self, tmp_path):
        panel = load_panel(*write_inputs(tmp_path))
        assert len(panel.forecasts) == 6
        assert panel.surveys == ("2000Q1", "2000Q2")
        assert panel.variables == frozenset({"RGDP"})
        assert panel.forecasts_at("2000Q1", "RGDP", 1) == {
            "alice": 2.5, "bob": 3.0, "carol": 2.0,
        }

    def test_realized_value_uses_first_report_and_lag(self, tmp_path):
        panel = load_panel(*write_inputs(tmp_path))
        assert panel.realization("RGDP", "2000Q1")[0] == pytest.approx(4.0)
        assert panel.realization("RGDP", "2000Q2")[0] == pytest.approx(105.0 / 101.0 * 100 - 100)
        assert panel.realization("RGDP", "2001Q1") is None

    def test_first_vintage_wins(self, tmp_path):
        realizations = (
            "target,variable,value,vintage\n"
            "1999Q1,UNEMP,9.9,2001Q1\n"
            "1999Q1,UNEMP,5.0,1999Q2\n"
        )
        forecasts = "survey,variable,horizon,forecaster_id,value\n1999Q1,UNEMP,1,a,5.0\n"
        panel = load_panel(*write_inputs(tmp_path, forecasts=forecasts, realizations=realizations))
        assert panel.realization("UNEMP", "1999Q1") == (5.0, period_end_month("1999Q2"))

    def test_asof_gating(self, tmp_path):
        realizations = (
            "target,variable,value,vintage\n"
            "1999Q1,UNEMP,5.0,2000Q4\n"
        )
        forecasts = "survey,variable,horizon,forecaster_id,value\n1999Q1,UNEMP,1,a,5.0\n"
        panel = load_panel(*write_inputs(tmp_path, forecasts=forecasts, realizations=realizations))
        value, known_by = panel.realization("UNEMP", "1999Q1")
        assert value == 5.0
        # unknown to a survey in 1999Q3, known to one in 2000Q4
        assert known_by > period_end_month("1999Q3")
        assert known_by <= period_end_month("2000Q4")

    def test_stamp_before_period_end_dropped(self, tmp_path, caplog):
        realizations = (
            "target,variable,value,vintage\n"
            "1999Q1,UNEMP,5.0,1999Q1\n"
        )
        forecasts = "survey,variable,horizon,forecaster_id,value\n1999Q1,UNEMP,1,a,5.0\n"
        with caplog.at_level(logging.WARNING):
            panel = load_panel(*write_inputs(tmp_path, forecasts=forecasts, realizations=realizations))
        assert panel.realization("UNEMP", "1999Q1") is None
        assert any("no stamp after period end" in r.message for r in caplog.records)

    def test_duplicate_forecast_rows(self, tmp_path):
        bad = FORECASTS + "2000Q1,RGDP,1,alice,9.9\n"
        with pytest.raises(DuplicateRowError) as err:
            load_panel(*write_inputs(tmp_path, forecasts=bad))
        assert "lines 2 and 8" in str(err.value)

    def test_header_mismatch(self, tmp_path):
        bad = FORECASTS.replace("forecaster_id", "judge")
        with pytest.raises(SchemaError):
            load_panel(*write_inputs(tmp_path, forecasts=bad))

    def test_empty_forecast_file_warns(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            panel = load_panel(
                *write_inputs(tmp_path, forecasts="survey,variable,horizon,forecaster_id,value\n")
            )
        assert panel.forecasts == ()
        assert any("no forecast rows" in r.message for r in caplog.records)

    def test_bad_rows_rejected_with_line_numbers(self, tmp_path, caplog):
        bad = FORECASTS + (
            "2000Q3,RGDP,7,dave,1.0\n2000Q9,RGDP,1,dave,1.0\n2000Q3,RGDP,1,dave,oops\n"
            "2000Q3,RGDP,1,erin,nan\n2000Q3,RGDP,1,frank,inf\n2000Q3,RGDP,1,grace,-inf\n"
        )
        bad_r = REALIZATIONS + "2000Q3,RGDP,nan,2000Q4\n2000Q4,RGDP,inf,2001Q1\n2001Q1,RGDP,-inf,2001Q2\n"
        bad_v = VINTAGES + "2000Q3,RGDP,1999Q3,nan\n2000Q3,RGDP,1999Q4,inf\n2000Q3,RGDP,2000Q3,-inf\n"
        with caplog.at_level(logging.WARNING):
            panel = load_panel(*write_inputs(tmp_path, bad, bad_r, bad_v))
        assert len(panel.forecasts) == 6
        assert len(panel.realizations) == 4
        assert len(panel.vintages) == 4
        messages = "\n".join(r.message for r in caplog.records)
        for line in range(8, 14):
            assert f"forecasts.csv:{line}:" in messages
        for name in ("realizations.csv", "vintages.csv"):
            for line in (6, 7, 8):
                assert f"{name}:{line}:" in messages
        assert messages.count("non-finite number") == 9
        assert messages.count("row rejected") == 12


class TestRoundtrip:
    def test_canonical_fixture_reproduced_byte_identically(self, tmp_path):
        # the fixtures above are already in canonical form (repr floats),
        # so loading and writing must reproduce them exactly
        inputs = write_inputs(tmp_path)
        panel = load_panel(*inputs)
        out = (tmp_path / "f1.csv", tmp_path / "r1.csv", tmp_path / "v1.csv")
        write_panel(panel, *(str(p) for p in out))
        for written, original in zip(out, inputs):
            with open(original, "rb") as fh:
                assert written.read_bytes() == fh.read()

    def test_write_load_write_stable(self, tmp_path):
        panel = load_panel(*write_inputs(tmp_path))
        first = (tmp_path / "f1.csv", tmp_path / "r1.csv", tmp_path / "v1.csv")
        write_panel(panel, *(str(p) for p in first))
        again = load_panel(*(str(p) for p in first))
        second = (tmp_path / "f2.csv", tmp_path / "r2.csv", tmp_path / "v2.csv")
        write_panel(again, *(str(p) for p in second))
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_synthetic_roundtrip(self, tmp_path):
        panel = synth_panel(SynthConfig(num_forecasters=4, num_surveys=6, seed=9, horizons=2))
        paths = [str(tmp_path / n) for n in ("f.csv", "r.csv", "v.csv")]
        write_panel(panel, *paths)
        loaded = load_panel(*paths, transform="none")
        assert loaded.forecasts == panel.forecasts
        assert loaded.realizations == panel.realizations
        assert loaded.vintages == panel.vintages


class TestSynthPanel:
    def test_zero_turnover_constant_roster(self):
        panel = synth_panel(SynthConfig(num_forecasters=5, num_surveys=8, seed=1))
        rosters = {}
        for row in panel.forecasts:
            rosters.setdefault(row.survey, set()).add(row.forecaster_id)
        assert all(r == rosters[panel.surveys[0]] for r in rosters.values())
        assert len(rosters[panel.surveys[0]]) == 5

    def test_perfect_judges_hit_realizations(self):
        config = SynthConfig(
            num_forecasters=4, num_surveys=6, seed=2, p_dist="const", p_value=1.0,
            horizons=2,
        )
        panel = synth_panel(config)
        for row in panel.forecasts:
            target = add_quarters(row.survey, row.horizon - 1)
            assert row.value == panel.realization(row.variable, target)[0]

    def test_reproducible(self):
        config = SynthConfig(num_forecasters=6, num_surveys=10, seed=3, turnover=0.2)
        assert synth_panel(config).forecasts == synth_panel(config).forecasts
        other = SynthConfig(num_forecasters=6, num_surveys=10, seed=4, turnover=0.2)
        assert synth_panel(other).forecasts != synth_panel(config).forecasts

    def test_median_tenure_sanity(self):
        # annualized turnover 0.22 with quarterly exits: the typical stay
        # should sit in the low teens of surveys
        panel = synth_panel(SynthConfig(num_forecasters=36, num_surveys=200, seed=0, turnover=0.22))
        tenure: dict[str, set] = {}
        for row in panel.forecasts:
            tenure.setdefault(row.forecaster_id, set()).add(row.survey)
        med = float(np.median(sorted(len(s) for s in tenure.values())))
        assert 11 <= med <= 18

    def test_calibration_series_uses_realized_values(self):
        panel = synth_panel(SynthConfig(num_forecasters=3, num_surveys=12, seed=5))
        series = calibration_series(panel)
        realized = [panel.realization("SYN", s)[0] for s in panel.surveys]
        assert series["SYN"] == pytest.approx(realized)
        calib = calibrate_v(series)
        assert calib.unit_by_variable["SYN"] > 0.0

    @pytest.mark.parametrize("config", [
        SynthConfig(num_forecasters=9, num_surveys=25, seed=11, horizons=3, turnover=0.3),
        SynthConfig(num_forecasters=9, num_surveys=25, seed=12, horizons=4, turnover=0.2,
                    p_dist="uniform", p_low=0.55, p_high=1.0, p_decay=0.05),
        SynthConfig(num_forecasters=9, num_surveys=25, seed=13, horizons=2, turnover=0.1,
                    p_dist="two_point", p_low=0.6, p_high=0.97, count=7, unit=0.5),
    ], ids=["const", "uniform", "two_point"])
    def test_roster_draws_match_per_row_reference(self, config, monkeypatch):
        # one rng.random((roster, count)) per (survey, horizon) consumes the
        # stream as one sample_estimate per row did, so the panels are equal
        batched = synth_panel(config)
        monkeypatch.setattr(
            panel_module,
            "sample_estimate_each",
            lambda ps, env, rng: [sample_estimate(Judge(p), env, rng) for p in ps],
        )
        per_row = synth_panel(config)
        assert batched.forecasts == per_row.forecasts
        assert batched.realizations == per_row.realizations

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(num_forecasters=0, num_surveys=5, seed=1)
        with pytest.raises(ValueError):
            SynthConfig(num_forecasters=2, num_surveys=5, seed=1, turnover=1.0)
        with pytest.raises(ValueError):
            SynthConfig(num_forecasters=2, num_surveys=5, seed=1, p_value=0.4)
        with pytest.raises(ValueError):
            SynthConfig(num_forecasters=2, num_surveys=5, seed=1, p_dist="beta")


class TestSynthConfigFile:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text(
            "# demo generator\n"
            "num_forecasters = 8\n"
            "num_surveys = 20\n"
            "seed = 7\n"
            "turnover = 0.1\n"
            "p_dist = two_point\n"
            "\n",
            encoding="utf-8",
        )
        config = load_synth_config(str(path))
        assert config.num_forecasters == 8
        assert config.turnover == 0.1
        assert config.p_dist == "two_point"

    def test_seed_override_wins(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text("num_forecasters = 3\nnum_surveys = 4\nseed = 7\n", encoding="utf-8")
        assert load_synth_config(str(path), seed_override=99).seed == 99

    def test_missing_seed(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text("num_forecasters = 3\nnum_surveys = 4\n", encoding="utf-8")
        with pytest.raises(MissingSeedError):
            load_synth_config(str(path))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text("numforecasters = 3\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_synth_config(str(path))
