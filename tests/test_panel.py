import csv
import logging
import math
import os
import random
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crowdfuse.panel as panel_module
from crowdfuse.panel import (
    CalibrationError,
    DuplicateRowError,
    ForecastTable,
    MissingLevelError,
    MissingSeedError,
    Panel,
    PanelError,
    RealizationRow,
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


FILES = {"forecasts": FORECASTS, "realizations": REALIZATIONS, "vintages": VINTAGES}


def forecast_cells(rows):
    """(survey, variable, horizon) to {forecaster id: value}, from forecast rows."""
    cells = {}
    for survey, variable, horizon, forecaster, value in rows:
        cells.setdefault((survey, variable, horizon), {})[forecaster] = value
    return cells


def canonical(row):
    """The table order of a forecast row: variable, survey, horizon, forecaster id."""
    survey, variable, horizon, forecaster, _ = row
    return variable, survey, horizon, forecaster


def write_inputs(directory, forecasts=FORECASTS, realizations=REALIZATIONS, vintages=VINTAGES):
    paths = []
    for name, text in (("forecasts.csv", forecasts), ("realizations.csv", realizations),
                       ("vintages.csv", vintages)):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        paths.append(path)
    return tuple(paths)


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

    def test_bad_period_raises_on_every_call(self):
        # parse_period is memoized, but a failure is never cached
        for _ in range(3):
            with pytest.raises(PanelError, match="bad period"):
                parse_period("2000Q5")
        assert parse_period("2000Q4") == parse_period("2000Q4") == (2000, 4)

    def test_asof_key_formats(self):
        assert asof_key("2020Q1") == (2020, 3)
        assert asof_key("2020-04-15") == (2020, 4)
        assert asof_key("2020-04") == (2020, 4)
        assert asof_key("2020-12-31") == (2020, 12)
        assert asof_key("2020-01-01") == (2020, 1)
        for text in ("April 2020", "2020-13-01", "2020-00-15", "2020-99", "2020-00",
                     "2020-04-00", "2020-04-32", "2020-04-99"):
            with pytest.raises(ValueError, match="bad vintage stamp"):
                asof_key(text)


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
        series = calibration_series(
            Panel(ForecastTable.from_rows(()), (), vintages, transform="yearly_pct")
        )
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
        assert calib == {"A": 5.0, "B": 6.0}

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
            assert calib["X"] == best


class TestLoadPanel:
    def test_small_fixture(self, tmp_path):
        panel = load_panel(*write_inputs(tmp_path))
        assert len(panel.forecasts) == 6
        assert panel.surveys == ("2000Q1", "2000Q2")
        assert panel.variables == frozenset({"RGDP"})
        assert forecast_cells(panel.forecasts.rows())["2000Q1", "RGDP", 1] == {
            "alice": 2.5, "bob": 3.0, "carol": 2.0,
        }

    def test_forecasts_in_table_order(self, tmp_path):
        # rows out of order in the file come back, and are written, in table order
        lines = FORECASTS.splitlines()
        shuffled = [lines[0], "2000Q1,CPI,2,zed,1.25"] + lines[:0:-1] + ["1999Q4,RGDP,3,bob,0.5"]
        panel = load_panel(*write_inputs(tmp_path, forecasts="\n".join(shuffled) + "\n"))
        rows = panel.forecasts.rows()
        assert rows == sorted(rows, key=canonical)
        assert rows[0] == ("2000Q1", "CPI", 2, "zed", 1.25)
        assert rows[1] == ("1999Q4", "RGDP", 3, "bob", 0.5)
        assert all(type(x) is t for row in rows for x, t in zip(row, (str, str, int, str, float)))
        assert panel.surveys == ("1999Q4", "2000Q1", "2000Q2")
        assert panel.horizons("RGDP") == (1, 3)
        out = [str(tmp_path / n) for n in ("f.csv", "r.csv", "v.csv")]
        write_panel(panel, *out)
        with open(out[0], encoding="utf-8") as fh:
            written = fh.read().splitlines()
        assert written[0] == lines[0]
        assert written[1:] == [",".join(map(str, row[:4])) + f",{row[4]!r}" for row in rows]

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

    @pytest.mark.parametrize("name", FILES)
    def test_duplicate_rows(self, tmp_path, name):
        extra, message = {
            "forecasts": ("2000Q1,RGDP,1,alice,9.9\n",
                          "duplicate forecast ('2000Q1', 'RGDP', 1, 'alice') at lines 2 and 8"),
            "realizations": ("2000Q1,RGDP,9.9,2000Q2\n",
                             "duplicate realization ('2000Q1', 'RGDP', '2000Q2') at lines 2 and 6"),
            "vintages": ("2000Q2,RGDP,1999Q1,9.9\n",
                         "duplicate vintage ('2000Q2', 'RGDP', '1999Q1') at lines 2 and 6"),
        }[name]
        texts = dict(FILES)
        texts[name] += extra
        paths = write_inputs(tmp_path, **texts)
        with pytest.raises(DuplicateRowError) as err:
            load_panel(*paths)
        assert str(err.value) == f"{paths[list(FILES).index(name)]}: {message}"

    @pytest.mark.parametrize("name", FILES)
    def test_header_mismatch(self, tmp_path, name):
        old, new = {"forecasts": ("forecaster_id", "judge"), "realizations": ("vintage", "stamp"),
                    "vintages": ("level", "value")}[name]
        texts = dict(FILES)
        header = texts[name].split("\n", 1)[0]
        texts[name] = texts[name].replace(old, new, 1)
        paths = write_inputs(tmp_path, **texts)
        with pytest.raises(SchemaError) as err:
            load_panel(*paths)
        assert str(err.value) == (
            f"{paths[list(FILES).index(name)]}: header {header.replace(old, new)!r} "
            f"does not match {header!r}"
        )

    def test_empty_forecast_file_warns(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            panel = load_panel(
                *write_inputs(tmp_path, forecasts="survey,variable,horizon,forecaster_id,value\n")
            )
        assert len(panel.forecasts) == 0
        assert any("no forecast rows" in r.message for r in caplog.records)
        # the realization and vintage files follow the same rule
        headers = {name: text.split("\n", 1)[0] + "\n" for name, text in FILES.items()}
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            paths = write_inputs(tmp_path, **headers)
            load_panel(*paths)
        assert [r.message for r in caplog.records] == [
            f"{path}: no {what} rows"
            for path, what in zip(paths, ("forecast", "realization", "vintage"))
        ]

    def test_bad_rows_rejected_with_line_numbers(self, tmp_path, caplog):
        bad = FORECASTS + (
            "2000Q3,RGDP,7,dave,1.0\n2000Q9,RGDP,1,dave,1.0\n2000Q3,RGDP,1,dave,oops\n"
            "2000Q3,RGDP,1,erin,nan\n2000Q3,RGDP,1,frank,inf\n2000Q3,RGDP,1,grace,-inf\n"
        )
        bad_r = REALIZATIONS + (
            "2000Q3,RGDP,nan,2000Q4\n2000Q4,RGDP,inf,2001Q1\n2001Q1,RGDP,-inf,2001Q2\n"
            "2001Q2,RGDP,1.0,2001-13-01\n2001Q2,RGDP,1.0,2001-07-99\n"
        )
        bad_v = VINTAGES + (
            "2000Q3,RGDP,1999Q3,nan\n2000Q3,RGDP,1999Q4,inf\n2000Q3,RGDP,2000Q3,-inf\n"
            "2000-00-15,RGDP,1999Q3,1.0\n2000-99,RGDP,1999Q3,1.0\n"
        )
        with caplog.at_level(logging.WARNING):
            panel = load_panel(*write_inputs(tmp_path, bad, bad_r, bad_v))
        assert len(panel.forecasts) == 6
        assert len(panel.realizations) == 4
        assert len(panel.vintages) == 4
        messages = "\n".join(r.message for r in caplog.records)
        for line in range(8, 14):
            assert f"forecasts.csv:{line}:" in messages
        for name in ("realizations.csv", "vintages.csv"):
            for line in (6, 7, 8, 9, 10):
                assert f"{name}:{line}:" in messages
        assert messages.count("non-finite number") == 9
        assert messages.count("bad vintage stamp") == 4
        assert messages.count("row rejected") == 16


# survey, horizon and value strings that repeat across rows, valid and not
ORACLE_SURVEYS = ["2000Q1", "2000Q2", "2001Q4", "1999Q3", "2000Q5", "2000q1", "00Q1"]
ORACLE_HORIZONS = ["1", "2", "5", " 3", "0", "6", "-1", "x", "1.5"]
ORACLE_VALUES = ["1.5", "-0.25", "3", "1e-3", "nan", "inf", "-inf", "oops", ""]

oracle_lines = st.one_of(
    st.tuples(
        st.sampled_from(ORACLE_SURVEYS), st.sampled_from(["X", "Y"]),
        st.sampled_from(ORACLE_HORIZONS), st.sampled_from(ORACLE_VALUES),
    ),
    st.just(()),                                        # a blank line
    st.sampled_from([1, 2, 4, 6]),                      # a record of the wrong width
)


def oracle_text(lines, unique_ids):
    """A forecast file: each tuple is a row, () a blank line, an int a record that wide.

    With ``unique_ids`` every row has its own forecaster, so no key repeats;
    otherwise ids come from two, and duplicates are likely.
    """
    out = ["survey,variable,horizon,forecaster_id,value"]
    for i, line in enumerate(lines):
        if isinstance(line, int):
            out.append(",".join(["z"] * line))
        elif not line:
            out.append("")
        else:
            survey, variable, horizon, value = line
            forecaster = f"f{i}" if unique_ids else "ab"[i % 2]
            out.append(f"{survey},{variable},{horizon},{forecaster},{value}")
    return "\n".join(out) + "\n"


def oracle_load(path):
    """Straight-line, row-by-row reference of the forecast loader.

    Returns the accepted rows, the warning messages in order, and the
    duplicate error message (or None); rows after a duplicate are not read.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))[1:]
    rows, messages, first_line = [], [], {}
    width_ok = False
    for line_no, record in enumerate(records, start=2):
        if not record:
            continue
        if len(record) != 5:
            messages.append(f"{path}:{line_no}: expected 5 columns, got {len(record)}; row rejected")
            continue
        width_ok = True
        survey, variable, horizon_s, forecaster, value_s = record
        reason = None
        if not re.fullmatch(r"[0-9]{4}Q[1-4]", survey):
            reason = f"bad period {survey!r}, expected YYYYQn"
        else:
            try:
                horizon = int(horizon_s)
                value = float(value_s)
            except ValueError as exc:
                reason = str(exc)
            else:
                if not math.isfinite(value):
                    reason = f"non-finite number {value_s!r}"
                elif not 1 <= horizon <= 5:
                    reason = f"horizon {horizon} outside 1..5"
        if reason is not None:
            messages.append(f"{path}:{line_no}: {reason}; row rejected")
            continue
        key = (survey, variable, horizon, forecaster)
        if key in first_line:
            error = f"{path}: duplicate forecast {key} at lines {first_line[key]} and {line_no}"
            return rows, messages, error
        first_line[key] = line_no
        rows.append((survey, variable, horizon, forecaster, value))
    if not width_ok:
        messages.append(f"{path}: no forecast rows")
    return rows, messages, None


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def load_logged(paths):
    """Load a panel, returning it (or the raised error) and the warning messages."""
    handler = _Records()
    logger = logging.getLogger(panel_module.__name__)
    logger.addHandler(handler)
    try:
        try:
            return load_panel(*paths), handler.messages
        except DuplicateRowError as exc:
            return exc, handler.messages
    finally:
        logger.removeHandler(handler)


class TestOnePassLoader:
    @given(lines=st.lists(oracle_lines, max_size=30), unique_ids=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_by_row_oracle(self, lines, unique_ids):
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_inputs(tmp, oracle_text(lines, unique_ids))
            expected_rows, expected_messages, duplicate = oracle_load(paths[0])
            got, messages = load_logged(paths)
        assert messages == expected_messages
        if duplicate is not None:
            assert isinstance(got, DuplicateRowError)
            assert str(got) == duplicate
            return
        assert got.forecasts.rows() == sorted(expected_rows, key=canonical)
        cells = forecast_cells(expected_rows)
        got_cells = forecast_cells(got.forecasts.rows())
        for survey in ORACLE_SURVEYS:
            for variable in ("X", "Y"):
                for horizon in range(0, 7):
                    key = (survey, variable, horizon)
                    assert got_cells.get(key, {}) == cells.get(key, {})
        assert got.surveys == tuple(sorted({r[0] for r in expected_rows}, key=parse_period))
        for variable in ("X", "Y", "Z"):
            assert got.horizons(variable) == tuple(
                sorted({r[2] for r in expected_rows if r[1] == variable})
            )

    def test_duplicate_after_rejected_rows_names_both_lines(self, tmp_path):
        text = (
            "survey,variable,horizon,forecaster_id,value\n"
            "2000Q1,X,1,a,1.0\n"          # line 2
            "2000Q5,X,1,a,1.0\n"          # rejected: bad period
            "2000Q1,X,x,a,1.0\n"          # rejected: horizon
            "2000Q1,X,1\n"                # rejected: width
            "\n"
            "2000Q1,X,1,a,2.0\n"          # line 7 repeats line 2
        )
        got, messages = load_logged(write_inputs(tmp_path, forecasts=text))
        assert isinstance(got, DuplicateRowError)
        assert "('2000Q1', 'X', 1, 'a') at lines 2 and 7" in str(got)
        assert [m.split(":")[1] for m in messages] == ["3", "4", "5"]

    def test_parses_each_survey_string_once(self, tmp_path, monkeypatch):
        # 1,980 rows over 4 surveys, then 20 rejected rows whose strings repeat
        lines = ["survey,variable,horizon,forecaster_id,value"]
        surveys = ["2000Q1", "2000Q2", "2000Q3", "2000Q4"]
        for survey in surveys:
            for horizon in range(1, 6):
                lines.extend(f"{survey},X,{horizon},f{j},1.5" for j in range(99))
        lines.extend("2000Q5,X,1,bad,1.5" for _ in range(10))
        lines.extend(f"2000Q1,X,x,bad{j},1.5" for j in range(5))
        lines.extend(f"2000Q1,X,1,bad{j},nan" for j in range(5))
        assert len(lines) == 2001
        # header-only realization and vintage files parse no periods
        paths = write_inputs(
            tmp_path, forecasts="\n".join(lines) + "\n",
            realizations="target,variable,value,vintage\n",
            vintages="asof,variable,period,level\n",
        )
        calls = []
        original = panel_module.parse_period
        monkeypatch.setattr(
            panel_module, "parse_period", lambda text: calls.append(text) or original(text)
        )
        panel = load_panel(*paths)
        assert len(panel.forecasts) == 1980
        distinct, rejected = len(surveys) + 1, 20
        assert len(calls) <= distinct + rejected
        assert calls.count("2000Q5") == 10


# periods two years wide, so lag-4 joins happen; stamps that tie in a month
# (2000Q2 and 2000-06-30, 2000Q4 and 2000-12) and values with a zero base
TABLE_PERIODS = ["1999Q1", "1999Q2", "1999Q3", "1999Q4", "2000Q1", "2000Q2", "2000Q3", "2000Q4"]
TABLE_STAMPS = ["1999Q2", "1999-07-15", "1999Q4", "2000-01", "2000Q2", "2000-06-30", "2000-06",
                "2000Q3", "2000-12", "2000Q4", "2001-01-03", "2001Q1"]
TABLE_VALUES = [0.0, 100.0, 101.5, 98.25, -3.0, 4.4]

table_rows = st.lists(
    st.tuples(
        st.sampled_from(["RGDP", "UNEMP"]), st.sampled_from(TABLE_PERIODS),
        st.sampled_from(TABLE_STAMPS), st.sampled_from(TABLE_VALUES),
    ),
    max_size=40,
)


def first_report_oracle(rows, transform):
    """Straight-line reference of the first-report table.

    ``rows`` are (variable, period, stamp, value). Returns
    ``{variable: {period: (value, known_by)}}`` with a (maybe empty) entry
    for every variable that has a first report.
    """
    first = {}
    for variable, period, stamp, value in sorted(rows, key=lambda row: asof_key(row[2])):
        if asof_key(stamp) > period_end_month(period):
            first.setdefault((variable, period), (value, asof_key(stamp)))
    table = {variable: {} for variable, _ in first}
    for (variable, period), (value, known_by) in first.items():
        if transform == "none" or variable == "UNEMP":
            table[variable][period] = (value, known_by)
            continue
        base = first.get((variable, add_quarters(period, -4)))
        if base is None or base[0] == 0.0:
            continue
        table[variable][period] = (100.0 * (value / base[0] - 1.0), max(known_by, base[1]))
    return table


TIE_ROWS = [("RGDP", "2000Q1", "2000Q2", 101.5), ("RGDP", "2000Q1", "2000-06-30", 98.25),
            ("RGDP", "1999Q1", "1999Q2", 100.0), ("UNEMP", "2000Q1", "2000-06", 4.4),
            ("UNEMP", "2000Q1", "2000Q2", -3.0)]


class TestFirstReportTable:
    @given(realized=table_rows, levels=table_rows, transform=st.sampled_from(["yearly_pct", "none"]))
    @example(realized=TIE_ROWS, levels=TIE_ROWS[::-1], transform="yearly_pct")
    @example(realized=TIE_ROWS[::-1], levels=TIE_ROWS, transform="none")
    @settings(max_examples=300, deadline=None)
    def test_matches_straight_line_oracle(self, realized, levels, transform):
        panel = Panel(
            ForecastTable.from_rows(()),
            tuple(RealizationRow(p, v, x, stamp) for v, p, stamp, x in realized),
            tuple(VintageRow(stamp, v, p, x) for v, p, stamp, x in levels),
            transform=transform,
        )
        expected = first_report_oracle(realized, transform)
        for variable in ("RGDP", "UNEMP", "CPI"):
            for period in TABLE_PERIODS + ["2001Q1"]:
                assert panel.realization(variable, period) == expected.get(variable, {}).get(period)
        expected = first_report_oracle(levels, transform)
        assert calibration_series(panel) == {
            variable: [by_period[p][0] for p in sorted(by_period, key=period_key)]
            for variable, by_period in expected.items()
        }


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
        loaded = load_panel(*paths)
        assert loaded.forecasts == panel.forecasts
        assert loaded.realizations == panel.realizations
        assert loaded.vintages == panel.vintages


class TestSynthPanel:
    def test_zero_turnover_constant_roster(self):
        panel = synth_panel(SynthConfig(num_forecasters=5, num_surveys=8, seed=1))
        rosters = {}
        for survey, _, _, forecaster, _ in panel.forecasts.rows():
            rosters.setdefault(survey, set()).add(forecaster)
        assert all(r == rosters[panel.surveys[0]] for r in rosters.values())
        assert len(rosters[panel.surveys[0]]) == 5

    def test_perfect_judges_hit_realizations(self):
        config = SynthConfig(
            num_forecasters=4, num_surveys=6, seed=2, p_dist="const", p_value=1.0,
            horizons=2,
        )
        panel = synth_panel(config)
        for survey, variable, horizon, _, value in panel.forecasts.rows():
            target = add_quarters(survey, horizon - 1)
            assert value == panel.realization(variable, target)[0]

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
        for survey, _, _, forecaster, _ in panel.forecasts.rows():
            tenure.setdefault(forecaster, set()).add(survey)
        med = float(np.median(sorted(len(s) for s in tenure.values())))
        assert 11 <= med <= 18

    def test_calibration_series_uses_realized_values(self):
        panel = synth_panel(SynthConfig(num_forecasters=3, num_surveys=12, seed=5))
        series = calibration_series(panel)
        realized = [panel.realization("SYN", s)[0] for s in panel.surveys]
        assert series["SYN"] == pytest.approx(realized)
        calib = calibrate_v(series)
        assert calib["SYN"] > 0.0

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
