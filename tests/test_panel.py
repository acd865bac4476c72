import csv
import hashlib
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
    MissingSeedError,
    Panel,
    PanelError,
    Release,
    SchemaError,
    SynthConfig,
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
)
from crowdfuse.quincunx import sample_estimate_each
from panel_rows import rows_of, same_panel, table_of, write_panel

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


def yearly_panel(reports):
    """A yearly-pct panel whose RGDP realizations and vintages are ``reports``,
    ``{period: (level, stamp)}``."""
    releases = tuple(Release("RGDP", p, stamp, x) for p, (x, stamp) in reports.items())
    return Panel(table_of(()), releases, releases)


class TestPctChange:
    def test_basic(self):
        panel = yearly_panel({"2019Q1": (100.0, "2019Q2"), "2020Q1": (110.0, "2020Q2")})
        assert panel.realization("RGDP", "2020Q1") == (pytest.approx(10.0), (2020, 6))
        assert calibration_series(panel) == {"RGDP": [pytest.approx(10.0)]}
        # the change is known from the later of the two stamps, whichever report holds it
        for base_stamp, stamp, known_by in (("2020-09", "2020Q2", (2020, 9)),
                                            ("2019Q2", "2020-11", (2020, 11))):
            panel = yearly_panel({"2019Q1": (100.0, base_stamp), "2020Q1": (110.0, stamp)})
            assert panel.realization("RGDP", "2020Q1")[1] == known_by

    def test_flat_series(self):
        panel = yearly_panel({"2019Q1": (104.0, "2019Q2"), "2020Q1": (104.0, "2020Q2")})
        assert panel.realization("RGDP", "2020Q1")[0] == 0.0
        assert calibration_series(panel) == {"RGDP": [0.0]}

    def test_unemployment_passthrough(self):
        # UNEMP is already in percent: its first reports come back as raw levels
        unemp = {"2019Q1": 3.8, "2019Q2": 3.6, "2020Q1": 4.4, "2020Q2": 13.0}
        rgdp = {"2019Q1": 100.0, "2020Q1": 110.0}
        vintages = tuple(
            Release(variable, period, add_quarters(period, 1), level)
            for variable, levels in (("UNEMP", unemp), ("RGDP", rgdp))
            for period, level in levels.items()
        )
        series = calibration_series(
            Panel(table_of(()), (), vintages, transform="yearly_pct")
        )
        assert series["UNEMP"] == list(unemp.values())
        assert series["RGDP"] == pytest.approx([10.0])

    def test_missing_lag(self):
        # 2020Q1 has no report a year before; 2020Q2 has one
        panel = yearly_panel({"2019Q2": (100.0, "2019Q3"), "2020Q1": (110.0, "2020Q2"),
                              "2020Q2": (105.0, "2020Q3")})
        assert panel.realization("RGDP", "2020Q1") is None
        assert panel.realization("RGDP", "2020Q2") == (pytest.approx(5.0), (2020, 9))
        assert calibration_series(panel) == {"RGDP": [pytest.approx(5.0)]}

    def test_zero_base(self):
        for zero in (0.0, -0.0):
            panel = yearly_panel({"2019Q1": (zero, "2019Q2"), "2020Q1": (1.0, "2020Q2"),
                                  "2019Q2": (2.0, "2019Q3"), "2020Q2": (3.0, "2020Q3")})
            assert panel.realization("RGDP", "2020Q1") is None
            assert panel.realization("RGDP", "2020Q2") == (50.0, (2020, 9))
            assert calibration_series(panel) == {"RGDP": [50.0]}


class TestCalibration:
    def test_examples(self):
        calib = calibrate_v({"A": [0.0, 10.0], "B": [-2.0, 0.0, 8.0]})
        assert calib == {"A": 5.0, "B": 6.0}

    def test_degenerate(self):
        with pytest.raises(CalibrationError):
            calibrate_v({"A": []})
        assert calibrate_v({"A": [3.0, 3.0, 3.0]}) == {"A": math.inf}  # no unit
        with pytest.raises(CalibrationError):
            calibrate_v({"A": [0.0, 1e-60]})

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
        assert forecast_cells(rows_of(panel.forecasts))["2000Q1", "RGDP", 1] == {
            "alice": 2.5, "bob": 3.0, "carol": 2.0,
        }

    def test_forecasts_in_table_order(self, tmp_path):
        # rows out of order in the file come back, and are written, in table order
        lines = FORECASTS.splitlines()
        shuffled = [lines[0], "2000Q1,CPI,2,zed,1.25"] + lines[:0:-1] + ["1999Q4,RGDP,3,bob,0.5"]
        panel = load_panel(*write_inputs(tmp_path, forecasts="\n".join(shuffled) + "\n"))
        rows = rows_of(panel.forecasts)
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

    def test_report_files_load_alike(self, tmp_path):
        # a realization and a vintage level state one fact, so the same facts load to equal rows
        facts = [line.split(",") for line in REALIZATIONS.splitlines()[1:]]
        vintages = "asof,variable,period,level\n" + "".join(
            f"{stamp},{variable},{target},{value}\n" for target, variable, value, stamp in facts
        )
        panel = load_panel(*write_inputs(tmp_path, vintages=vintages))
        assert panel.realizations == panel.vintages
        assert panel.realizations[0] == Release("RGDP", "2000Q1", "2000Q2", 104.0)

    def test_byte_order_mark(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports put a byte-order mark before the header
        text = FORECASTS + "2000Q5,RGDP,1,dave,1.0\n2000Q1,RGDP,1,alice,9.9\n"  # lines 8, 9
        plain = load_logged(write_inputs(tmp_path, forecasts=text))
        marked = load_logged(write_inputs(tmp_path, forecasts="\ufeff" + text))
        assert isinstance(marked[0], DuplicateRowError)
        assert str(marked[0]) == str(plain[0])
        assert str(plain[0]).endswith("('2000Q1', 'RGDP', 1, 'alice') at lines 2 and 9")
        assert marked[1] == plain[1] and [m.split(":")[1] for m in plain[1]] == ["8"]

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

    @pytest.mark.parametrize("name", FILES)
    def test_zero_byte_file(self, tmp_path, name):
        paths = write_inputs(tmp_path, **{name: ""})
        path = paths[list(FILES).index(name)]
        header = FILES[name].split("\n", 1)[0]
        with pytest.raises(SchemaError) as err:
            load_panel(*paths)
        assert str(err.value) == f"{path}: empty file, expected header {header}"

    def test_unknown_transform(self):
        with pytest.raises(ValueError, match="unknown transform 'logs'"):
            Panel(table_of(()), (), (), transform="logs")

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
            "2000Q3,RGDP,1,heidi,1.0000001e50\n2000Q3,RGDP,1,ivan,-1e50\n"
        )
        bad_r = REALIZATIONS + (
            "2000Q3,RGDP,nan,2000Q4\n2000Q4,RGDP,inf,2001Q1\n2001Q1,RGDP,-inf,2001Q2\n"
            "2001Q2,RGDP,1.0,2001-13-01\n2001Q2,RGDP,1.0,2001-07-99\n"
            "2001Q2,RGDP,-1e300,2001Q3\n2001Q3,RGDP,1e50,2001Q4\n"
            "2001Q5,RGDP,1.0,2001-13\n2001Q3,RGDP,oops,2002Q5\n"  # two bad fields each
        )
        bad_v = VINTAGES + (
            "2000Q3,RGDP,1999Q3,nan\n2000Q3,RGDP,1999Q4,inf\n2000Q3,RGDP,2000Q3,-inf\n"
            "2000-00-15,RGDP,1999Q3,1.0\n2000-99,RGDP,1999Q3,1.0\n"
            "2000Q3,RGDP,1998Q3,-1e51\n2000Q3,RGDP,1998Q4,1e-300\n"
            "2001-00,RGDP,1999Q0,1.0\n"  # two bad fields
        )
        with caplog.at_level(logging.WARNING):
            paths = write_inputs(tmp_path, bad, bad_r, bad_v)
            panel = load_panel(*paths)
        # values up to MAX_MAGNITUDE in magnitude are read, larger ones rejected
        assert len(panel.forecasts) == 7
        assert len(panel.realizations) == 5
        assert len(panel.vintages) == 5
        messages = "\n".join(r.message for r in caplog.records)
        for line in range(8, 15):
            assert f"forecasts.csv:{line}:" in messages
        for name in ("realizations.csv", "vintages.csv"):
            for line in (6, 7, 8, 9, 10, 11):
                assert f"{name}:{line}:" in messages
        assert messages.count("non-finite number") == 9
        assert messages.count("exceeds 1e+50 in magnitude") == 3
        assert messages.count("bad vintage stamp") == 6
        assert messages.count("row rejected") == 22
        # a row bad in two fields gets the message of the field its file checks first
        stamp = "expected YYYYQn or YYYY-MM[-DD]"
        for path, line, reason in ((paths[1], 13, "bad period '2001Q5', expected YYYYQn"),
                                   (paths[1], 14, f"bad vintage stamp '2002Q5', {stamp}"),
                                   (paths[2], 13, f"bad vintage stamp '2001-00', {stamp}")):
            assert f"{path}:{line}: {reason}; row rejected" in caplog.messages


# survey, horizon and value strings that repeat across rows, valid and not
ORACLE_SURVEYS = ["2000Q1", "2000Q2", "2001Q4", "1999Q3", "2000Q5", "2000q1", "00Q1"]
ORACLE_HORIZONS = ["1", "2", "5", "3", "03", " 3", "0", "6", "-1", "x", "1.5"]
ORACLE_VALUES = ["1.5", "-0.25", "3", "1e-3", "nan", "inf", "-inf", "oops", "", "-1e50", "1e51"]

oracle_lines = st.one_of(
    st.tuples(
        st.sampled_from(ORACLE_SURVEYS), st.sampled_from(["X", "Y"]),
        st.sampled_from(ORACLE_HORIZONS), st.sampled_from(ORACLE_VALUES),
    ),
    st.just(()),                                        # a blank line
    st.sampled_from([1, 2, 4, 6]),                      # a record of the wrong width
)


def oracle_text(lines, unique_ids, crlf=False, quoted=False):
    """A forecast file: each tuple is a row, () a blank line, an int a record that wide.

    With ``unique_ids`` every row has its own forecaster, so no key repeats;
    otherwise ids come from two, and duplicates are likely. ``crlf`` ends
    lines with CRLF, and ``quoted`` puts each row's survey in double quotes.
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
            if quoted:
                survey = f'"{survey}"'
            out.append(f"{survey},{variable},{horizon},{forecaster},{value}")
    end = "\r\n" if crlf else "\n"
    return end.join(out) + end


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
                elif abs(value) > 1e50:
                    reason = f"number {value_s!r} exceeds 1e+50 in magnitude"
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
    @given(lines=st.lists(oracle_lines, max_size=30), unique_ids=st.booleans(),
           crlf=st.booleans(), quoted=st.booleans())
    # two spellings of one horizon are one key
    @example(lines=[("2000Q1", "X", "3", "1.5"), (), ("2000Q1", "X", "03", "2.5")],
             unique_ids=False, crlf=True, quoted=True)
    @settings(max_examples=200, deadline=None)
    def test_matches_row_by_row_oracle(self, lines, unique_ids, crlf, quoted):
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_inputs(tmp, oracle_text(lines, unique_ids, crlf, quoted))
            expected_rows, expected_messages, duplicate = oracle_load(paths[0])
            got, messages = load_logged(paths)
        assert messages == expected_messages
        if duplicate is not None:
            assert isinstance(got, DuplicateRowError)
            assert str(got) == duplicate
            return
        assert rows_of(got.forecasts) == sorted(expected_rows, key=canonical)
        cells = forecast_cells(expected_rows)
        got_cells = forecast_cells(rows_of(got.forecasts))
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

    @pytest.mark.parametrize("repeat", [False, True])
    def test_key_columns_unpacked_where_packing_would_overflow(self, tmp_path, monkeypatch, repeat):
        # the reader sorts on one packed key column unless the product of the
        # columns' distinct counts passes int64; both ways give the same result
        lines = ["survey,variable,horizon,forecaster_id,value"]
        lines += [f"200{i % 3}Q{i % 4 + 1},{'XY'[i % 2]},{i % 5 + 1},f{i % 7},{i}.5" for i in range(60)]
        lines += ["2000Q5,X,1,a,1.0", "2000Q1,X,01,f0,9.5" if repeat else "2000Q1,X,01,g,9.5"]
        paths = write_inputs(tmp_path, forecasts="\n".join(lines) + "\n")
        packed = load_logged(paths)
        monkeypatch.setattr(panel_module.math, "prod", lambda spans: 2**63)
        unpacked = load_logged(paths)
        assert unpacked[1] == packed[1] and len(packed[1]) == 1
        if repeat:
            assert isinstance(packed[0], DuplicateRowError)
            assert str(unpacked[0]) == str(packed[0])
            assert str(packed[0]).endswith("('2000Q1', 'X', 1, 'f0') at lines 2 and 63")
        else:
            assert rows_of(unpacked[0].forecasts) == rows_of(packed[0].forecasts)
            assert len(packed[0].forecasts) == 61

    def test_names_physical_lines(self, tmp_path):
        # a record holding a quoted line break is named by the line it ends on
        text = (
            "survey,variable,horizon,forecaster_id,value\n"
            '2000Q1,X,1,"c\nd",1.0\n'     # lines 2-3
            "2000Q1,X,2,a,1.0\n"           # line 4
            "2000Q1,X,9,a,1.0\n"           # line 5: horizon out of range
            '2000Q1,X,1,"c\nd",2.0\n'     # lines 6-7 repeat lines 2-3
        )
        paths = write_inputs(tmp_path, forecasts=text)
        got, messages = load_logged(paths)
        assert messages == [f"{paths[0]}:5: horizon 9 outside 1..5; row rejected"]
        assert isinstance(got, DuplicateRowError)
        assert str(got).endswith("('2000Q1', 'X', 1, 'c\\nd') at lines 3 and 7")

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

    @pytest.mark.parametrize("tail, warned", [
        # a record one field short and one a field long, both of strings already
        # memoised, a blank line, then a record with a new string after known ones
        (["2000Q1,X,1,a", "2000Q1,X,1,a,1.5,1.5", "", "2000Q1,X,2,b,1.5", "2000Q2,X,1,a,9.5"],
         [(5, "expected 5 columns, got 4"), (6, "expected 5 columns, got 6")]),
        # a new string that fails its check right after known ones, then the same row fixed
        (["2000Q1,X,2,a,1.5", "2000Q3,X,7,a,1.5", "", "2000Q3,X,2,a,1.5"],
         [(6, "horizon 7 outside 1..5")]),
    ])
    def test_encoder_rejections_match_oracle(self, tmp_path, tail, warned):
        head = ["survey,variable,horizon,forecaster_id,value", "2000Q1,X,1,a,1.5",
                "2000Q1,X,1,b,1.5", "2000Q2,X,2,a,1.5"]
        paths = write_inputs(tmp_path, forecasts="\n".join(head + tail) + "\n")
        expected_rows, expected_messages, duplicate = oracle_load(paths[0])
        got, messages = load_logged(paths)
        assert duplicate is None
        assert messages == expected_messages == [
            f"{paths[0]}:{line}: {reason}; row rejected" for line, reason in warned
        ]
        assert rows_of(got.forecasts) == sorted(expected_rows, key=canonical)

    def test_parses_each_stamp_once(self, tmp_path, monkeypatch):
        # load_panel and calibration_series on the golden files: each distinct
        # stamp meets the stamp regex once, though both the loader's check and
        # the first-report tables read it
        calls = []
        pattern = panel_module._STAMP_RE

        class Counted:
            def match(self, text):
                calls.append(text)
                return pattern.match(text)

        monkeypatch.setattr(panel_module, "_STAMP_RE", Counted())
        golden = os.path.join(os.path.dirname(__file__), "data", "golden", "files")
        paths = [os.path.join(golden, f"{name}.csv")
                 for name in ("forecasts", "realizations", "vintages")]
        asof_key.cache_clear()
        panel = load_panel(*paths)
        assert calibration_series(panel)
        stamps = {r.stamp for r in panel.realizations + panel.vintages}
        assert len(stamps) > 1
        assert sorted(calls) == sorted(stamps)
        # a bad stamp is not memoised: every row that holds it meets the regex and is rejected
        calls.clear()
        vintages = VINTAGES + "2000-13,RGDP,1999Q3,1.0\n2000Q3,RGDP,1999Q4,1.0\n" \
            "2000-13,RGDP,2000Q3,1.0\n"
        paths = write_inputs(tmp_path, vintages=vintages)
        asof_key.cache_clear()
        panel, messages = load_logged(paths)
        assert calls.count("2000-13") == 2
        assert messages == [
            f"{paths[2]}:{line}: bad vintage stamp '2000-13', expected YYYYQn or YYYY-MM[-DD]; "
            "row rejected" for line in (6, 8)
        ]
        assert len(panel.vintages) == 5


# periods two years wide, so lag-4 joins happen; stamps that tie in a month
# (2000Q2 and 2000-06-30, 2000Q4 and 2000-12), values with a zero base and a
# tiny base whose yearly changes exceed the magnitude bound
TABLE_PERIODS = ["1999Q1", "1999Q2", "1999Q3", "1999Q4", "2000Q1", "2000Q2", "2000Q3", "2000Q4"]
TABLE_STAMPS = ["1999Q2", "1999-07-15", "1999Q4", "2000-01", "2000Q2", "2000-06-30", "2000-06",
                "2000Q3", "2000-12", "2000Q4", "2001-01-03", "2001Q1"]
TABLE_VALUES = [0.0, 100.0, 101.5, 98.25, -3.0, 4.4, 1e-200]

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
        change = 100.0 * (value / base[0] - 1.0)
        if abs(change) > 1e50:
            continue
        table[variable][period] = (change, max(known_by, base[1]))
    return table


TIE_ROWS = [("RGDP", "2000Q1", "2000Q2", 101.5), ("RGDP", "2000Q1", "2000-06-30", 98.25),
            ("RGDP", "1999Q1", "1999Q2", 100.0), ("UNEMP", "2000Q1", "2000-06", 4.4),
            ("UNEMP", "2000Q1", "2000Q2", -3.0)]
# a yearly change of about 1e202, beyond the magnitude bound, beside one of -100
TINY_BASE_ROWS = [("RGDP", "1999Q1", "1999Q2", 1e-200), ("RGDP", "2000Q1", "2000Q2", 101.5),
                  ("RGDP", "1999Q2", "1999-07-15", 100.0), ("RGDP", "2000Q2", "2000Q3", 1e-200)]


class TestFirstReportTable:
    @given(realized=table_rows, levels=table_rows, transform=st.sampled_from(["yearly_pct", "none"]))
    @example(realized=TIE_ROWS, levels=TIE_ROWS[::-1], transform="yearly_pct")
    @example(realized=TIE_ROWS[::-1], levels=TIE_ROWS, transform="none")
    @example(realized=TINY_BASE_ROWS, levels=TINY_BASE_ROWS[::-1], transform="yearly_pct")
    @settings(max_examples=300, deadline=None)
    def test_matches_straight_line_oracle(self, realized, levels, transform):
        panel = Panel(
            table_of(()),
            tuple(map(Release._make, realized)),
            tuple(map(Release._make, levels)),
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


# forecaster ids and variable names that need quoting in a CSV field
quoting_text = st.text(
    st.sampled_from(',"\n\r ') | st.characters(blacklist_categories=("Cs",)), max_size=5
)
# a few periods, stamps and values that the loader accepts
ROUNDTRIP_PERIODS = ["1999Q4", "2000Q1", "2000Q2"]
ROUNDTRIP_STAMPS = ["2000Q1", "2000-05-15", "2000-08"]
roundtrip_values = st.floats(min_value=-1e50, max_value=1e50, allow_nan=False)


@st.composite
def quoting_panels(draw):
    """A panel whose forecaster ids and variable names hold CSV-special characters."""
    ids = draw(st.lists(quoting_text, min_size=1, max_size=4, unique=True))
    variables = draw(st.lists(quoting_text, min_size=1, max_size=3, unique=True))
    forecasts = draw(st.lists(
        st.tuples(st.sampled_from(ROUNDTRIP_PERIODS), st.sampled_from(variables),
                  st.integers(1, 5), st.sampled_from(ids), roundtrip_values),
        max_size=12, unique_by=lambda row: row[:4],
    ))
    releases = st.lists(
        st.builds(Release, st.sampled_from(variables), st.sampled_from(ROUNDTRIP_PERIODS),
                  st.sampled_from(ROUNDTRIP_STAMPS), roundtrip_values),
        max_size=6, unique_by=lambda row: row[:3],
    )
    return Panel(table_of(forecasts), tuple(draw(releases)), tuple(draw(releases)))


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
        assert rows_of(loaded.forecasts) == rows_of(panel.forecasts)
        assert loaded.realizations == panel.realizations
        assert loaded.vintages == panel.vintages

    @given(panel=quoting_panels())
    @example(panel=Panel(
        table_of([("2000Q1", "G,DP", 1, "a,b", 1.5),
                  ("2000Q1", "G,DP", 1, "c\nd", 2.5),
                  ("2000Q1", "G,DP", 1, "e\rf", 3.5)]),
        (Release("G,DP", "2000Q1", "2000-05-15", 3.0),),
        (Release("G,DP", "2000Q1", "2000Q2", 3.0),),
    ))
    @settings(max_examples=100, deadline=None)
    def test_load_of_write_is_identity(self, panel):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("f.csv", "r.csv", "v.csv")]
            write_panel(panel, *paths)
            loaded, _ = load_logged(paths)
        assert same_panel(loaded, panel)


class TestSynthPanel:
    def test_zero_turnover_constant_roster(self):
        panel = synth_panel(SynthConfig(num_forecasters=5, num_surveys=8, seed=1))
        rosters = {}
        for survey, _, _, forecaster, _ in rows_of(panel.forecasts):
            rosters.setdefault(survey, set()).add(forecaster)
        assert all(r == rosters[panel.surveys[0]] for r in rosters.values())
        assert len(rosters[panel.surveys[0]]) == 5

    def test_perfect_judges_hit_realizations(self):
        config = SynthConfig(
            num_forecasters=4, num_surveys=6, seed=2, p_dist="const", p_value=1.0,
            horizons=2,
        )
        panel = synth_panel(config)
        for survey, variable, horizon, _, value in rows_of(panel.forecasts):
            target = add_quarters(survey, horizon - 1)
            assert value == panel.realization(variable, target)[0]

    def test_reproducible(self):
        config = SynthConfig(num_forecasters=6, num_surveys=10, seed=3, turnover=0.2)
        assert rows_of(synth_panel(config).forecasts) == rows_of(synth_panel(config).forecasts)
        other = SynthConfig(num_forecasters=6, num_surveys=10, seed=4, turnover=0.2)
        assert rows_of(synth_panel(other).forecasts) != rows_of(synth_panel(config).forecasts)

    def test_median_tenure_sanity(self):
        # annualized turnover 0.22 with quarterly exits: the typical stay
        # should sit in the low teens of surveys
        panel = synth_panel(SynthConfig(num_forecasters=36, num_surveys=200, seed=0, turnover=0.22))
        tenure: dict[str, set] = {}
        for survey, _, _, forecaster, _ in rows_of(panel.forecasts):
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
        # stream as one single-row draw per forecaster did, so the panels are equal
        batched = synth_panel(config)
        monkeypatch.setattr(
            panel_module,
            "sample_estimate_each",
            lambda ps, env, rng: [sample_estimate_each([p], env, rng)[0] for p in ps],
        )
        per_row = synth_panel(config)
        assert rows_of(batched.forecasts) == rows_of(per_row.forecasts)
        assert batched.realizations == per_row.realizations

    @pytest.mark.parametrize("spread, digest", [
        ({"p_dist": "const"},
         "2301f147f07d39bcfd0772fbac17bac71bb056323c596d217a8c129422de1385"),
        ({"p_dist": "uniform", "p_low": 0.6, "p_high": 0.95},
         "66101ed9841b4b571fdde26e55b930da4b46656dd0b67243719fe9f1683f1607"),
        ({"p_dist": "two_point", "p_low": 0.7, "p_high": 0.95, "p_share_high": 0.5},
         "0b0c2c04758d569d9d36679592100d12c34ebc7bf626d9451392fe52142b5304"),
    ], ids=["const", "uniform", "two_point"])
    def test_stream_is_pinned(self, spread, digest):
        # criterion 9's shape; the golden reports pin only a small uniform panel
        panel = synth_panel(SynthConfig(num_forecasters=40, num_surveys=200, seed=1, horizons=5,
                                        turnover=0.1, p_decay=0.02, **spread))
        table = panel.forecasts
        h = hashlib.sha256()
        for names in (table.surveys, table.variables, table.forecasters):
            h.update("\n".join(names).encode() + b"\0")
        for column in (table.survey, table.variable, table.horizon, table.forecaster):
            h.update(column.astype("<i8").tobytes())
        h.update(table.value.astype("<f8").tobytes())
        h.update(np.array([r.value for r in panel.realizations], dtype="<f8").tobytes())
        assert h.hexdigest() == digest

    @given(config=st.builds(
        SynthConfig,
        num_forecasters=st.integers(1, 8),
        num_surveys=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        turnover=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
        horizons=st.integers(1, 5),
        count=st.integers(1, 9),
        p_dist=st.sampled_from(["const", "uniform", "two_point"]),
        p_low=st.floats(0.5, 0.8),
        p_high=st.floats(0.8, 1.0),
        p_decay=st.sampled_from([0.0, 0.05, 0.3]),
    ))
    @settings(max_examples=100, deadline=None)
    def test_seats_keep_the_roster(self, config):
        table = synth_panel(config).forecasts
        number = np.array([int(name[1:]) for name in table.forecasters])[table.forecaster]
        rosters = {}
        for s, h, f in zip(table.survey.tolist(), table.horizon.tolist(), number.tolist()):
            rosters.setdefault((s, h), []).append(f)
        assert sorted(rosters) == [(s, h) for s in range(config.num_surveys)
                                   for h in range(1, config.horizons + 1)]
        first_seen: dict[int, int] = {}
        last: set[int] = set()
        for s in range(config.num_surveys):
            roster = set(rosters[(s, 1)])
            # each (survey, horizon) holds one forecast from each seat's forecaster
            for h in range(1, config.horizons + 1):
                assert len(rosters[(s, h)]) == len(roster) == config.num_forecasters
                assert set(rosters[(s, h)]) == roster
            for f in sorted(roster - last):
                assert f not in first_seen  # an id that leaves never returns
                first_seen[f] = s
            last = roster
        # new ids first appear in increasing order, from F0001 on
        assert list(first_seen) == list(range(1, len(first_seen) + 1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(num_forecasters=0, num_surveys=5, seed=1)
        with pytest.raises(ValueError):
            SynthConfig(num_forecasters=2, num_surveys=5, seed=1, turnover=1.0)
        with pytest.raises(ValueError):
            SynthConfig(num_forecasters=2, num_surveys=5, seed=1, p_value=0.4)
        with pytest.raises(ValueError):
            SynthConfig(num_forecasters=2, num_surveys=5, seed=1, p_dist="beta")
        for bad, message in [
            ({"horizons": 0}, "horizons must lie in"),
            ({"horizons": 6}, "horizons must lie in"),
            ({"p_share_high": -0.1}, "p_share_high must lie in"),
            ({"p_share_high": 1.5}, "p_share_high must lie in"),
            ({"p_decay": -0.01}, "p_decay must be nonnegative"),
            # NaN, and inf through inf * 0 at the first horizon, would draw forecasts at p = NaN
            ({"p_decay": float("nan")}, "p_decay must be nonnegative and finite"),
            ({"p_decay": float("inf")}, "p_decay must be nonnegative and finite"),
            ({"p_dist": "uniform", "p_low": 0.9, "p_high": 0.8}, "p_low must not exceed p_high"),
            ({"p_dist": "two_point", "p_low": 0.9, "p_high": 0.8}, "p_low must not exceed p_high"),
            ({"count": 0}, "count must be a positive integer, got 0"),
            ({"unit": 0.0}, "unit must be a positive finite real, got 0.0"),
            # numpy's binomial cannot draw the deviations of a larger count
            ({"count": 2**53 + 1, "unit": 1e-30}, "count must be at most 2\\*\\*53"),
        ]:
            with pytest.raises(ValueError, match=message):
                SynthConfig(num_forecasters=2, num_surveys=5, seed=1, **bad)
        # a panel whose values pass MAX_MAGNITUDE would overflow the reliability estimate
        with pytest.raises(ValueError, match="count \\* unit must not exceed 1e\\+50"):
            SynthConfig(num_forecasters=4, num_surveys=20, seed=3, unit=1e100)
        SynthConfig(num_forecasters=4, num_surveys=20, seed=3, count=4, unit=2.5e49)
        SynthConfig(num_forecasters=4, num_surveys=20, seed=3, count=2**53, unit=1e-30)
        # a constant reliability reads neither bound
        SynthConfig(num_forecasters=2, num_surveys=5, seed=1, p_low=0.9, p_high=0.8)


class TestSynthConfigFile:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text(
            "# demo generator\n"
            "num_forecasters = 8\n"
            "num_surveys = 20\n"
            "seed = 7          # may come from --seed instead\n"
            "turnover = 0.1\n"
            "p_dist = two_point#const | uniform | two_point\n"
            "\n",
            encoding="utf-8",
        )
        config = load_synth_config(str(path))
        assert config.seed == 7
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

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text("\ufeffnum_forecasters = 3\nnum_surveys = 4\nseed = 7\n", encoding="utf-8")
        assert load_synth_config(str(path)) == SynthConfig(num_forecasters=3, num_surveys=4, seed=7)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text("seed = 1\nnum_forecasters = 3\n\nseed = 2\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}: duplicate key 'seed' at lines 1 and 4")):
            load_synth_config(str(path), seed_override=5)

    def test_line_without_equals(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text("num_forecasters = 3\nnum_surveys 4\nseed = 1\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=f"{re.escape(str(path))}:2: expected 'key = value'"):
            load_synth_config(str(path))

    def test_bad_value_names_its_place(self, tmp_path):
        path = tmp_path / "gen.cfg"
        for line, kind in (("num_forecasters = abc", "int"), ("turnover = 0.1.", "float")):
            path.write_text(f"seed = 1\n{line}\n", encoding="utf-8")
            name, _, text = line.partition(" = ")
            with pytest.raises(SchemaError, match=re.escape(
                    f"{path}:2: {name} = {text!r} is not a valid {kind}")):
                load_synth_config(str(path))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text("numforecasters = 3\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_synth_config(str(path))
        # the variable name, norm and start year are fixed, not settings
        for line in ("variable = GDP", "norm = 50", "start_year = 1990"):
            path.write_text(f"num_forecasters = 3\nnum_surveys = 4\nseed = 1\n{line}\n",
                            encoding="utf-8")
            with pytest.raises(SchemaError, match="unknown key"):
                load_synth_config(str(path))
