"""Survey panel ingestion, target construction, calibration, and synthesis.

A panel holds quarterly forecasts (per survey, variable, horizon, and
forecaster) and two report files, realized values as first reported and
vintage level series, whose rows each load as one :class:`Release`.
File schemas (UTF-8 CSV, with or without a byte-order mark, mandatory
header, ``.`` decimal separator, periods formatted ``YYYYQn``, stamps
``YYYYQn`` or ``YYYY-MM[-DD]`` with a month of 1-12 and a day of 1-31):

* forecasts:     ``survey,variable,horizon,forecaster_id,value``
* realizations:  ``target,variable,value,vintage``
* vintages:      ``asof,variable,period,level``

All three files go through one reader with the same rules: a bad row is
rejected with a line-numbered warning, and a repeated key raises an error
naming both lines. Realized targets are taken from the first stamp strictly
following the target period (on a tie, the earlier row wins), so they
reflect only what forecasters could not have known. Realization values are
level data; analysis units are yearly percentage changes computed across
the first-report series (except UNEMP, already in percent), known from the
later of the two stamps. Synthetic panels skip the transformation and
carry analysis units directly.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
import re
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .quincunx import MAX_MAGNITUDE, Environment, sample_estimate_each

log = logging.getLogger(__name__)

FORECAST_HEADER = ("survey", "variable", "horizon", "forecaster_id", "value")
REALIZATION_HEADER = ("target", "variable", "value", "vintage")
VINTAGE_HEADER = ("asof", "variable", "period", "level")

UNTRANSFORMED_VARIABLES = frozenset({"UNEMP"})

MIN_HORIZON = 1
MAX_HORIZON = 5

# The synthetic panel's one variable, its category norm and its first year.
SYNTH_VARIABLE = "SYN"
SYNTH_NORM = 100.0
SYNTH_START_YEAR = 2000

_PERIOD_RE = re.compile(r"^(\d{4})Q([1-4])$")
# a vintage stamp: YYYYQn, or YYYY-MM with an optional -DD
_STAMP_RE = re.compile(r"^(\d{4})(?:Q([1-4])|-(\d{2})(?:-(\d{2}))?)$")


class PanelError(ValueError):
    """Base error for panel files and derived quantities."""


class SchemaError(PanelError):
    """A file's header does not match the documented schema."""


class DuplicateRowError(PanelError):
    """Two rows share a key that must be unique."""


class CalibrationError(PanelError):
    """The calibration series is empty, or its unit is positive but below 1 / ``MAX_MAGNITUDE``."""


class MissingSeedError(SchemaError):
    """A generator run has no seed, neither in the config nor from the caller."""


# ---------------------------------------------------------------------------
# Period arithmetic
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4096)
def parse_period(text: str) -> tuple[int, int]:
    """(year, quarter) of a ``YYYYQn`` period.

    Memoized: a panel holds a few hundred distinct periods, parsed again
    and again by the period arithmetic. A string that fails is not
    cached, so it raises on every call.
    """
    m = _PERIOD_RE.match(text)
    if not m:
        raise PanelError(f"bad period {text!r}, expected YYYYQn")
    return int(m.group(1)), int(m.group(2))


def format_period(year: int, quarter: int) -> str:
    return f"{year:04d}Q{quarter}"


def add_quarters(period: str, k: int) -> str:
    year, quarter = parse_period(period)
    idx = year * 4 + (quarter - 1) + k
    return format_period(idx // 4, idx % 4 + 1)


def period_key(period: str) -> int:
    year, quarter = parse_period(period)
    return year * 4 + quarter - 1


def period_end_month(period: str) -> tuple[int, int]:
    """(year, month) in which the quarter ends."""
    year, quarter = parse_period(period)
    return year, 3 * quarter


@functools.lru_cache(maxsize=4096)
def asof_key(text: str) -> tuple[int, int]:
    """(year, month) ordering key for a vintage stamp (YYYYQn or ISO date).

    Memoized like :func:`parse_period`: the loader checks each distinct
    stamp and the first-report table orders every row by it, so each
    stamp meets the regex once. A string that fails is not cached.
    """
    m = _STAMP_RE.match(text)
    if m:
        year, quarter, month, day = m.groups()
        if quarter:
            return int(year), 3 * int(quarter)
        if 1 <= int(month) <= 12 and 1 <= int(day or 1) <= 31:
            return int(year), int(month)
    raise PanelError(f"bad vintage stamp {text!r}, expected YYYYQn or YYYY-MM[-DD]")


# ---------------------------------------------------------------------------
# Rows and the panel
# ---------------------------------------------------------------------------

def _ranks(values: Sequence) -> np.ndarray:
    """Each value's position among the sorted distinct values."""
    at = {x: i for i, x in enumerate(sorted(set(values)))}
    return np.array([at[x] for x in values], dtype=np.intp)


@dataclass(frozen=True, eq=False)
class ForecastTable:
    """A panel's forecasts as parallel columns, one entry per forecast.

    ``survey``, ``variable`` and ``forecaster`` hold positions in the sorted
    names ``surveys``, ``variables`` and ``forecasters`` (``YYYYQn`` periods
    sort as text in time order). The entries are sorted by (variable,
    survey, horizon, forecaster id), so each survey's forecasts of one
    variable are one contiguous run, horizon by horizon.
    """

    surveys: tuple[str, ...]
    variables: tuple[str, ...]
    forecasters: tuple[str, ...]
    survey: np.ndarray
    variable: np.ndarray
    horizon: np.ndarray
    forecaster: np.ndarray
    value: np.ndarray

    @classmethod
    def from_codes(cls, surveys: Sequence[str], variables: Sequence[str], forecasters: Sequence[str],
                   survey: Sequence[int], variable: Sequence[int], horizon: Sequence[int],
                   forecaster: Sequence[int], value: Sequence[float],
                   order: np.ndarray | None = None) -> ForecastTable:
        """The table of forecasts given as codes into lists of distinct names.

        ``surveys``, ``variables`` and ``forecasters`` list distinct names in
        any order, each used by some forecast; ``survey``, ``variable`` and
        ``forecaster`` hold each forecast's position in them. The names are
        sorted, the codes moved to the sorted positions and the entries put
        in table order, or in ``order`` where a caller has already sorted
        them by (variable, survey, horizon, forecaster id).
        """
        names = (surveys, variables, forecasters)
        s, v, f = (_ranks(n)[np.asarray(c, dtype=np.intp)]
                   for n, c in zip(names, (survey, variable, forecaster)))
        h = np.asarray(horizon, dtype=np.intp)
        x = np.asarray(value, dtype=np.float64)
        if order is None:
            order = np.lexsort((f, h, s, v))
        return cls(*(tuple(sorted(n)) for n in names),
                   s[order], v[order], h[order], f[order], x[order])

    def __len__(self) -> int:
        return len(self.value)


class Release(NamedTuple):
    """A variable's value for a period, as released at a stamp: one row of either report file."""

    variable: str
    period: str
    stamp: str
    value: float


def _analysis_table(
    rows: Iterable[Release], transform: str
) -> dict[str, dict[str, tuple[float, tuple[int, int]]]]:
    """First-reported analysis-unit values: ``{variable: {period: (value, known_by)}}``.

    A period's first report is the value at its earliest stamp after the
    period ends; on a tie the earlier row wins. Values stamped at or before
    the period end are dropped with a diagnostic. A period's yearly change,
    ``100 * (level / base - 1)`` over the first report a year before, is
    known from the later of the two stamps; a period whose base report is
    missing or zero (either sign) has no entry, nor has one whose change is
    not finite or exceeds ``MAX_MAGNITUDE`` (each with a diagnostic). UNEMP,
    and every variable under ``transform="none"``, passes through.
    """
    firsts: dict[str, dict[str, tuple[tuple[int, int], float]]] = {}
    early: set[tuple[str, str]] = set()
    for variable, period, stamp, value in rows:
        key = asof_key(stamp)
        if key <= period_end_month(period):
            early.add((variable, period))
            continue
        reports = firsts.setdefault(variable, {})
        first = reports.get(period)
        if first is None or key < first[0]:
            reports[period] = (key, value)
    for variable, period in sorted(early):
        if period not in firsts.get(variable, {}):
            log.warning(
                "no stamp after period end for %s %s; value dropped", variable, period
            )
    table: dict[str, dict[str, tuple[float, tuple[int, int]]]] = {}
    for variable, reports in firsts.items():
        out = table[variable] = {}
        if transform == "none" or variable in UNTRANSFORMED_VARIABLES:
            for period, (key, value) in reports.items():
                out[period] = (value, key)
            continue
        for period, (key, level) in reports.items():
            base = reports.get(add_quarters(period, -4))
            if base is None or base[1] == 0.0:
                continue
            change = 100.0 * (level / base[1] - 1.0)
            if not math.isfinite(change):
                log.warning("yearly change of %s %s is not finite; value dropped", variable, period)
                continue
            if abs(change) > MAX_MAGNITUDE:
                log.warning("yearly change of %s %s exceeds %g; value dropped",
                            variable, period, MAX_MAGNITUDE)
                continue
            out[period] = (change, max(key, base[0]))
    return table


@dataclass(eq=False)
class Panel:
    """A forecast panel with derived lookup tables.

    The surveys, in period order, and the variables are those of the
    forecast table; each variable's horizons are read off it once. Panels,
    like their forecast tables, compare by identity.
    """

    forecasts: ForecastTable
    realizations: tuple[Release, ...]
    vintages: tuple[Release, ...]
    transform: str = "yearly_pct"

    surveys: tuple[str, ...] = field(init=False)
    variables: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        if self.transform not in ("yearly_pct", "none"):
            raise ValueError(f"unknown transform {self.transform!r}")
        f = self.forecasts
        self.surveys = f.surveys
        self.variables = frozenset(f.variables)
        # a presence grid, not np.unique, which would import numpy.ma on every run
        present = np.zeros((len(f.variables), int(f.horizon.max(initial=0)) + 1), dtype=bool)
        present[f.variable, f.horizon] = True
        self._horizons = {
            name: tuple(np.flatnonzero(row).tolist()) for name, row in zip(f.variables, present)
        }
        self._realized = _analysis_table(self.realizations, self.transform)

    def horizons(self, variable: str) -> tuple[int, ...]:
        return self._horizons.get(variable, ())

    def realization(self, variable: str, target: str) -> tuple[float, tuple[int, int]] | None:
        """First-reported analysis-unit value of a target period and when it is known.

        The value is known from the (year, month) of its stamp; a yearly
        change, from the later of the target's and the base period's stamps.
        None if a report is missing, the base level is zero or the change is
        not finite: such a target never matures.
        """
        return self._realized.get(variable, {}).get(target)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

Calibration = Mapping[str, float]
"""The evidence unit per variable: the largest absolute deviation of the
analysis-unit series from its mean, so the maximal-uncertainty bound covers
every observed value. The element count is 1 under the documented rule. A
constant series has no unit, ``math.inf``: the backtest clamps no noise."""


def calibrate_v(series_by_variable: Mapping[str, Sequence[float]]) -> Calibration:
    """Calibrate the evidence unit per variable from analysis-unit series.

    The norm of each variable is its arithmetic mean (summed in input
    order, for cross-platform determinism); the unit is the maximum
    absolute deviation from the norm. A constant series has no unit and
    calibrates to ``math.inf``; a positive unit below ``1 / MAX_MAGNITUDE``
    is rejected.
    """
    units: dict[str, float] = {}
    for variable in sorted(series_by_variable):
        series = list(series_by_variable[variable])
        if not series:
            raise CalibrationError(f"{variable}: empty calibration series")
        norm = sum(series) / len(series)
        unit = max(abs(x - norm) for x in series)
        if 0.0 < unit < 1.0 / MAX_MAGNITUDE:
            raise CalibrationError(
                f"{variable}: evidence unit {unit:g} is below {1.0 / MAX_MAGNITUDE:g}"
            )
        units[variable] = unit or math.inf  # a constant series has no unit
    return units


def calibration_series(panel: Panel) -> dict[str, list[float]]:
    """Analysis-unit series per variable from the vintage table's first reports."""
    table = _analysis_table(panel.vintages, panel.transform)
    return {
        variable: [table[variable][p][0] for p in sorted(table[variable], key=period_key)]
        for variable in sorted(table)
    }


# ---------------------------------------------------------------------------
# Loading and writing
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """A panel number: finite and at most ``MAX_MAGNITUDE`` in magnitude."""
    value = float(text)
    if abs(value) <= MAX_MAGNITUDE:
        return value
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    raise ValueError(f"number {text!r} exceeds {MAX_MAGNITUDE:g} in magnitude")


def _period(text: str) -> str:
    parse_period(text)
    return text


def _stamp(text: str) -> str:
    asof_key(text)
    return text


def _in_horizon_range(horizon: int) -> int:
    if not MIN_HORIZON <= horizon <= MAX_HORIZON:
        raise PanelError(f"horizon {horizon} outside {MIN_HORIZON}..{MAX_HORIZON}")
    return horizon


def _admit(record: list[str], memos: list[dict[str, int]], distinct: list[list],
           checks: Sequence[tuple[int, Callable]]) -> list[int]:
    """A record's codes, parsing its new strings in check order and then memoising them."""
    parsed = list(record)
    for column, check in checks:
        if record[column] not in memos[column]:
            parsed[column] = check(parsed[column])
    codes = []
    for memo, values, text, value in zip(memos, distinct, record, parsed):
        code = memo.get(text)
        if code is None:
            code = memo[text] = len(values)
            values.append(value)
        codes.append(code)
    return codes


def _encoder(memos: list[dict[str, int]]) -> Callable[[list[str]], tuple[int, ...]]:
    """A record's codes, one subscript of a memo per field, for records of ``len(memos)`` fields.

    Unpacking a record of another width raises ``ValueError``, and a string
    not yet memoised raises ``KeyError``; the reader tells the two apart.
    The schemas have four and five columns.
    """
    if len(memos) == 5:
        m0, m1, m2, m3, m4 = memos

        def encode(record: list[str]) -> tuple[int, ...]:
            a, b, c, d, e = record
            return m0[a], m1[b], m2[c], m3[d], m4[e]
    else:
        m0, m1, m2, m3 = memos

        def encode(record: list[str]) -> tuple[int, ...]:
            a, b, c, d = record
            return m0[a], m1[b], m2[c], m3[d]
    return encode


def _read_codes(
    path: str, header: tuple[str, ...], checks: Sequence[tuple[int, Callable]], key: Sequence[int],
    what: str,
) -> tuple[list[list], np.ndarray, np.ndarray]:
    """The accepted records of one panel file as codes, in file order, from one pass,
    and the order that sorts them by their parsed ``key`` columns, ``key[0]`` first.

    Each column maps its strings to codes in first-seen order, and
    ``distinct[j][c]`` is the parsed value of column j's code c. ``checks``
    lists ``(column, check)`` steps in the order they run; a step gets the
    string, or the column's last step's result, and raises to reject the
    record. The strings of an accepted record are memoised, so a record of
    known strings costs one unpacking and one subscript per field
    (:func:`_encoder`); a string that fails is not memoised.

    A record is named by the physical line it ends on, so one holding a
    quoted line break is named by its last line. A record of the wrong
    width, or one that a step fails on, is rejected with a line-numbered
    warning; a blank line is skipped silently. Two records whose parsed
    ``key`` columns agree raise :class:`DuplicateRowError` naming both
    lines and the key, in column order, after the warnings of the lines
    before; the repeats are found on the sorted order, and only then is the
    file read again, up to the repeat, for the lines of its records
    (:func:`_accepted_lines`). A file with no record of the right width
    warns that it holds no rows. A leading byte-order mark is dropped, and a
    file that is not UTF-8 text raises :class:`SchemaError` (:func:`_not_utf8`).
    """
    width = len(header)
    memos: list[dict[str, int]] = [{} for _ in header]
    encode = _encoder(memos)
    distinct: list[list] = [[] for _ in header]
    codes: list[int] = []
    rejects: list[tuple[int, str]] = []
    rejected = 0
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                got = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file, expected header {','.join(header)}")
            if tuple(got) != header:
                raise SchemaError(
                    f"{path}: header {','.join(got)!r} does not match {','.join(header)!r}"
                )
            for record in reader:
                try:
                    codes += encode(record)
                except ValueError:  # the wrong width
                    if record:
                        rejects.append((reader.line_num, f"expected {width} columns, got {len(record)}"))
                    continue
                except KeyError:  # a string not seen yet
                    try:
                        codes += _admit(record, memos, distinct, checks)
                    except (PanelError, ValueError) as exc:
                        rejects.append((reader.line_num, str(exc)))
                        rejected += 1
                        continue
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    table = np.fromiter(codes, dtype=np.intp, count=len(codes)).reshape(-1, width)
    ranks = [_ranks(distinct[j])[table[:, j]] for j in key]
    spans = [int(r.max(initial=-1)) + 1 for r in ranks]
    if math.prod(spans) <= np.iinfo(np.int64).max:  # one mixed-radix column sorts faster
        packed = ranks[0]
        for r, span in zip(ranks[1:], spans[1:]):
            packed = packed * span + r
        ranks = [packed]
    order = np.lexsort(ranks[::-1])
    repeat = _first_repeat(order, ranks)
    if repeat is not None:
        earlier, later = repeat
        lines = _accepted_lines(path, encode, later)
        first, second = lines[earlier], lines[later]
    for line_no, reason in rejects:
        if repeat is not None and line_no > second:
            break
        log.warning("%s:%d: %s; row rejected", path, line_no, reason)
    if repeat is not None:
        raise DuplicateRowError(
            f"{path}: duplicate {what} {tuple(distinct[j][table[earlier, j]] for j in sorted(key))} "
            f"at lines {first} and {second}"
        )
    if not codes and not rejected:
        log.warning("%s: no %s rows", path, what)
    return distinct, table, order


def _first_repeat(order: np.ndarray, key: list[np.ndarray]) -> tuple[int, int] | None:
    """(earlier record, record), by place in the file, of the first record whose key repeats.

    ``key`` holds rank columns, one per field or one packing the whole key,
    and ``order`` sorts the records by them, stably.
    """
    ranked = [k[order] for k in key]
    repeats = np.flatnonzero(np.logical_and.reduce([k[1:] == k[:-1] for k in ranked]))
    if not repeats.size:
        return None
    i = repeats[np.argmin(order[repeats + 1])]
    return int(order[i]), int(order[i + 1])


def _accepted_lines(path: str, encode: Callable, last: int) -> list[int]:
    """The physical line each accepted record of a file ends on, up to record ``last``, read again.

    A record was accepted exactly when it has the file's width and every
    string of it is memoised: a string is memoised once an accepted record
    holds it, and a string that fails its checks fails them in every
    record. So ``encode``, over the final memos, picks out the same records
    as the reading pass, which keeps no line per record.
    """
    lines: list[int] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for record in reader:
            try:
                encode(record)
            except (ValueError, KeyError):
                continue
            lines.append(reader.line_num)
            if len(lines) > last:
                break
    return lines


def _not_utf8(path: str) -> SchemaError:
    """The error for a file that is not UTF-8 text, naming the physical line of its first bad byte.

    A text read fails a chunk past the line it has reached, so only this
    path reads the file again, whole, as bytes. A bad byte is never ASCII,
    and the lines up to it end at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as
    in the text reads.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return SchemaError(f"{path}:{len(data[:exc.start + 1].splitlines())}: not UTF-8 text")
    return SchemaError(f"{path}: not UTF-8 text")  # it changed since the text read


def _releases(path: str, header: tuple[str, ...], columns: tuple[int, int, int, int],
              checks: Sequence[tuple[int, Callable]], what: str) -> tuple[Release, ...]:
    """The accepted records of a report file as :class:`Release` rows, in file order.

    ``columns`` holds the file column of each :class:`Release` field; the
    key is the variable, period and stamp, named in file column order.
    """
    distinct, table, _ = _read_codes(path, header, checks, sorted(columns[:3]), what)
    return tuple(map(Release, *(map(distinct[j].__getitem__, table[:, j].tolist())
                                for j in columns)))


def load_panel(forecast_path: str, realization_path: str, vintage_path: str) -> Panel:
    """Load and validate the three panel files.

    Rows that fail invariants (bad periods or stamps, horizons outside
    1..5, unparseable or non-finite numbers) are rejected with
    line-numbered diagnostics, in line order; duplicate keys raise
    :class:`DuplicateRowError` naming both lines. Keys compare parsed
    values, so horizons written ``3`` and ``03`` are one key. Each file is
    read by one per-row reader that turns every field into a code with one
    subscript, parsing each distinct string once; the forecast codes go
    straight into the panel's :class:`ForecastTable`.
    """
    # keyed in table order, so the sort that finds repeats also orders the table
    (surveys, variables, horizons, forecasters, values), codes, order = _read_codes(
        forecast_path, FORECAST_HEADER,
        ((0, _period), (2, int), (4, _finite_float), (2, _in_horizon_range)),
        (1, 0, 2, 3), "forecast",
    )
    forecasts = ForecastTable.from_codes(
        surveys, variables, forecasters, codes[:, 0], codes[:, 1],
        np.array(horizons, dtype=np.intp)[codes[:, 2]], codes[:, 3],
        np.array(values, dtype=np.float64)[codes[:, 4]], order,
    )
    realizations = _releases(realization_path, REALIZATION_HEADER, (1, 0, 3, 2),
                             ((0, _period), (3, _stamp), (2, _finite_float)), "realization")
    vintages = _releases(vintage_path, VINTAGE_HEADER, (1, 2, 0, 3),
                         ((0, _stamp), (2, _period), (3, _finite_float)), "vintage")
    return Panel(forecasts=forecasts, realizations=realizations, vintages=vintages)


class _LineFeedEnds:
    """A text file that receives ``\\r\\n``-ended lines and writes them ``\\n``-ended."""

    def __init__(self, fh) -> None:
        self.fh = fh

    def write(self, line: str) -> int:
        return self.fh.write(line[:-2] + "\n")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as UTF-8 CSV with ``\\n`` line ends.

    Floats are written as ``repr``, and a field holding ``,``, ``"``, ``\\n``
    or ``\\r`` is quoted, so :func:`load_panel` reads it back. ``csv`` quotes
    only the characters of its line terminator: lines end in ``\\r\\n``
    and lose the ``\\r`` on the way to the file.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(_LineFeedEnds(fh), lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Synthetic panels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Generator settings for a detection-walk-faithful synthetic panel.

    ``turnover`` is an annualized replacement rate; with quarterly surveys
    the per-survey exit probability is 1 - (1 - turnover) ** (1/4).
    Reliability draws: ``const`` gives every entrant ``p_value``;
    ``uniform`` draws from [p_low, p_high]; ``two_point`` gives ``p_high``
    with probability ``p_share_high`` and ``p_low`` otherwise; both need
    ``p_low <= p_high``. Longer horizons subtract ``p_decay``, finite and
    nonnegative, per step, floored at 0.5. The panel has one variable,
    ``SYNTH_VARIABLE``, with norm ``SYNTH_NORM``, and its periods start in
    ``SYNTH_START_YEAR``; ``count`` and ``unit`` have the bounds of the
    :class:`Environment` the panel is generated from.
    """

    num_forecasters: int
    num_surveys: int
    seed: int
    turnover: float = 0.0
    horizons: int = 1
    count: int = 64
    unit: float = 0.125
    p_dist: str = "const"
    p_value: float = 0.8
    p_low: float = 0.7
    p_high: float = 0.95
    p_share_high: float = 0.5
    p_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.num_forecasters < 1 or self.num_surveys < 1:
            raise ValueError("need at least one forecaster and one survey")
        if not 0.0 <= self.turnover < 1.0:
            raise ValueError(f"turnover must lie in [0, 1), got {self.turnover!r}")
        if not MIN_HORIZON <= self.horizons <= MAX_HORIZON:
            raise ValueError(f"horizons must lie in {MIN_HORIZON}..{MAX_HORIZON}")
        if self.p_dist not in ("const", "uniform", "two_point"):
            raise ValueError(f"unknown p_dist {self.p_dist!r}")
        for name in ("p_value", "p_low", "p_high"):
            value = getattr(self, name)
            if not 0.5 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0.5, 1], got {value!r}")
        if not 0.0 <= self.p_share_high <= 1.0:
            raise ValueError("p_share_high must lie in [0, 1]")
        if self.p_dist != "const" and self.p_low > self.p_high:
            raise ValueError(f"p_low must not exceed p_high, got {self.p_low!r} > {self.p_high!r}")
        if not 0.0 <= self.p_decay < math.inf:  # false for NaN
            raise ValueError(f"p_decay must be nonnegative and finite, got {self.p_decay!r}")
        Environment(SYNTH_NORM, self.count, self.unit, self.count)


_SYNTH_FIELD_TYPES = {f.name: f.type for f in fields(SynthConfig)}


def load_synth_config(path: str, seed_override: int | None = None) -> SynthConfig:
    """Parse a flat ``key = value`` generator config file.

    A ``#`` starts a comment to the end of its line, blank lines are skipped
    and a leading byte-order mark is dropped. An unknown key, a repeated key
    (named with both lines), a value not of its key's type or a file that is
    not UTF-8 text (:func:`_not_utf8`) is an error.
    ``seed`` may be left to the caller, whose override always wins.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.partition("#")[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SchemaError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
                name, _, text = line.partition("=")
                name, text = name.strip(), text.strip()
                if name not in _SYNTH_FIELD_TYPES:
                    raise SchemaError(f"{path}:{line_no}: unknown key {name!r}")
                if name in lines:
                    raise SchemaError(f"{path}: duplicate key {name!r} at lines {lines[name]} and {line_no}")
                lines[name] = line_no
                kind = _SYNTH_FIELD_TYPES[name]
                try:
                    if kind == "int":
                        values[name] = int(text)
                    elif kind == "float":
                        values[name] = float(text)
                    else:
                        values[name] = text
                except ValueError:
                    raise SchemaError(
                        f"{path}:{line_no}: {name} = {text!r} is not a valid {kind}") from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if seed_override is not None:
        values["seed"] = seed_override
    if "seed" not in values:
        raise MissingSeedError(f"{path}: no seed in file and none supplied")
    return SynthConfig(**values)  # type: ignore[arg-type]


def synth_panel(config: SynthConfig) -> Panel:
    """Generate a reproducible panel of detection-walk forecasts.

    Each period draws a net deviation as a sum of fair element signs, and
    the realized value is the environment's true magnitude. The roster is
    ``num_forecasters`` seats, each holding a forecaster's id and base
    reliability; an entrant with the next id takes a leaver's seat in place.
    The stream is drawn in this order: the deviations; the initial
    reliabilities, seat by seat; at each later survey, for each seat, an exit
    uniform and, if its forecaster leaves, the entrant's reliability; then
    one :func:`sample_estimate_each` block over the seats per horizon, at the
    base reliability less ``p_decay`` per step.
    """
    rng = np.random.default_rng(config.seed)
    n_surveys, n_horizons, n_seats = config.num_surveys, config.horizons, config.num_forecasters
    n_periods = n_surveys + n_horizons - 1
    first = SYNTH_START_YEAR * 4
    periods = [format_period((first + i) // 4, (first + i) % 4 + 1) for i in range(n_periods + 1)]
    deviations = (2 * rng.binomial(config.count, 0.5, size=n_periods) - config.count).tolist()

    def draw_p() -> float:
        if config.p_dist == "const":
            return config.p_value
        if config.p_dist == "uniform":
            return float(rng.uniform(config.p_low, config.p_high))
        return config.p_high if rng.random() < config.p_share_high else config.p_low

    seat_id = np.arange(n_seats)
    seat_p = np.array([draw_p() for _ in range(n_seats)])
    exit_prob = 1.0 - (1.0 - config.turnover) ** 0.25
    ids = np.empty((n_surveys, n_horizons, n_seats), dtype=np.intp)
    values = np.empty(ids.shape)
    for s in range(n_surveys):
        if s > 0 and exit_prob > 0.0:
            for seat in range(n_seats):
                if rng.random() < exit_prob:
                    # the newest id always holds a seat, so the next is one past the largest
                    seat_id[seat], seat_p[seat] = seat_id.max() + 1, draw_p()
        ids[s] = seat_id
        for h in range(n_horizons):
            env = Environment(norm=SYNTH_NORM, count=config.count, unit=config.unit,
                              deviation=deviations[s + h])
            values[s, h] = sample_estimate_each(
                np.clip(seat_p - config.p_decay * h, 0.5, 1.0), env, rng)
    survey, horizon, _ = np.indices(ids.shape)
    releases = tuple(Release(SYNTH_VARIABLE, periods[i], periods[i + 1], SYNTH_NORM + t * config.unit)
                     for i, t in enumerate(deviations))
    return Panel(
        forecasts=ForecastTable.from_codes(
            periods[:n_surveys], (SYNTH_VARIABLE,), [f"F{i + 1:04d}" for i in range(ids.max() + 1)],
            survey.ravel(), np.zeros(ids.size, dtype=np.intp), horizon.ravel() + 1,
            ids.ravel(), values.ravel(),
        ),
        realizations=releases,
        vintages=releases,
        transform="none",
    )
