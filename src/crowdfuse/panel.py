"""Survey panel ingestion, target construction, calibration, and synthesis.

A panel holds quarterly forecasts (per survey, variable, horizon, and
forecaster), realized values as first reported, and vintage level series.
File schemas (UTF-8 CSV, mandatory header, ``.`` decimal separator,
periods formatted ``YYYYQn``, stamps ``YYYYQn`` or ``YYYY-MM[-DD]`` with a
month of 1-12 and a day of 1-31):

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
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .quincunx import Environment, sample_estimate_each

log = logging.getLogger(__name__)

FORECAST_HEADER = ["survey", "variable", "horizon", "forecaster_id", "value"]
REALIZATION_HEADER = ["target", "variable", "value", "vintage"]
VINTAGE_HEADER = ["asof", "variable", "period", "level"]

UNTRANSFORMED_VARIABLES = frozenset({"UNEMP"})

MIN_HORIZON = 1
MAX_HORIZON = 5

_PERIOD_RE = re.compile(r"^(\d{4})Q([1-4])$")
_DATE_RE = re.compile(r"^(\d{4})-(\d{2})(?:-(\d{2}))?$")


class PanelError(ValueError):
    """Base error for panel files and derived quantities."""


class SchemaError(PanelError):
    """A file's header does not match the documented schema."""


class DuplicateRowError(PanelError):
    """Two rows share a key that must be unique."""


class MissingLevelError(PanelError):
    """A level needed for the percentage-change transform is absent."""


class ZeroBaseError(PanelError):
    """The lagged level is zero, so the percentage change is undefined."""


class CalibrationError(PanelError):
    """The calibration series is empty or constant."""


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


def asof_key(text: str) -> tuple[int, int]:
    """(year, month) ordering key for a vintage stamp (YYYYQn or ISO date)."""
    m = _PERIOD_RE.match(text)
    if m:
        return int(m.group(1)), 3 * int(m.group(2))
    m = _DATE_RE.match(text)
    if m:
        year, month, day = int(m.group(1)), int(m.group(2)), int(m.group(3) or 1)
        if 1 <= month <= 12 and 1 <= day <= 31:
            return year, month
    raise PanelError(f"bad vintage stamp {text!r}, expected YYYYQn or YYYY-MM[-DD]")


# ---------------------------------------------------------------------------
# Rows and the panel
# ---------------------------------------------------------------------------

def _encode(column: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """A column's distinct strings in sorted order, and each entry's position among them."""
    names = sorted(set(column))
    at = {name: i for i, name in enumerate(names)}
    return tuple(names), np.array([at[x] for x in column], dtype=np.intp)


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
    def from_columns(cls, survey: Sequence[str], variable: Sequence[str], horizon: Sequence[int],
                     forecaster: Sequence[str], value: Sequence[float]) -> ForecastTable:
        """Encode parallel columns of forecasts and sort them into table order."""
        (surveys, s), (variables, v), (forecasters, f) = map(_encode, (survey, variable, forecaster))
        h = np.array(horizon, dtype=np.intp)
        x = np.array(value, dtype=np.float64)
        order = np.lexsort((f, h, s, v))
        return cls(surveys, variables, forecasters, s[order], v[order], h[order], f[order], x[order])

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[str, str, int, str, float]]) -> ForecastTable:
        """The table of (survey, variable, horizon, forecaster id, value) rows."""
        return cls.from_columns(*(zip(*rows) if rows else [()] * 5))

    def rows(self) -> list[tuple[str, str, int, str, float]]:
        """Each entry as a (survey, variable, horizon, forecaster id, value) row, in table order."""
        return list(zip(
            map(self.surveys.__getitem__, self.survey.tolist()),
            map(self.variables.__getitem__, self.variable.tolist()),
            self.horizon.tolist(),
            map(self.forecasters.__getitem__, self.forecaster.tolist()),
            self.value.tolist(),
        ))

    def __len__(self) -> int:
        return len(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ForecastTable) and self.rows() == other.rows()


@dataclass(frozen=True)
class RealizationRow:
    target: str
    variable: str
    value: float
    vintage: str


@dataclass(frozen=True)
class VintageRow:
    asof: str
    variable: str
    period: str
    level: float


def _analysis_table(
    rows: Iterable[tuple[str, str, str, float]], transform: str
) -> dict[str, dict[str, tuple[float, tuple[int, int]]]]:
    """First-reported analysis-unit values: ``{variable: {period: (value, known_by)}}``.

    A period's first report is the value at its earliest stamp after the
    period ends; on a tie the earlier row wins. Values stamped at or before
    the period end are dropped with a diagnostic. The yearly change of a
    period is known from the later of its two stamps; a period whose base
    report is missing or zero has no entry, nor has one whose change is not
    finite (with a diagnostic). UNEMP, and every variable under
    ``transform="none"``, passes through.
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
        levels = {period: value for period, (_, value) in reports.items()}
        for period, (key, _) in reports.items():
            try:
                change = to_yearly_pct_change(levels, period)
            except (MissingLevelError, ZeroBaseError):
                continue
            if not math.isfinite(change):
                log.warning("yearly change of %s %s is not finite; value dropped", variable, period)
                continue
            out[period] = (change, max(key, reports[add_quarters(period, -4)][0]))
    return table


@dataclass
class Panel:
    """A forecast panel with derived lookup tables.

    The surveys, in period order, and the variables are those of the
    forecast table; each variable's horizons are read off it once.
    """

    forecasts: ForecastTable
    realizations: tuple[RealizationRow, ...]
    vintages: tuple[VintageRow, ...]
    transform: str = "yearly_pct"

    surveys: tuple[str, ...] = field(init=False)
    variables: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        if self.transform not in ("yearly_pct", "none"):
            raise ValueError(f"unknown transform {self.transform!r}")
        f = self.forecasts
        self.surveys = f.surveys
        self.variables = frozenset(f.variables)
        self._horizons = {
            name: tuple(np.unique(f.horizon[f.variable == v]).tolist())
            for v, name in enumerate(f.variables)
        }
        self._realized = _analysis_table(
            ((r.variable, r.target, r.vintage, r.value) for r in self.realizations),
            self.transform,
        )

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
# Transform and calibration
# ---------------------------------------------------------------------------

def to_yearly_pct_change(levels: Mapping[str, float], target_period: str) -> float:
    """Yearly percentage change of a level series at a target period.

    100 * (x_t / x_{t-4} - 1) over the four-quarter lag. Variables already
    in percent (UNEMP) are left as they are by the callers, which do not
    call this for them.
    """
    lag_period = add_quarters(target_period, -4)
    if target_period not in levels or lag_period not in levels:
        raise MissingLevelError(
            f"need levels at {target_period} and {lag_period} for the yearly change"
        )
    base = levels[lag_period]
    if base == 0.0:
        raise ZeroBaseError(f"level at {lag_period} is zero")
    return 100.0 * (levels[target_period] / base - 1.0)


Calibration = Mapping[str, float]
"""The evidence unit per variable: the largest absolute deviation of the
analysis-unit series from its mean, so the maximal-uncertainty bound covers
every observed value. The element count is 1 under the documented rule."""


def calibrate_v(series_by_variable: Mapping[str, Sequence[float]]) -> Calibration:
    """Calibrate the evidence unit per variable from analysis-unit series.

    The norm of each variable is its arithmetic mean (summed in input
    order, for cross-platform determinism); the unit is the maximum
    absolute deviation from the norm.
    """
    units: dict[str, float] = {}
    for variable in sorted(series_by_variable):
        series = list(series_by_variable[variable])
        if not series:
            raise CalibrationError(f"{variable}: empty calibration series")
        norm = sum(series) / len(series)
        unit = max(abs(x - norm) for x in series)
        if unit == 0.0:
            raise CalibrationError(f"{variable}: constant series gives a zero unit")
        units[variable] = unit
    return units


def calibration_series(panel: Panel) -> dict[str, list[float]]:
    """Analysis-unit series per variable from the vintage table's first reports."""
    table = _analysis_table(
        ((v.variable, v.period, v.asof, v.level) for v in panel.vintages), panel.transform
    )
    return {
        variable: [table[variable][p][0] for p in sorted(table[variable], key=period_key)]
        for variable in sorted(table)
    }


# ---------------------------------------------------------------------------
# Loading and writing
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _read_rows(
    path: str,
    header: list[str],
    parse: Callable[[list[str]], tuple[tuple, str, object]],
    what: str,
) -> tuple:
    """The accepted rows of one panel file, in file order, from one pass.

    ``parse(record)`` returns a row's ``(cell, member, row)``; the key
    ``cell + (member,)`` must be unique, and a repeat raises
    :class:`DuplicateRowError` naming both lines. A record of the wrong
    width, or one that ``parse`` fails on, is rejected with a line-numbered
    warning; a blank line is skipped silently. A file with no record of the
    right width warns that it holds no rows.
    """
    rows: list = []
    seen: dict[tuple, dict[str, int]] = {}
    width = len(header)
    rejected = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected header {','.join(header)}")
        if got != header:
            raise SchemaError(
                f"{path}: header {','.join(got)!r} does not match {','.join(header)!r}"
            )
        for line_no, record in enumerate(reader, start=2):
            if len(record) != width:
                if record:
                    log.warning("%s:%d: expected %d columns, got %d; row rejected",
                                path, line_no, width, len(record))
                continue
            try:
                cell, member, row = parse(record)
            except (PanelError, ValueError) as exc:
                log.warning("%s:%d: %s; row rejected", path, line_no, exc)
                rejected += 1
                continue
            lines = seen.get(cell)
            if lines is None:
                lines = seen[cell] = {}
            elif member in lines:
                raise DuplicateRowError(
                    f"{path}: duplicate {what} {cell + (member,)} at lines "
                    f"{lines[member]} and {line_no}"
                )
            lines[member] = line_no
            rows.append(row)
    if not rows and not rejected:
        log.warning("%s: no %s rows", path, what)
    return tuple(rows)


def load_panel(forecast_path: str, realization_path: str, vintage_path: str) -> Panel:
    """Load and validate the three panel files.

    Rows that fail invariants (bad periods or stamps, horizons outside
    1..5, unparseable or non-finite numbers) are rejected with
    line-numbered diagnostics, in line order; duplicate keys raise
    :class:`DuplicateRowError` naming both lines. Each distinct survey
    string of the forecast file is parsed once and each distinct horizon
    string converted once; a string that fails is not memoized, so every
    line that holds it is rejected with the same message. Variable and
    forecaster strings are interned, so the accepted rows share one copy
    of each on their way into the panel's :class:`ForecastTable`.
    """
    periods: dict[str, str] = {}
    horizons: dict[str, int] = {}

    def forecast(record: list[str]) -> tuple[tuple[str, str, int], str, tuple]:
        survey_s, variable, horizon_s, forecaster, value_s = record
        survey = periods.get(survey_s)
        if survey is None:
            parse_period(survey_s)
            survey = periods[survey_s] = survey_s
        horizon = horizons.get(horizon_s)
        if horizon is None:
            horizon = horizons[horizon_s] = int(horizon_s)
        value = _finite_float(value_s)
        if not MIN_HORIZON <= horizon <= MAX_HORIZON:
            raise PanelError(f"horizon {horizon} outside {MIN_HORIZON}..{MAX_HORIZON}")
        cell = (survey, sys.intern(variable), horizon)
        return cell, forecaster, cell + (sys.intern(forecaster), value)

    def realization(record: list[str]) -> tuple[tuple[str, str], str, RealizationRow]:
        target, variable, value_s, vintage = record
        parse_period(target)
        asof_key(vintage)
        value = _finite_float(value_s)
        return (target, variable), vintage, RealizationRow(target, variable, value, vintage)

    def vintage(record: list[str]) -> tuple[tuple[str, str], str, VintageRow]:
        asof, variable, period, level_s = record
        asof_key(asof)
        parse_period(period)
        level = _finite_float(level_s)
        return (asof, variable), period, VintageRow(asof, variable, period, level)

    return Panel(
        forecasts=ForecastTable.from_rows(
            _read_rows(forecast_path, FORECAST_HEADER, forecast, "forecast")
        ),
        realizations=_read_rows(realization_path, REALIZATION_HEADER, realization, "realization"),
        vintages=_read_rows(vintage_path, VINTAGE_HEADER, vintage, "vintage"),
    )


def write_panel(
    panel: Panel, forecast_path: str, realization_path: str, vintage_path: str
) -> None:
    """Write the three files in canonical form, with repr floats.

    Forecasts are written in table order, by (variable, survey, horizon,
    forecaster id); realizations and vintages in their row order.
    """
    with open(forecast_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(FORECAST_HEADER) + "\n")
        for survey, variable, horizon, forecaster, value in panel.forecasts.rows():
            fh.write(f"{survey},{variable},{horizon},{forecaster},{value!r}\n")
    with open(realization_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(REALIZATION_HEADER) + "\n")
        for r in panel.realizations:
            fh.write(f"{r.target},{r.variable},{r.value!r},{r.vintage}\n")
    with open(vintage_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(VINTAGE_HEADER) + "\n")
        for r in panel.vintages:
            fh.write(f"{r.asof},{r.variable},{r.period},{r.level!r}\n")


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
    with probability ``p_share_high`` and ``p_low`` otherwise. Longer
    horizons subtract ``p_decay`` per step, floored at 0.5.
    """

    num_forecasters: int
    num_surveys: int
    seed: int
    turnover: float = 0.0
    horizons: int = 1
    variable: str = "SYN"
    norm: float = 100.0
    count: int = 64
    unit: float = 0.125
    p_dist: str = "const"
    p_value: float = 0.8
    p_low: float = 0.7
    p_high: float = 0.95
    p_share_high: float = 0.5
    p_decay: float = 0.0
    start_year: int = 2000

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
        if self.p_decay < 0.0:
            raise ValueError("p_decay must be nonnegative")
        if self.count < 1 or not self.unit > 0.0:
            raise ValueError("count must be >= 1 and unit positive")


_SYNTH_FIELD_TYPES = {f.name: f.type for f in fields(SynthConfig)}


def load_synth_config(path: str, seed_override: int | None = None) -> SynthConfig:
    """Parse a flat ``key = value`` generator config file.

    Lines starting with ``#`` and blank lines are skipped. ``seed`` may be
    omitted from the file when supplied by the caller; an explicit override
    always wins.
    """
    values: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
            name, _, text = line.partition("=")
            name, text = name.strip(), text.strip()
            if name not in _SYNTH_FIELD_TYPES:
                raise SchemaError(f"{path}:{line_no}: unknown key {name!r}")
            kind = _SYNTH_FIELD_TYPES[name]
            if kind == "int":
                values[name] = int(text)
            elif kind == "float":
                values[name] = float(text)
            else:
                values[name] = text
    if seed_override is not None:
        values["seed"] = seed_override
    if "seed" not in values:
        raise MissingSeedError(f"{path}: no seed in file and none supplied")
    return SynthConfig(**values)  # type: ignore[arg-type]


def synth_panel(config: SynthConfig) -> Panel:
    """Generate a reproducible panel of detection-walk forecasts.

    Every period draws a net deviation as a sum of fair element signs; the
    realized value is the environment's true magnitude; each active
    forecaster submits a walk estimate at their effective reliability.
    Entrants replace leavers one for one, keeping the roster size constant.
    Each (survey, horizon) draws the whole roster's estimates in one block,
    which consumes the stream as one draw per forecaster would, and the
    columns go into the forecast table as they are.
    """
    rng = np.random.default_rng(config.seed)
    n_periods = config.num_surveys + config.horizons - 1
    first = config.start_year * 4
    periods = [format_period((first + i) // 4, (first + i) % 4 + 1) for i in range(n_periods + 1)]

    deviations = [int(2 * rng.binomial(config.count, 0.5) - config.count) for _ in range(n_periods)]

    def draw_p() -> float:
        if config.p_dist == "const":
            return config.p_value
        if config.p_dist == "uniform":
            return float(rng.uniform(config.p_low, config.p_high))
        return config.p_high if rng.random() < config.p_share_high else config.p_low

    next_id = 0

    def new_forecaster() -> tuple[str, float]:
        nonlocal next_id
        next_id += 1
        return f"F{next_id:04d}", draw_p()

    roster = [new_forecaster() for _ in range(config.num_forecasters)]
    exit_prob = 1.0 - (1.0 - config.turnover) ** 0.25

    surveys: list[str] = []
    horizons: list[int] = []
    ids: list[str] = []
    values: list[float] = []
    for s in range(config.num_surveys):
        if s > 0 and exit_prob > 0.0:
            roster = [
                member if rng.random() >= exit_prob else new_forecaster()
                for member in roster
            ]
        roster_ids = [fid for fid, _ in roster]
        p_base = np.array([p for _, p in roster])
        for h in range(1, config.horizons + 1):
            env = Environment(
                norm=config.norm,
                count=config.count,
                unit=config.unit,
                deviation=deviations[s + h - 1],
            )
            ps = np.clip(p_base - config.p_decay * (h - 1), 0.5, 1.0)
            values.extend(sample_estimate_each(ps, env, rng))
            ids.extend(roster_ids)
            surveys.extend([periods[s]] * len(roster))
            horizons.extend([h] * len(roster))

    realizations = []
    vintages = []
    for i, t in enumerate(deviations):
        value = config.norm + t * config.unit
        stamp = periods[i + 1]
        realizations.append(RealizationRow(periods[i], config.variable, value, stamp))
        vintages.append(VintageRow(stamp, config.variable, periods[i], value))

    return Panel(
        forecasts=ForecastTable.from_columns(
            surveys, [config.variable] * len(values), horizons, ids, values
        ),
        realizations=tuple(realizations),
        vintages=tuple(vintages),
        transform="none",
    )
