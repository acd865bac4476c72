"""Rolling backtest of aggregation rules over a panel.

Surveys are processed in order. For each variable-horizon cell the engine
matures realized errors as soon as their first report is stamped (never
earlier), updates forecaster reliabilities and contributions from them,
builds the eligible slice (two matured errors required), lets every rule
estimate, and scores the estimates against the first-reported realization.
State updates always happen after the estimates that would use them, so an
estimate at survey i is a pure function of forecasts at i and of
realizations stamped by i.

Outputs: per-cell RMSE, Diebold-Mariano comparisons against the
contribution-weighted rule, per-cell diagnostics, and the top-n subset
sweep behind the smaller-wiser-crowd curves. One rolling pass per cell
serves the plain backtest and every subset size at once.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .aggregation import (
    ALL_RULES,
    RULE_CWM,
    fold_survey,
    rank_by_reliability,
    rule_estimates,
)
from .panel import Calibration, Panel, add_quarters, period_end_month
from .quincunx import noise_from_p, p_from_mse

RMSE_CSV_HEADER = "variable,horizon,rule,rmse,n_surveys"
DM_CSV_HEADER = "variable,horizon,rule,stat,p_value"
SWEEP_CSV_HEADER = "horizon,rule,n_included,rmse"
DIAGNOSTICS_CSV_HEADER = "variable,horizon,median_p_hat,cwm_fallback_surveys,skipped_surveys"

_RULE_ORDER = {rule: i for i, rule in enumerate(ALL_RULES)}
_MIN_DM_LENGTH = 8


class EmptyPanelError(ValueError):
    """The panel holds no forecasts to backtest."""


@dataclass(frozen=True)
class RmseCell:
    variable: str
    horizon: int
    rule: str
    rmse: float
    n_surveys: int

    def __post_init__(self) -> None:
        if not math.isnan(self.rmse) and self.rmse < 0.0:
            raise ValueError("rmse must be nonnegative")


@dataclass(frozen=True)
class DmCell:
    variable: str
    horizon: int
    rule: str
    stat: float
    p_value: float

    @property
    def direction(self) -> int:
        return 0 if self.stat == 0.0 else (1 if self.stat > 0.0 else -1)


@dataclass(frozen=True)
class CellDiagnostics:
    variable: str
    horizon: int
    median_p_hat: float
    cwm_fallback_surveys: int
    skipped_surveys: int


@dataclass(frozen=True)
class SweepPoint:
    horizon: int
    rule: str
    n_included: int
    rmse: float


@dataclass
class BacktestReport:
    cells: list[RmseCell]
    dm: list[DmCell]
    diagnostics: list[CellDiagnostics]


def dm_test(
    errors_a: Sequence[float],
    errors_b: Sequence[float],
    horizon: int,
    hln: bool = False,
) -> tuple[float, float]:
    """Diebold-Mariano test on squared-error loss, one-sided lower tail.

    The loss differential is a_t^2 - b_t^2; its long-run variance uses the
    rectangular kernel truncated at lag horizon - 1 (falling back to the
    lag-0 term if the truncated sum turns nonpositive). Small p-values mean
    the first series' losses are smaller. A differential with zero variance
    is degenerate and reports (0, 0.5). ``hln`` applies the small-sample
    stat correction.
    """
    a = np.asarray(errors_a, dtype=np.float64)
    b = np.asarray(errors_b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("error series must be equal-length 1-D sequences")
    t = a.size
    if t < _MIN_DM_LENGTH:
        raise ValueError(f"need at least {_MIN_DM_LENGTH} aligned observations, got {t}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    d = a * a - b * b
    dbar = float(d.mean())
    dc = d - dbar
    gamma0 = float(dc @ dc) / t
    lrv = gamma0
    for lag in range(1, horizon):
        if lag >= t:
            break
        lrv += 2.0 * float(dc[lag:] @ dc[:-lag]) / t
    if lrv <= 0.0:
        lrv = gamma0
    if lrv == 0.0:
        return 0.0, 0.5
    stat = dbar / math.sqrt(lrv / t)
    if hln:
        stat *= math.sqrt((t + 1 - 2 * horizon + horizon * (horizon - 1) / t) / t)
    p_value = 0.5 * math.erfc(-stat / math.sqrt(2.0))
    return float(stat), float(p_value)


@dataclass
class CellTrail:
    """What one eligible-set limit of a variable-horizon cell produced.

    Every rule estimates on the same surveys and is scored on those with a
    realization, so the per-rule ``errors`` lists align survey by survey.
    ``p_hats``, the reliabilities behind each survey's estimates, is
    collected for the unrestricted (``None``) limit only, whose diagnostics
    report their median.
    """

    estimates: dict[str, list[tuple[str, float]]]
    errors: dict[str, list[float]]
    p_hats: list[float] = field(default_factory=list)
    fallback_surveys: int = 0
    skipped_surveys: int = 0


def _run_cell(
    panel: Panel,
    variable: str,
    horizon: int,
    rules: Sequence[str],
    calib: Calibration,
    limits: Sequence[int | None],
    window: int | None,
) -> dict[int | None, CellTrail]:
    """Roll one variable-horizon cell through the surveys, once for all limits.

    A limit n keeps the n most reliable of each survey's eligible set and
    ``None`` keeps all of it. Error histories, MSEs and reliabilities depend
    only on the cell; contribution means depend on the eligible sets, so
    each limit keeps its own. Each survey's slices are scheduled once, to
    mature at the first later survey whose quarter ends no earlier than
    their realization's stamp; a target that never gets a value is never
    scheduled.
    """
    count, unit = calib.pair(variable)
    surveys = panel.surveys
    end_months = [period_end_month(s) for s in surveys]
    history: dict[str, list[float]] = {}
    mse: dict[str, float] = {}
    p_hats: dict[str, float] = {}
    noise: dict[str, float] = {}
    contributions: dict[int | None, dict[str, float]] = {n: {} for n in limits}
    counts: dict[int | None, dict[str, int]] = {n: {} for n in limits}
    # per matured survey: its forecasts, each limit's (sorted ids, values), the realized value
    maturing: dict[
        int, list[tuple[dict[str, float], dict[int | None, tuple[list[str], list[float]]], float]]
    ] = {}
    trails = {n: CellTrail({r: [] for r in rules}, {r: [] for r in rules}) for n in limits}
    slots = [(rule, _RULE_ORDER[rule]) for rule in rules]
    ranking = any(n is not None for n in limits)

    for idx, survey in enumerate(surveys):
        for forecasts, members, realized in maturing.pop(idx, ()):
            for n, (ids, values) in members.items():
                fold_survey(contributions[n], counts[n], ids, values, realized)
            for j, x in forecasts.items():
                errors = history.setdefault(j, [])
                errors.append((x - realized) ** 2)
                scored = errors if window is None else errors[-window:]
                mse[j] = sum(scored) / len(scored)
                p = p_hats[j] = p_from_mse(mse[j], count, unit)
                noise[j] = noise_from_p(p)

        forecasts = panel.forecasts_at(survey, variable, horizon)
        if not forecasts:
            continue
        eligible = sorted(j for j in forecasts if len(history.get(j, ())) >= 2)
        everyone = (eligible, [forecasts[j] for j in eligible])
        ranked = rank_by_reliability(eligible, p_hats, mse) if ranking else eligible
        realization = panel.realization(variable, add_quarters(survey, horizon - 1))
        members = {}
        for n, trail in trails.items():
            if n is None or n >= len(eligible):
                ids, values = members[n] = everyone
            else:
                ids = sorted(ranked[:n])
                values = [forecasts[j] for j in ids]
                members[n] = (ids, values)
            if not ids:
                trail.skipped_surveys += 1
                continue
            if n is None:
                trail.p_hats.extend(map(p_hats.__getitem__, ids))
            *estimates, fallback = rule_estimates(ids, values, noise, contributions[n])
            for rule, slot in slots:
                trail.estimates[rule].append((survey, estimates[slot]))
                if realization is not None:
                    trail.errors[rule].append(estimates[slot] - realization[0])
            if realization is None:
                trail.skipped_surveys += 1
            elif fallback:
                trail.fallback_surveys += 1

        if realization is not None:
            # stamped after the target quarter ends, so after this survey: a later bucket
            known = bisect.bisect_left(end_months, realization[1])
            if known < len(surveys):
                maturing.setdefault(known, []).append((forecasts, members, realization[0]))
    return trails


def cell_estimates(
    panel: Panel,
    variable: str,
    horizon: int,
    rules: Sequence[str],
    calib: Calibration,
    window: int | None = None,
) -> dict[str, list[tuple[str, float]]]:
    """Per-rule (survey, estimate) trail for one cell; useful for audits."""
    _check_window(window)
    return _run_cell(panel, variable, horizon, rules, calib, (None,), window)[None].estimates


def _check_window(window: int | None) -> None:
    if window is not None and window < 1:
        raise ValueError(f"window must be a positive number of errors, got {window!r}")


def _check_inputs(panel: Panel, rules: Sequence[str], window: int | None) -> None:
    _check_window(window)
    if not panel.forecasts:
        raise EmptyPanelError("panel holds no forecasts")
    for rule in rules:
        if rule not in ALL_RULES:
            raise ValueError(f"unknown rule {rule!r}")


def _rmse_cell(variable: str, horizon: int, rule: str, errors: list[float]) -> RmseCell:
    rmse = math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else math.nan
    return RmseCell(variable, horizon, rule, rmse, len(errors))


def run_backtest(
    panel: Panel,
    rules: Sequence[str],
    calib: Calibration,
    window: int | None = None,
    hln: bool = False,
) -> BacktestReport:
    """Backtest the requested rules over every variable-horizon cell.

    RMSE covers the surveys where the rules produced estimates and a
    first-reported realization exists. Diebold-Mariano cells compare each
    rule's errors against the contribution-weighted rule's on those
    surveys, when there are at least eight. A ``window`` n (at least 1)
    estimates each forecaster's reliability from their last n errors only.
    """
    _check_inputs(panel, rules, window)
    cells: list[RmseCell] = []
    dm_cells: list[DmCell] = []
    diagnostics: list[CellDiagnostics] = []
    for variable in sorted(panel.variables):
        for horizon in panel.horizons(variable):
            trail = _run_cell(panel, variable, horizon, rules, calib, (None,), window)[None]
            errors = trail.errors
            diagnostics.append(CellDiagnostics(
                variable=variable,
                horizon=horizon,
                median_p_hat=float(np.median(trail.p_hats)) if trail.p_hats else math.nan,
                cwm_fallback_surveys=trail.fallback_surveys,
                skipped_surveys=trail.skipped_surveys,
            ))
            for rule in rules:
                cells.append(_rmse_cell(variable, horizon, rule, errors[rule]))
            if RULE_CWM in rules:
                for rule in rules:
                    if rule != RULE_CWM and len(errors[rule]) >= _MIN_DM_LENGTH:
                        stat, p_value = dm_test(errors[rule], errors[RULE_CWM], horizon, hln)
                        dm_cells.append(DmCell(variable, horizon, rule, stat, p_value))
    cells.sort(key=lambda c: (c.variable, c.horizon, _RULE_ORDER[c.rule]))
    dm_cells.sort(key=lambda c: (c.variable, c.horizon, _RULE_ORDER[c.rule]))
    diagnostics.sort(key=lambda c: (c.variable, c.horizon))
    return BacktestReport(cells=cells, dm=dm_cells, diagnostics=diagnostics)


def subset_sweep(
    panel: Panel,
    horizons: Sequence[int],
    n_range: Iterable[int],
    calib: Calibration,
    rules: Sequence[str] = ALL_RULES,
    aggregate: str = "mean",
    window: int | None = None,
) -> list[SweepPoint]:
    """RMSE curves as the eligible set shrinks to the best n forecasters.

    One rolling pass per variable-horizon cell serves every size n: each
    survey's eligible set is ranked by estimated reliability and cut to its
    top n. Each rule's RMSE is aggregated across variables, by default as
    the mean of per-variable RMSEs (``aggregate="pooled"`` pools the
    squared errors instead). A size at or above the largest eligible set
    reproduces the plain backtest.
    """
    if aggregate not in ("mean", "pooled"):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    sizes = sorted(set(n_range))
    if not sizes or sizes[0] < 1:
        raise ValueError("subset sizes must be positive")
    _check_inputs(panel, rules, window)
    horizons = sorted(set(horizons))
    scored: dict[tuple[int, str, int], list[RmseCell]] = {}
    for variable in sorted(panel.variables):
        for horizon in panel.horizons(variable):
            if horizon not in horizons:
                continue
            trails = _run_cell(panel, variable, horizon, rules, calib, sizes, window)
            for n, trail in trails.items():
                for rule in rules:
                    cell = _rmse_cell(variable, horizon, rule, trail.errors[rule])
                    if cell.n_surveys > 0:
                        scored.setdefault((horizon, rule, n), []).append(cell)
    points: list[SweepPoint] = []
    for n in sizes:
        for horizon in horizons:
            for rule in rules:
                matched = scored.get((horizon, rule, n))
                if not matched:
                    continue
                if aggregate == "mean":
                    rmse = sum(c.rmse for c in matched) / len(matched)
                else:
                    total = sum(c.rmse**2 * c.n_surveys for c in matched)
                    count = sum(c.n_surveys for c in matched)
                    rmse = math.sqrt(total / count)
                points.append(SweepPoint(horizon, rule, n, rmse))
    points.sort(key=lambda p: (p.horizon, _RULE_ORDER[p.rule], p.n_included))
    return points


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "" if math.isnan(x) else f"{x:.6f}"


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_rmse_csv(cells: Sequence[RmseCell], path: str) -> None:
    lines = [RMSE_CSV_HEADER]
    for c in cells:
        lines.append(f"{c.variable},{c.horizon},{c.rule},{_fmt(c.rmse)},{c.n_surveys}")
    _write_lines(path, lines)


def write_dm_csv(cells: Sequence[DmCell], path: str) -> None:
    lines = [DM_CSV_HEADER]
    for c in cells:
        lines.append(f"{c.variable},{c.horizon},{c.rule},{_fmt(c.stat)},{_fmt(c.p_value)}")
    _write_lines(path, lines)


def write_diagnostics_csv(cells: Sequence[CellDiagnostics], path: str) -> None:
    lines = [DIAGNOSTICS_CSV_HEADER]
    for c in cells:
        lines.append(
            f"{c.variable},{c.horizon},{_fmt(c.median_p_hat)},"
            f"{c.cwm_fallback_surveys},{c.skipped_surveys}"
        )
    _write_lines(path, lines)


def write_sweep_csv(points: Sequence[SweepPoint], path: str) -> None:
    lines = [SWEEP_CSV_HEADER]
    for p in points:
        lines.append(f"{p.horizon},{p.rule},{p.n_included},{_fmt(p.rmse)}")
    _write_lines(path, lines)
