"""Rolling backtest of aggregation rules over a panel.

Surveys are processed in order, in one rolling pass per variable that
serves all of its horizons and, for the sweep, every top-n size at once.
At each survey the engine first matures realized errors whose first
report is stamped by then (never earlier) and updates forecaster
reliabilities and contributions from them; then it builds each horizon's
eligible set (two matured errors required), lets every rule estimate, and
scores the estimates against the first-reported realization. State
updates always happen after the estimates that would use them, so an
estimate at survey i is a pure function of forecasts at i and of
realizations stamped by i.

The panel's forecast table is sorted by (variable, survey, horizon,
forecaster id), so a survey's forecasts of one variable are one slice of
it, horizon by horizon. The state lives in plain arrays: per (horizon,
forecaster) the error count, the squared-error sum (or, under a window,
the last errors), MSE, reliability and noise; per (horizon, limit,
forecaster) the contribution mean and count. Forecasters are indexed in
sorted-id order. Each survey makes one member-major ``rule_estimates`` call
whose rows are its (horizon, limit) pairs. A pending target carries its
settled update: squared errors, and its members' flat contribution cells
and leave-one-out terms. Matured targets fold in rounds of at most one per
horizon: one gather, running-mean update and scatter, and one reliability
update per round.

Each survey writes its results into the variable's result arrays,
indexed by (survey, horizon) with trailing (limit, rule) axes: masks,
estimates, errors (0 where a survey is not scored), fallbacks and
reliabilities. The reports read their RMSEs, one sum over the survey
axis, their Diebold-Mariano series and their diagnostics straight from
these arrays, and equal those of a straight-line loop per cell to the
last bit: every sum adds left to right, every square is ``d * d``.

Outputs: per-cell RMSE, Diebold-Mariano comparisons against the
contribution-weighted rule, per-cell diagnostics, and the top-n subset
sweep behind the smaller-wiser-crowd curves.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .aggregation import (
    ALL_RULES,
    RULE_CWM,
    _member_sums,
    contribution_terms,
    rank_by_reliability,
    rule_estimates,
)
from .panel import Calibration, Panel, add_quarters, period_end_month, write_csv
from .quincunx import noise_from_p, p_from_mse

RMSE_CSV_HEADER = ("variable", "horizon", "rule", "rmse", "n_surveys")
DM_CSV_HEADER = ("variable", "horizon", "rule", "stat", "p_value")
SWEEP_CSV_HEADER = ("horizon", "rule", "n_included", "rmse")
DIAGNOSTICS_CSV_HEADER = ("variable", "horizon", "median_p_hat",
                          "cwm_fallback_surveys", "skipped_surveys")

_RULE_ORDER = {rule: i for i, rule in enumerate(ALL_RULES)}
_UNRANKED = np.iinfo(np.intp).max  # the rank of a column outside a row's eligible set
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
    stat correction. Both series are first scaled by one power of two, which
    keeps the statistic's bits and keeps squares from overflowing.
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
    # an exact scale that brings the largest |error| into [0.5, 1)
    peak = max(float(np.abs(a).max()), float(np.abs(b).max()))
    if 0.0 < peak < math.inf:
        shift = -math.frexp(peak)[1]
        a, b = np.ldexp(a, shift), np.ldexp(b, shift)
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


class _Target(NamedTuple):
    """A survey's forecasts at one horizon, settled against their realization.

    ``cells`` are the forecasters' (horizon, forecaster) state positions
    and ``squared`` their squared errors. ``members`` are the contribution
    cells of the members of that horizon's rows (one per limit) with two or
    more members, and ``terms`` their leave-one-out terms.
    """

    horizon: int
    cells: np.ndarray
    squared: np.ndarray
    members: np.ndarray
    terms: np.ndarray


_NO_MEMBERS = (np.empty(0, dtype=np.intp), np.empty(0))


class _Results(NamedTuple):
    """What one variable's roll produced, indexed by (survey, horizon).

    ``forecast`` marks the surveys with forecasts at a horizon,
    ``estimated`` those where the rules estimated and ``scored`` those of
    them with a first-reported realization. ``estimates`` and ``errors``
    add (limit, rule) axes, rules in the order of ``ALL_RULES``; an error
    is 0 where a survey is not scored. ``fallbacks`` marks, per limit, the
    estimates where the contribution-weighted rule fell back.
    ``p_hats[k]`` holds the reliabilities behind horizon k's estimates at
    the unrestricted (``None``) limit, survey by survey; it is empty when no
    limit is ``None``.
    """

    forecast: np.ndarray
    estimated: np.ndarray
    scored: np.ndarray
    estimates: np.ndarray
    errors: np.ndarray
    fallbacks: np.ndarray
    p_hats: list[np.ndarray]

    def rmse(self) -> tuple[np.ndarray, np.ndarray]:
        """Per (horizon, limit, rule), the RMSE over the scored surveys; per horizon, their count.

        Each sum adds survey by survey, in which unscored surveys add exact
        zeros; a horizon without a scored survey has NaN RMSEs.
        """
        count = self.scored.sum(axis=0)
        total = _member_sums(self.errors * self.errors)
        n = count[:, None, None]
        return np.sqrt(np.divide(total, n, out=np.full(total.shape, np.nan), where=n > 0)), count


def _rounds(matured: list[_Target]) -> list[list[_Target]]:
    """Matured targets in rounds of at most one per horizon, each horizon's in order."""
    rounds: list[list[_Target]] = []
    taken: dict[int, int] = {}
    for target in matured:
        k = taken.get(target.horizon, 0)
        taken[target.horizon] = k + 1
        if k == len(rounds):
            rounds.append([])
        rounds[k].append(target)
    return rounds


class _State:
    """The rolling state of one variable, in flat arrays.

    Per (horizon, forecaster), at ``h * width + f``: error counts, squared
    error sums (or, under a window, the last errors), MSEs, reliabilities
    and noises. Per (horizon, limit, forecaster), at ``(h * limits + l) *
    width + f``: contribution means and counts.
    """

    def __init__(
        self, n_horizons: int, n_limits: int, width: int,
        unit: float, window: int | None,
    ) -> None:
        size = n_horizons * width
        self.unit = unit
        self.errors = np.zeros(size, dtype=np.intp)
        self.total = np.zeros(size)
        self.recent = None if window is None else np.zeros((size, window))
        self.mse = np.full(size, np.nan)
        self.p_hat = np.full(size, np.nan)
        self.noise = np.full(size, np.nan)
        self.contributions = np.zeros(size * n_limits)
        self.counts = np.zeros(size * n_limits, dtype=np.intp)

    def fold(self, batch: list[_Target]) -> None:
        """Fold one round's leave-one-out terms into the contribution means."""
        cells = np.concatenate([t.members for t in batch])
        if not cells.size:
            return
        terms = np.concatenate([t.terms for t in batch])
        K = self.counts[cells] + 1
        C = self.contributions[cells]
        self.counts[cells] = K
        self.contributions[cells] = C + (terms - C) / K

    def observe(self, batch: list[_Target]) -> None:
        """Add one round's squared errors and re-estimate those forecasters' reliabilities."""
        cells = np.concatenate([t.cells for t in batch])
        squared = np.concatenate([t.squared for t in batch])
        seen = self.errors[cells] + 1
        self.errors[cells] = seen
        if self.recent is None:
            total = self.total[cells] + squared
            self.total[cells] = total
            mse = total / seen
        else:
            window = self.recent.shape[1]
            self.recent[cells, (seen - 1) % window] = squared
            back = seen[:, None] - window + np.arange(window)
            last = np.where(back >= 0, self.recent[cells[:, None], back % window], 0.0)
            mse = np.add.accumulate(last, axis=1)[:, -1] / np.minimum(seen, window)
        p = p_from_mse(mse, 1, self.unit)  # the element count is 1, as in panel.Calibration
        self.mse[cells] = mse
        self.p_hat[cells] = p
        self.noise[cells] = noise_from_p(p)


def _run_variable(
    panel: Panel,
    variable: str,
    horizons: Sequence[int],
    calib: Calibration,
    limits: Sequence[int | None],
    window: int | None,
) -> _Results:
    """Roll one variable through the surveys, once for all horizons and limits.

    ``horizons`` ascend. A limit n keeps the n most reliable of each
    survey's eligible set and ``None`` keeps all of it. Error histories,
    MSEs and reliabilities depend on the horizon; contribution means also
    on the limit. Each survey's forecasts are one slice of the variable's
    rows of the forecast table, and each survey makes one
    :func:`rule_estimates` call, whose members are the forecasters eligible
    at any of its horizons, in sorted-id order, and whose rows are its
    (horizon, limit) pairs. A survey's forecasts at a horizon mature at the
    first later survey whose quarter ends no earlier than their
    realization's stamp; a target that never gets a value never matures.
    Matured targets are folded in rounds with at most one per horizon, so
    each horizon's state sees them in survey order. Each survey writes its
    estimates, fallbacks and realizations into the :class:`_Results`
    arrays at its own (survey, horizon) entries; the errors are taken once,
    at the end, on the scored entries.
    """
    surveys = panel.surveys
    f = panel.forecasts
    v = f.variables.index(variable) if variable in f.variables else -1
    mine = np.flatnonzero((f.variable == v) & np.isin(f.horizon, horizons))
    names, column = np.unique(f.forecaster[mine], return_inverse=True)
    horizon_at = np.searchsorted(horizons, f.horizon[mine])
    value = f.value[mine]
    bounds = np.searchsorted(f.survey[mine], np.arange(len(surveys) + 1)).tolist()
    width, n_limits = len(names), len(limits)
    if window is not None and window >= len(surveys):
        window = None  # covers every history
    state = _State(len(horizons), n_limits, width, calib[variable], window)
    cut = np.array([width if n is None else n for n in limits])
    unrestricted = limits.index(None) if None in limits else None
    end_months = [period_end_month(s) for s in surveys]
    maturing: dict[int, list[_Target]] = {}
    shape = (len(surveys), len(horizons))
    forecast = np.zeros(shape, dtype=bool)
    forecast[f.survey[mine], horizon_at] = True
    estimated = np.zeros(shape, dtype=bool)
    reported = np.zeros(shape, dtype=bool)
    realized = np.zeros(shape)
    estimates = np.full((*shape, n_limits, len(ALL_RULES)), np.nan)
    fallbacks = np.zeros((*shape, n_limits), dtype=bool)
    p_hats: list[list[np.ndarray]] = [[] for _ in horizons]

    for idx, survey in enumerate(surveys):
        for batch in _rounds(maturing.pop(idx, [])):
            state.fold(batch)
            state.observe(batch)

        first, last = bounds[idx], bounds[idx + 1]
        if first == last:
            continue
        hh, ff, xx = horizon_at[first:last], column[first:last], value[first:last]
        sizes = np.bincount(hh, minlength=len(horizons)).tolist()
        hf = hh * width + ff
        eligible = state.errors[hf] >= 2
        row_at = [-1] * len(horizons)
        if eligible.any():
            eh, ef, ehf = hh[eligible], ff[eligible], hf[eligible]
            per_horizon = np.bincount(eh, minlength=len(horizons))
            rows = np.flatnonzero(per_horizon)
            present = np.zeros(width, dtype=bool)
            present[ef] = True
            columns = np.flatnonzero(present)
            # each eligible entry's (column, horizon row) in the estimate call
            at = np.searchsorted(columns, ef), (np.cumsum(per_horizon > 0) - 1)[eh]
            ranks = np.full((len(columns), len(rows)), _UNRANKED)
            if cut.min() < per_horizon.max():  # some limit cuts an eligible set
                ranks[at] = rank_by_reliability(eh, ef, state.p_hat[ehf], state.mse[ehf])
            else:
                ranks[at] = 0
            members = ranks[:, :, None] < cut  # columns x horizon rows x limits
            n = np.minimum(per_horizon[rows][:, None], cut)
            V = np.zeros(ranks.shape)
            V[at] = xx[eligible]
            U = state.noise[rows * width + columns[:, None]]
            # each column's contribution cell at each horizon row and limit
            cells = (rows[:, None] * n_limits + np.arange(n_limits)) * width + columns[:, None, None]
            row_estimates, fallback, totals = rule_estimates(
                np.repeat(V, n_limits, axis=1),
                np.repeat(U, n_limits, axis=1),
                state.contributions[cells].reshape(len(columns), -1),
                members.reshape(len(columns), -1),
                n.reshape(-1),
            )
            estimated[idx, rows] = True
            estimates[idx, rows] = row_estimates.reshape(len(rows), n_limits, len(ALL_RULES))
            fallbacks[idx, rows] = fallback.reshape(len(rows), n_limits)
            totals = totals.reshape(len(rows), n_limits)
            # each member of a row with two or more gives a leave-one-out term: its
            # cell, forecast, row EWM numerator and row size, row by row
            sized = np.where(n >= 2, n, 0)
            termed = members.transpose(1, 2, 0) & (sized > 0)[:, :, None]
            term_bounds = [0, *sized.sum(axis=1).cumsum().tolist()]
            term_cells = cells.transpose(1, 2, 0)[termed]
            term_inputs = (
                np.repeat(V.T[:, None], n_limits, axis=1)[termed],
                np.repeat(totals.reshape(-1), sized.reshape(-1)),
                np.repeat(n.reshape(-1), sized.reshape(-1)),
            )
            for i, k in enumerate(rows.tolist()):
                row_at[k] = i
                if unrestricted is not None:
                    p_hats[k].append(state.p_hat[k * width + columns[members[:, i, unrestricted]]])

        start = 0
        for k, horizon in enumerate(horizons):
            stop = start + sizes[k]
            if start == stop:
                continue
            realization = panel.realization(variable, add_quarters(survey, horizon - 1))
            if realization is not None:
                reported[idx, k] = True
                realized[idx, k] = realization[0]
                # stamped after the target quarter ends, so after this survey: a later bucket
                known = bisect.bisect_left(end_months, realization[1])
                if known < len(surveys):
                    i = row_at[k]
                    if i < 0:
                        fold = _NO_MEMBERS
                    else:
                        part = slice(term_bounds[i], term_bounds[i + 1])
                        terms = contribution_terms(*(a[part] for a in term_inputs), realization[0])
                        fold = term_cells[part], terms
                    d = xx[start:stop] - realization[0]
                    maturing.setdefault(known, []).append(_Target(k, hf[start:stop], d * d, *fold))
            start = stop

    scored = estimated & reported
    errors = np.zeros(estimates.shape)
    errors[scored] = estimates[scored] - realized[scored][:, None, None]
    return _Results(
        forecast, estimated, scored, estimates, errors, fallbacks,
        [np.concatenate(p) if p else np.empty(0) for p in p_hats],
    )


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
    results = _run_variable(panel, variable, (horizon,), calib, (None,), window)
    estimated = results.estimated[:, 0]
    surveys = [panel.surveys[i] for i in np.flatnonzero(estimated)]
    estimates = results.estimates[estimated, 0, 0]
    return {rule: list(zip(surveys, estimates[:, _RULE_ORDER[rule]].tolist())) for rule in rules}


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


def _median(values: np.ndarray) -> float:
    """The median of a nonempty array: its middle value, or the mean of the two middle values.

    Sorts instead of calling ``np.median``, whose first call imports ``numpy.ma``.
    """
    ordered = np.sort(values)
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


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
    Each report lists its cells by variable, then horizon, then rule in the
    order of ``ALL_RULES``, each requested rule once.
    """
    _check_inputs(panel, rules, window)
    rules = [rule for rule in ALL_RULES if rule in rules]
    cells: list[RmseCell] = []
    dm_cells: list[DmCell] = []
    diagnostics: list[CellDiagnostics] = []
    for variable in sorted(panel.variables):
        horizons = panel.horizons(variable)
        results = _run_variable(panel, variable, horizons, calib, (None,), window)
        rmse, count = results.rmse()
        fallback_surveys = (results.fallbacks[:, :, 0] & results.scored).sum(axis=0).tolist()
        skipped = (results.forecast & ~results.scored).sum(axis=0).tolist()
        for k, horizon in enumerate(horizons):
            p_hats = results.p_hats[k]
            diagnostics.append(CellDiagnostics(
                variable=variable,
                horizon=horizon,
                median_p_hat=_median(p_hats) if p_hats.size else math.nan,
                cwm_fallback_surveys=fallback_surveys[k],
                skipped_surveys=skipped[k],
            ))
            n = int(count[k])
            for rule in rules:
                rule_rmse = float(rmse[k, 0, _RULE_ORDER[rule]])
                cells.append(RmseCell(variable, horizon, rule, rule_rmse, n))
            if RULE_CWM in rules and n >= _MIN_DM_LENGTH:
                errors = results.errors[results.scored[:, k], k, 0].T  # one row per rule
                cwm = errors[_RULE_ORDER[RULE_CWM]]
                for rule in rules:
                    if rule != RULE_CWM:
                        stat, p_value = dm_test(errors[_RULE_ORDER[rule]], cwm, horizon, hln)
                        dm_cells.append(DmCell(variable, horizon, rule, stat, p_value))
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

    One rolling pass per variable serves every horizon and size n: each
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
    # per horizon, each variable's (limit x rule) RMSEs and scored-survey count
    scored: dict[int, list[tuple[np.ndarray, int]]] = {}
    for variable in sorted(panel.variables):
        cell_horizons = [h for h in panel.horizons(variable) if h in horizons]
        if not cell_horizons:
            continue
        rmse, count = _run_variable(panel, variable, cell_horizons, calib, sizes, window).rmse()
        for k, horizon in enumerate(cell_horizons):
            if count[k] > 0:
                scored.setdefault(horizon, []).append((rmse[k], int(count[k])))
    points: list[SweepPoint] = []
    for horizon, matched in scored.items():
        # Python's sum() over the variables adds left to right, entry by entry
        if aggregate == "mean":
            curve = sum(r for r, _ in matched) / len(matched)
        else:
            total = sum(r * r * c for r, c in matched)
            curve = np.sqrt(total / sum(c for _, c in matched))
        for l, n in enumerate(sizes):
            for rule in rules:
                points.append(SweepPoint(horizon, rule, n, float(curve[l, _RULE_ORDER[rule]])))
    points.sort(key=lambda p: (p.horizon, _RULE_ORDER[p.rule], p.n_included))
    return points


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "" if math.isnan(x) else f"{x:.6f}"


def write_rmse_csv(cells: Sequence[RmseCell], path: str) -> None:
    write_csv(path, RMSE_CSV_HEADER,
              ((c.variable, c.horizon, c.rule, _fmt(c.rmse), c.n_surveys) for c in cells))


def write_dm_csv(cells: Sequence[DmCell], path: str) -> None:
    write_csv(path, DM_CSV_HEADER,
              ((c.variable, c.horizon, c.rule, _fmt(c.stat), _fmt(c.p_value)) for c in cells))


def write_diagnostics_csv(cells: Sequence[CellDiagnostics], path: str) -> None:
    write_csv(path, DIAGNOSTICS_CSV_HEADER, (
        (c.variable, c.horizon, _fmt(c.median_p_hat), c.cwm_fallback_surveys, c.skipped_surveys)
        for c in cells
    ))


def write_sweep_csv(points: Sequence[SweepPoint], path: str) -> None:
    write_csv(path, SWEEP_CSV_HEADER,
              ((p.horizon, p.rule, p.n_included, _fmt(p.rmse)) for p in points))
