"""Rolling backtest of aggregation rules over a panel.

One rolling pass per variable serves all of its horizons and, for the
sweep, every top-n size at once. A survey's forecasts mature, as realized
errors, at the first survey whose quarter ends no earlier than their
first report's stamp (never earlier); a forecaster is eligible at a
survey once two errors at that horizon have matured by it. Every rule
estimates from the eligible set, and the estimates are scored against
the first-reported realization.

A forecaster's MSE is the engine's one reliability state: eligible sets
rank by it, and the kernel weighs by 1 / min(MSE, v^2), the inverse of
the quincunx variance 4Cv^2 (1 - p) p at C = 1 for the p that the MSE
implies (a positive MSE below ``_NOISE_FLOOR`` weighs as the floor).
``p_from_mse`` forms p only for the diagnostics' median. So the unit v
reaches estimates only through that clamp, and given v, an estimate at
survey i is a pure function of forecasts at i and realizations stamped
by i.

The panel's forecast table is sorted by (variable, survey, horizon,
forecaster id), so a variable's forecasts are one slice of it and
forecasters are indexed in sorted-id order. Squared errors, MSEs,
eligibility, ranks, members, EWM numerators and leave-one-out terms
depend on forecasts and realizations alone; only the contribution means,
running means of the terms read at every survey, need the surveys in
turn. So the pass, :func:`_run_variable`, has two phases:

* Up front, in whole-variable array operations: each (survey, horizon)'s
  realization and maturation survey, every forecast's squared error, and
  each (horizon, forecaster)'s MSE trajectory, summed along the matured
  errors' own events axis (see :func:`_states`). Each forecast reads its
  MSE as of its survey off that trajectory with one ``searchsorted``,
  which gives eligibility, and, where some cut is below the largest
  eligible set, the eligible sets are ranked per pair by MSE.
* Then the surveys go in blocks of a fixed step, with the contribution
  means in one table of a row per (horizon, forecaster) cell and a
  column per distinct cut. A block lays out its eligible forecasts once,
  places x (survey, horizon) rows, with each cut broadcast along a third
  axis. It builds its members, EWM numerators and leave-one-out terms in
  arrays, walks its surveys to fold in the terms that mature at each
  (whole table rows, in rounds of at most one target per horizon, so
  each horizon's means see them in survey order) and to read each
  survey's means with one row gather, and makes one member-major
  ``rule_estimates`` call on places x rows x cuts. The step is
  ``_BLOCK_ENTRIES`` (it sizes these blocks alone) over the largest
  eligible set times a survey's rows and cuts, so it bounds a call's
  members x rows, and with it a block's memory: a sweep's 195 rows a
  survey make blocks of about two surveys. numpy's per-call overhead is
  what the blocks save: a backtest call per survey would hold about five
  rows. On SPF-shaped panels of about 40 members, 16,384 entries ran the
  sweep about a tenth faster than 8,192, and 32,768 grew its memory.

Per-survey results are kept only where a report reads them: the masks,
indexed by (survey, horizon), and, for the unrestricted limit alone, the
estimates, errors (0 where a survey is not scored), fallbacks and MSEs,
from which the Diebold-Mariano series and the diagnostics are read. Each
cut's RMSE reads one sum of squared errors per (horizon, cut, rule),
folded as each block finishes: the running sums and the block's surveys,
in order, go into one sum over the survey axis, so a sweep's memory does
not grow with surveys x cuts. The reports equal those of a straight-line
loop per cell to the last bit: every sum adds left to right, every
square is ``d * d``.

Outputs: per-cell RMSE, Diebold-Mariano comparisons against the
contribution-weighted rule, per-cell diagnostics, and the top-n subset
sweep behind the smaller-wiser-crowd curves. A report's columns are the
fields of its row dataclass, which :func:`write_report` writes.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields
from itertools import zip_longest
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .aggregation import (
    ALL_RULES,
    RULE_CWM,
    _member_sums,
    contribution_terms,
    member_forecasts,
    rank_by_reliability,
    rule_estimates,
)
from .panel import (
    Calibration,
    Panel,
    format_period,
    period_end_month,
    period_key,
    write_csv,
)
from .quincunx import p_from_mse

_RULE_ORDER = {rule: i for i, rule in enumerate(ALL_RULES)}
_BLOCK_ENTRIES = 16384  # members x rows of one rule-kernel call (see the module docstring)
_MIN_DM_LENGTH = 8
_NOISE_FLOOR = 2.0 ** -1000  # the least positive noise: 1 / noise, and a row's sum, stay finite


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


class _Results(NamedTuple):
    """What one variable's roll produced, indexed by (survey, horizon).

    ``forecast`` marks the surveys with forecasts at a horizon,
    ``estimated`` those where the rules estimated and ``scored`` those of
    them with a first-reported realization. The per-survey results are
    the unrestricted (``None``) limit's alone, and have no surveys when no
    limit is ``None``: ``estimates`` and ``errors`` add a rule axis, rules
    in the order of ``ALL_RULES``, an error being 0 where a survey is not
    scored; ``fallbacks`` marks the estimates where the
    contribution-weighted rule fell back; and ``mses[k]`` holds the MSEs
    behind horizon k's estimates, survey by survey. ``squares`` holds,
    per (horizon, cut, rule), the squared errors' sum over the surveys,
    folded block by block as the roll goes; the cuts are the distinct
    ones, and ``limit_of`` maps each requested limit to its cut.
    """

    forecast: np.ndarray
    estimated: np.ndarray
    scored: np.ndarray
    estimates: np.ndarray
    errors: np.ndarray
    fallbacks: np.ndarray
    mses: list[np.ndarray]
    squares: np.ndarray
    limit_of: np.ndarray

    def rmse(self) -> tuple[np.ndarray, np.ndarray]:
        """Per (horizon, limit, rule), the RMSE over the scored surveys; per horizon, their count.

        Each sum has added survey by survey, in which unscored surveys add
        exact zeros; a horizon without a scored survey has NaN RMSEs. The
        limits are the requested ones, each read off its cut.
        """
        count = self.scored.sum(axis=0)
        n = count[:, None, None]
        rmse = np.sqrt(np.divide(self.squares, n, out=np.full(self.squares.shape, np.nan),
                                 where=n > 0))
        return rmse[:, self.limit_of], count


def _targets(
    panel: Panel, variable: str, horizons: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per (survey, horizon), flat: whether its target has a first report, its value
    and the survey at which it matures, the survey count if never.

    Each target period is looked up once. A target matures at the first
    survey whose quarter ends no earlier than its realization's stamp; a
    target that never gets a value never matures.
    """
    surveys = panel.surveys
    end_months = [period_end_month(p) for p in surveys]
    quarters = np.array([period_key(p) for p in surveys], dtype=np.intp)
    periods, target = np.unique((quarters[:, None] + np.asarray(horizons) - 1).ravel(),
                                return_inverse=True)
    reported, realized = np.zeros(len(periods), dtype=bool), np.zeros(len(periods))
    matures = np.full(len(periods), len(surveys))
    for i, q in enumerate(periods.tolist()):
        realization = panel.realization(variable, format_period(q // 4, q % 4 + 1))
        # stamped after the target quarter ends, so after every survey that forecasts it
        if realization is not None:
            reported[i], realized[i] = True, realization[0]
            matures[i] = bisect.bisect_left(end_months, realization[1])
    return reported[target], realized[target], matures[target]


def _states(
    cell: np.ndarray, survey: np.ndarray, matures: np.ndarray, error: np.ndarray,
    n_surveys: int, size: int, window: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The eligible forecasts, and their forecasters' MSE as of their survey.

    Per forecast: its (horizon, forecaster) ``cell`` (one of ``size``),
    ``survey``, the survey at which it ``matures`` (``n_surveys``: never)
    and its ``error``. The matured errors lie along an events axis, by cell,
    each cell's in maturation order, and their trajectory is the MSE after
    each: the mean of its cell's errors up to it, or of the last ``window``,
    summed oldest first (a window's sum starts with exact zeros where the
    cell has fewer). Each forecast reads its cell's MSE off the trajectory
    with one ``searchsorted``: after the last error matured by its survey.
    It is eligible from two such errors on.
    """
    event = np.flatnonzero(matures < n_surveys)
    key = cell[event] * (n_surveys + 1) + matures[event]  # by cell, then maturation
    order = np.argsort(key, kind="stable")  # stable: survey order at a tie
    key, event = key[order], event[order]
    # error and matures are the caller's temporaries, freed here once read
    del matures, order
    squared, matured = error[event], cell[event]
    del error, event
    np.multiply(squared, squared, out=squared)  # d * d, in place
    history = np.bincount(matured, minlength=size)  # matured errors per cell
    start = np.cumsum(history) - history  # each cell's first error on the events axis
    seen = np.arange(len(matured)) - start[matured]  # earlier errors of the cell
    del matured
    if window is None:
        sums = squared  # in place, depth by depth: each error onto its cell's sum before it
        deepest = start[np.argsort(-history)]  # the cells with the most errors first
        deeper = len(history) - np.cumsum(np.bincount(history))  # cells with more than d errors
        for depth in range(1, len(deeper) - 1):
            at = deepest[:deeper[depth]] + depth
            sums[at] += sums[at - 1]
    else:
        sums = np.zeros(len(squared))  # a cell's error back places earlier, oldest first
        for back in range(min(window, int(history.max(initial=0))) - 1, -1, -1):
            sums[back:] += np.where(seen[back:] >= back, squared[:len(sums) - back], 0.0)
    seen += 1
    mse = sums / (seen if window is None else np.minimum(seen, window))
    del squared, sums, seen
    last = np.searchsorted(key, cell * (n_surveys + 1) + survey, side="right") - 1
    del key
    eligible = np.flatnonzero(last - start[cell] >= 1)  # two or more
    return eligible, mse[last[eligible]]


def _run_variable(
    panel: Panel,
    variable: str,
    horizons: Sequence[int],
    calib: Calibration,
    limits: Sequence[int | None],
    window: int | None,
) -> _Results:
    """Roll one variable through the surveys, once for all horizons and limits.

    ``horizons`` ascend. A limit n keeps the n of each survey's eligible
    set with the lowest MSEs and ``None`` keeps all of it; each distinct
    cut, a limit capped at the largest eligible set, runs once. MSEs
    depend on the horizon; contribution means also on the limit.

    Up front, each forecast gets its ``pair`` (survey x horizons + the
    horizon's position) and its ``cell`` (the horizon's position x ``width``
    + its forecaster's among the variable's ``width``, in sorted-id order).
    :func:`_states` keeps the eligible ones, with their cells' MSEs as of
    the survey, and each takes its ``place`` in its pair's eligible set, in
    sorted-id order, and its ``rank`` by MSE there (0 for all where no cut
    is below the largest eligible set). The contribution means and their
    counts are cell x cut tables. Then the surveys go in blocks (see the
    module docstring). A block lays out its forecasts' ranks, cells, values
    and noises once, places x rows, with the cuts along a third axis, and
    builds its members, EWM numerators and leave-one-out terms. Each
    maturing target of two or more waits under (maturation survey, horizon)
    as its places' cells, terms and live marks; each walked survey folds its
    targets in rounds of at most one per horizon, so each horizon's means
    see them in survey order, a round moving the live entries of its cells'
    rows, and reads its means with one row gather. The block makes one
    :func:`rule_estimates` call; a block without estimates leaves its
    surveys' folds to the next block's walk. The call's errors, 0 where a
    survey is not scored, are squared into the running sums, and the
    unrestricted limit's results, the last cut's, are kept survey by
    survey.
    """
    n_surveys, n_horizons = len(panel.surveys), len(horizons)
    shape = (n_surveys, n_horizons)
    if window is not None and window >= n_surveys:
        window = None  # covers every history
    f = panel.forecasts
    v = f.variables.index(variable) if variable in f.variables else -1
    lo, hi = np.searchsorted(f.variable, (v, v + 1))
    keep = np.isin(f.horizon[lo:hi], horizons)
    mine = slice(lo, hi) if keep.all() else lo + np.flatnonzero(keep)  # views where it can
    survey, value = f.survey[mine], f.value[mine]
    # the variable's forecasters, in sorted-id order
    present = np.zeros(len(f.forecasters), dtype=bool)
    present[f.forecaster[mine]] = True
    width = int(present.sum())
    pair = survey * n_horizons + np.searchsorted(horizons, f.horizon[mine])  # (survey, horizon)
    cell = pair % n_horizons * width + (np.cumsum(present) - 1)[f.forecaster[mine]]
    del keep, mine, present
    forecast = np.zeros(shape, dtype=bool)
    forecast.flat[pair] = True
    reported, realized, matures = _targets(panel, variable, horizons)
    eligible, mse = _states(cell, survey, matures[pair], value - realized[pair],
                            n_surveys, n_horizons * width, window)
    pair, cell, value = pair[eligible], cell[eligible], value[eligible]
    del survey, eligible
    sizes = np.bincount(pair, minlength=forecast.size)  # eligible forecasts per pair
    place = np.arange(len(pair)) - (np.cumsum(sizes) - sizes)[pair]
    largest = int(sizes.max(initial=0))
    cut, limit_of = np.unique(np.minimum([width if n is None else n for n in limits], largest),
                              return_inverse=True)
    if cut[0] < largest:  # some limit cuts
        rank = rank_by_reliability(pair, cell, mse)
    else:
        rank = np.broadcast_to(np.intp(0), pair.shape)  # a zero-stride view: all ranks pass
    cap = calib[variable] * calib[variable]  # C v^2 at the element count 1, as in panel.Calibration
    n_limits, n_rules = len(cut), len(ALL_RULES)
    rows = np.flatnonzero(sizes)  # the estimated (survey, horizon) pairs, in order
    row_of = np.cumsum(sizes > 0) - 1
    step = max(1, _BLOCK_ENTRIES // (max(largest, 1) * n_horizons * n_limits))

    # per (horizon, forecaster) cell, a row of contribution means and counts, one per cut
    contributions = np.zeros((n_horizons * width, n_limits))
    counts = np.zeros(contributions.shape, dtype=np.intp)
    # by (maturation survey, horizon): each target's cells, terms and live marks, in survey order
    pending: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
    walked = 0  # the surveys before it have folded their matured terms
    # per survey, the unrestricted limit's results alone: it cuts at the largest set, the last cut
    whole = None in limits
    kept = shape if whole else (0, n_horizons)
    estimates = np.full((*kept, n_rules), np.nan)
    errors = np.zeros(estimates.shape)
    fallbacks = np.zeros(kept, dtype=bool)
    unscored = ~reported  # an estimated (survey, horizon) pair whose target has no first report
    # the squared errors' running sums, per (horizon, cut, rule), stacked on a block's surveys:
    # in its (survey, horizon) rows, a block's pair p sits at p - (first - 1) x horizons
    stack = np.zeros((1 + min(step, n_surveys), n_horizons, n_limits, n_rules))
    stack_rows = stack.reshape(-1, n_limits, n_rules)
    for first in range(0, n_surveys, step):
        stop = min(first + step, n_surveys)
        lo, hi = np.searchsorted(pair, (first * n_horizons, stop * n_horizons))
        low, high = np.searchsorted(rows, (first * n_horizons, stop * n_horizons))
        block = rows[low:high]
        if not len(block):  # nothing to estimate: its surveys' terms fold with the next block's
            continue
        entry = place[lo:hi], row_of[pair[lo:hi]] - low  # each forecast's (place, row)
        # places x rows, alike at every limit; a padding place ranks where no cut reaches
        ranks = np.full((int(sizes[block].max()), len(block)), cut[-1])
        cells = np.zeros(ranks.shape, dtype=np.intp)
        V, U = np.zeros((2, *ranks.shape))  # forecasts and noises
        noise = mse[lo:hi]  # min(MSE, v^2), floored, and 0 exactly at MSE 0
        ranks[entry], cells[entry] = rank[lo:hi], cell[lo:hi]
        V[entry], U[entry] = value[lo:hi], np.where(
            noise > 0.0, np.clip(noise, _NOISE_FLOOR, cap), 0.0)
        members = ranks[:, :, None] < cut  # the limits along a third axis
        n = np.minimum(sizes[block][:, None], cut)
        X, totals = member_forecasts(V[:, :, None], members)  # for the terms and the kernel alike
        # members of rows with two or more give leave-one-out terms; rows of one take n = 2, unread
        live = members & (n >= 2)
        truth = realized[block]
        terms = contribution_terms(X, totals, np.maximum(n, 2), truth[:, None])
        due = np.where(n[:, -1] >= 2, matures[block], n_surveys).tolist()  # one member: no fold
        for r, (k, target) in enumerate(zip(sizes[block].tolist(), block.tolist())):
            if due[r] < n_surveys:
                pending.setdefault((due[r], target % n_horizons), []).append(
                    (cells[:k, r], terms[:k, r], live[:k, r]))

        # each walked survey's rows, in survey order
        bounds = np.searchsorted(block, np.arange(walked, stop + 1) * n_horizons).tolist()
        C = np.empty(X.shape)
        for idx, start, end in zip(range(walked, stop), bounds, bounds[1:]):
            # rounds of at most one target per horizon, each horizon's in survey order
            for folds in zip_longest(*(pending.pop((idx, k), ()) for k in range(n_horizons))):
                where, folded, fresh = (np.concatenate(a) for a in zip(*filter(None, folds)))
                K = counts.take(where, axis=0) + fresh  # take: twice as fast a row gather
                mean = contributions.take(where, axis=0)
                counts[where] = K
                np.divide(folded - mean, K, out=folded, where=fresh)  # only live terms move a mean
                contributions[where] = np.add(mean, folded, out=mean, where=fresh)
            C[:, start:end] = contributions.take(cells[:, start:end], axis=0)
        walked = stop
        got, fell = rule_estimates(X, totals, U[:, :, None], C, members, n)
        d = got - truth[:, None, None]
        d[unscored[block]] = 0.0
        if whole:
            at = np.divmod(block, n_horizons)  # each row's (survey, horizon)
            estimates[at], errors[at], fallbacks[at] = got[:, -1], d[:, -1], fell[:, -1]
        # one sum adds survey by survey, with exact zeros where a survey is not scored
        stack[1:] = 0.0
        stack_rows[block - (first - 1) * n_horizons] = d * d
        stack[0] = _member_sums(stack)

    squares = stack[0]
    estimated = (sizes > 0).reshape(shape)
    scored = estimated & reported.reshape(shape)
    horizon = pair % n_horizons
    mses = [mse[horizon == k] if whole else np.empty(0) for k in range(n_horizons)]
    return _Results(forecast, estimated, scored, estimates, errors, fallbacks, mses, squares,
                    limit_of)


def cell_estimates(
    panel: Panel,
    variable: str,
    horizon: int,
    rules: Sequence[str],
    calib: Calibration,
    window: int | None = None,
) -> dict[str, list[tuple[str, float]]]:
    """Per-rule (survey, estimate) trail for one cell, rules in the order of ``ALL_RULES``."""
    rules = _check_inputs(panel, rules, window)
    results = _run_variable(panel, variable, (horizon,), calib, (None,), window)
    estimated = results.estimated[:, 0]
    surveys = [panel.surveys[i] for i in np.flatnonzero(estimated)]
    estimates = results.estimates[estimated, 0]
    return {rule: list(zip(surveys, estimates[:, _RULE_ORDER[rule]].tolist())) for rule in rules}


def _check_inputs(panel: Panel, rules: Sequence[str], window: int | None) -> list[str]:
    """The requested rules, each once, in the order of ``ALL_RULES``: the reports' rule order."""
    if window is not None and window < 1:
        raise ValueError(f"window must be a positive number of errors, got {window!r}")
    if not panel.forecasts:
        raise EmptyPanelError("panel holds no forecasts")
    for rule in rules:
        if rule not in ALL_RULES:
            raise ValueError(f"unknown rule {rule!r}")
    return [rule for rule in ALL_RULES if rule in rules]


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
    rules = _check_inputs(panel, rules, window)
    cells: list[RmseCell] = []
    dm_cells: list[DmCell] = []
    diagnostics: list[CellDiagnostics] = []
    for variable in sorted(panel.variables):
        horizons = panel.horizons(variable)
        results = _run_variable(panel, variable, horizons, calib, (None,), window)
        rmse, count = results.rmse()
        fallback_surveys = (results.fallbacks & results.scored).sum(axis=0).tolist()
        skipped = (results.forecast & ~results.scored).sum(axis=0).tolist()
        unit = calib[variable]
        for k, horizon in enumerate(horizons):
            # the element count is 1; no p without a unit
            p_hats = p_from_mse(results.mses[k], 1, unit) if unit < math.inf else ()
            diagnostics.append(CellDiagnostics(
                variable=variable,
                horizon=horizon,
                median_p_hat=_median(p_hats) if len(p_hats) else math.nan,
                cwm_fallback_surveys=fallback_surveys[k],
                skipped_surveys=skipped[k],
            ))
            n = int(count[k])
            for rule in rules:
                rule_rmse = float(rmse[k, 0, _RULE_ORDER[rule]])
                cells.append(RmseCell(variable, horizon, rule, rule_rmse, n))
            if RULE_CWM in rules and n >= _MIN_DM_LENGTH:
                errors = results.errors[results.scored[:, k], k].T  # one row per rule
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
    survey's eligible set is ranked by MSE, lowest first, and cut to its
    top n. Each rule's RMSE is aggregated across variables, by default as
    the mean of per-variable RMSEs (``aggregate="pooled"`` pools the
    squared errors instead). A size at or above the largest eligible set
    reproduces the plain backtest. The points come by horizon, then rule in
    the order of ``ALL_RULES``, each requested rule once, then size.
    """
    if aggregate not in ("mean", "pooled"):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    sizes = sorted(set(n_range))
    if not sizes or sizes[0] < 1:
        raise ValueError("subset sizes must be positive")
    rules = _check_inputs(panel, rules, window)
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
    for horizon in horizons:
        matched = scored.get(horizon)
        if not matched:
            continue
        # Python's sum() over the variables adds left to right, entry by entry
        if aggregate == "mean":
            curve = sum(r for r, _ in matched) / len(matched)
        else:
            total = sum(r * r * c for r, c in matched)
            curve = np.sqrt(total / sum(c for _, c in matched))
        for rule in rules:
            points.extend(SweepPoint(horizon, rule, n, rmse)
                          for n, rmse in zip(sizes, curve[:, _RULE_ORDER[rule]].tolist()))
    return points


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "" if math.isnan(x) else f"{x:.6f}"


def write_report(path: str, kind: type, rows: Iterable[object]) -> None:
    """Write rows of the report dataclass ``kind``, its fields as the columns and floats by :func:`_fmt`."""
    columns = fields(kind)
    floats = [f.type == "float" for f in columns]  # annotations are strings here
    read = attrgetter(*(f.name for f in columns))
    write_csv(path, [f.name for f in columns],
              ([_fmt(x) if real else x for x, real in zip(read(row), floats)] for row in rows))
