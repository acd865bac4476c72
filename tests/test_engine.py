"""The array engine against a straight-line oracle, compared with ``==``.

The oracle below is the scalar engine the array pass replaced: one rolling
loop per (variable, horizon) cell and limit, with per-forecaster maps, one
rule-kernel call per (survey, limit) and one contribution fold per matured
survey and limit. Every square is ``d * d`` and every sum is Python's
left-to-right ``sum()``, which is what the array engine must reproduce
exactly: reports, sweep points and audit trails are compared with ``==``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import astuple
from itertools import zip_longest
from operator import mul
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from crowdfuse import backtest
from crowdfuse.aggregation import ALL_RULES, RULE_CWM
from crowdfuse.backtest import (
    BacktestReport,
    CellDiagnostics,
    DmCell,
    RmseCell,
    SweepPoint,
    cell_estimates,
    dm_test,
    run_backtest,
    subset_sweep,
)
from crowdfuse.panel import (
    Panel,
    Release,
    SynthConfig,
    add_quarters,
    asof_key,
    calibrate_v,
    calibration_series,
    period_end_month,
    period_key,
    synth_panel,
)
from panel_rows import rows_of, table_of

_RULE_ORDER = {rule: i for i, rule in enumerate(ALL_RULES)}


# ---------------------------------------------------------------------------
# Straight-line oracle
# ---------------------------------------------------------------------------

def oracle_p_from_mse(mse, count, unit):
    cap = count * unit * unit
    if mse >= cap:
        return 0.5
    return min(0.5 + math.sqrt(cap * (cap - mse)) / (2.0 * cap), 1.0)


def _check_normalized(weights):
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {total!r}, expected 1")


def _inverse_variance(noises, values):
    perfect = noises.count(0.0)
    if perfect:
        weights = [1.0 / perfect if u == 0.0 else 0.0 for u in noises]
    else:
        inverse = [1.0 / u for u in noises]
        total = sum(inverse)
        weights = [x / total for x in inverse]
    return weights, sum(map(mul, weights, values))


def oracle_rule_estimates(ids, values, noise, contributions):
    """EWM, KF, CWM, KFplus and the fallback flag of one sorted member list."""
    n = len(values)
    noises = [noise[j] for j in ids]
    _check_normalized([1.0 / n] * n)
    ew = sum(values) / n
    kf_weights, kf = _inverse_variance(noises, values)
    _check_normalized(kf_weights)
    keep = [i for i, j in enumerate(ids) if contributions.get(j, 0.0) > 0.0]
    if not keep:
        return ew, kf, ew, ew, True
    kept = [values[i] for i in keep]
    scores = [contributions[ids[i]] for i in keep]
    total = sum(scores)
    cw_weights = [c / total for c in scores]
    kp_weights, kp = _inverse_variance([noises[i] for i in keep], kept)
    _check_normalized(cw_weights)
    _check_normalized(kp_weights)
    return ew, kf, sum(map(mul, cw_weights, kept)), kp, False


def oracle_fold_survey(contributions, counts, ids, values, realized):
    n = len(values)
    if n < 2:
        return
    total = sum(values)
    d_all = total / n - realized
    err_all = d_all * d_all
    for j, x in zip(ids, values):
        d = (total - x) / (n - 1) - realized
        term = d * d - err_all
        count = counts.get(j, 0) + 1
        mean = contributions.get(j, 0.0)
        contributions[j] = mean + (term - mean) / count
        counts[j] = count


def forecast_cells(panel):
    """(survey, variable, horizon) to {forecaster id: value}, from the panel's rows."""
    cells = {}
    for survey, variable, horizon, forecaster, value in rows_of(panel.forecasts):
        cells.setdefault((survey, variable, horizon), {})[forecaster] = value
    return cells


def oracle_run_cell(panel, variable, horizon, calib, limits, window, stats=None):
    """Per limit: (estimates [(survey, [4 floats])], errors [[4 floats]], p_hats,
    fallback surveys, skipped surveys)."""
    count, unit = 1, calib[variable]
    cells = forecast_cells(panel)
    surveys = panel.surveys
    end_months = [period_end_month(s) for s in surveys]
    history, mse, p_hats, noise = {}, {}, {}, {}
    contributions = {n: {} for n in limits}
    counts = {n: {} for n in limits}
    maturing = {}
    trails = {n: ([], [], [], [0], [0]) for n in limits}
    for idx, survey in enumerate(surveys):
        matured = maturing.pop(idx, [])
        if stats is not None and len(matured) > 1:
            stats["together"] += 1
        for forecasts, members, realized in matured:
            for n, (ids, values) in members.items():
                oracle_fold_survey(contributions[n], counts[n], ids, values, realized)
            for j, x in forecasts.items():
                d = x - realized
                errors = history.setdefault(j, [])
                errors.append(d * d)
                scored = errors if window is None else errors[-window:]
                mse[j] = sum(scored) / len(scored)
                p_hats[j] = oracle_p_from_mse(mse[j], count, unit)
                noise[j] = min(max(mse[j], 2.0 ** -1000), count * unit * unit) if mse[j] else 0.0
        forecasts = cells.get((survey, variable, horizon), {})
        if not forecasts:
            continue
        eligible = sorted(j for j in forecasts if len(history.get(j, ())) >= 2)
        if stats is not None:
            stats["widest"] = max(stats.get("widest", 0), len(eligible))
        ranked = sorted(eligible, key=lambda j: (-p_hats[j], mse[j], j))
        realization = panel.realization(variable, add_quarters(survey, horizon - 1))
        members = {}
        for n, (estimates, errors, p_list, fallbacks, skipped) in trails.items():
            ids = eligible if n is None or n >= len(eligible) else sorted(ranked[:n])
            values = [forecasts[j] for j in ids]
            members[n] = (ids, values)
            if not ids:
                skipped[0] += 1
                continue
            if n is None:
                p_list.extend(p_hats[j] for j in ids)
            *rules, fallback = oracle_rule_estimates(ids, values, noise, contributions[n])
            estimates.append((survey, rules))
            if realization is None:
                skipped[0] += 1
            else:
                errors.append([e - realization[0] for e in rules])
                fallbacks[0] += fallback
        if realization is not None:
            known = bisect.bisect_left(end_months, realization[1])
            if known < len(surveys):
                maturing.setdefault(known, []).append((forecasts, members, realization[0]))
    return trails


def _rmse_cell(variable, horizon, rule, errors):
    series = [e[_RULE_ORDER[rule]] for e in errors]
    rmse = math.sqrt(sum(e * e for e in series) / len(series)) if series else math.nan
    return RmseCell(variable, horizon, rule, rmse, len(series))


def oracle_run_backtest(panel, rules, calib, window=None, hln=False):
    cells, dm_cells, diagnostics = [], [], []
    for variable in sorted(panel.variables):
        for horizon in panel.horizons(variable):
            _, errors, p_list, fallbacks, skipped = oracle_run_cell(
                panel, variable, horizon, calib, (None,), window
            )[None]
            diagnostics.append(CellDiagnostics(
                variable, horizon, float(np.median(p_list)) if p_list else math.nan,
                fallbacks[0], skipped[0],
            ))
            for rule in rules:
                cells.append(_rmse_cell(variable, horizon, rule, errors))
            if RULE_CWM in rules and len(errors) >= 8:
                cwm = [e[_RULE_ORDER[RULE_CWM]] for e in errors]
                for rule in rules:
                    if rule != RULE_CWM:
                        own = [e[_RULE_ORDER[rule]] for e in errors]
                        dm_cells.append(DmCell(variable, horizon, rule, *dm_test(own, cwm, horizon, hln)))
    key = lambda c: (c.variable, c.horizon, _RULE_ORDER[c.rule])  # noqa: E731
    return BacktestReport(
        sorted(cells, key=key), sorted(dm_cells, key=key),
        sorted(diagnostics, key=lambda c: (c.variable, c.horizon)),
    )


def oracle_subset_sweep(panel, horizons, n_range, calib, rules=ALL_RULES, aggregate="mean",
                        window=None):
    sizes = sorted(set(n_range))
    horizons = sorted(set(horizons))
    scored = {}
    for variable in sorted(panel.variables):
        for horizon in panel.horizons(variable):
            if horizon not in horizons:
                continue
            trails = oracle_run_cell(panel, variable, horizon, calib, sizes, window)
            for n, (_, errors, *_rest) in trails.items():
                for rule in rules:
                    cell = _rmse_cell(variable, horizon, rule, errors)
                    if cell.n_surveys > 0:
                        scored.setdefault((horizon, rule, n), []).append(cell)
    points = []
    for n in sizes:
        for horizon in horizons:
            for rule in rules:
                matched = scored.get((horizon, rule, n))
                if not matched:
                    continue
                if aggregate == "mean":
                    rmse = sum(c.rmse for c in matched) / len(matched)
                else:
                    total = sum(c.rmse * c.rmse * c.n_surveys for c in matched)
                    rmse = math.sqrt(total / sum(c.n_surveys for c in matched))
                points.append(SweepPoint(horizon, rule, n, rmse))
    points.sort(key=lambda p: (p.horizon, _RULE_ORDER[p.rule], p.n_included))
    return points


def oracle_cell_estimates(panel, variable, horizon, rules, calib, window=None):
    estimates = oracle_run_cell(panel, variable, horizon, calib, (None,), window)[None][0]
    return {rule: [(s, e[_RULE_ORDER[rule]]) for s, e in estimates] for rule in rules}


# ---------------------------------------------------------------------------
# Panels
# ---------------------------------------------------------------------------

def _rows(items):
    """Dataclass rows as tuples, with NaN spelled out so that it equals itself."""
    return [
        tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in astuple(item))
        for item in items
    ]


def _reports(report):
    return _rows(report.cells), _rows(report.dm), _rows(report.diagnostics)


def late_stamp_panel():
    """Two horizons, four forecasters (c always exact, d on odd surveys), and
    realizations stamped late so that three targets of horizon 1 mature at
    2000Q4 and again at 2001Q4, after the members are eligible."""
    surveys = [add_quarters("2000Q1", i) for i in range(10)]
    truth = [1.0, 2.5, 0.5, -1.0, 2.0, 1.5, 0.0, 3.0, 1.0, 2.0, 0.5]
    stamps = {0: 3, 1: 2, 2: 1, 3: 3, 4: 3, 5: 2, 6: 1, 7: 1, 8: 2, 9: 1, 10: 1}
    forecasts = []
    for s, survey in enumerate(surveys):
        for h in (1, 2):
            target = truth[s + h - 1]
            forecasts.append((survey, "X", h, "a", target + 1.0))
            forecasts.append((survey, "X", h, "b", target - 0.5 * (s % 3)))
            forecasts.append((survey, "X", h, "c", target))
            if s % 2:
                forecasts.append((survey, "X", h, "d", target + 2.0))
    realizations = tuple(
        Release("X", add_quarters("2000Q1", t), add_quarters("2000Q1", t + lag), truth[t])
        for t, lag in stamps.items()
    )
    return Panel(table_of(forecasts), realizations, (), transform="none")


def idle_survey_panel():
    """The late-stamp panel with only a newcomer, e, at 2001Q4, where six targets
    mature: nobody is eligible there, so their terms fold before 2002Q1 reads them."""
    panel = late_stamp_panel()
    forecasts = [(s, v, h, "e" if s == "2001Q4" else j, x)
                 for s, v, h, j, x in rows_of(panel.forecasts) if s != "2001Q4" or j == "a"]
    return Panel(table_of(forecasts), panel.realizations, (), transform="none")


VALUES = st.one_of(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0]),
                   st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def panels(draw):
    """Panels with turnover, 2-3 horizons, targets stamped 1-3 quarters late
    or never, and a forecaster (f0) whose every forecast is exact."""
    n_surveys = draw(st.integers(4, 12))
    n_horizons = draw(st.integers(2, 3))
    pool = [f"f{i}" for i in range(draw(st.integers(2, 11)))]
    variables = draw(st.sampled_from([("X",), ("X", "Y")]))
    forecasts, realizations = [], []
    for variable in variables:
        truth = [draw(VALUES) for _ in range(n_surveys + n_horizons - 1)]
        for t, value in enumerate(truth):
            lag = draw(st.sampled_from([None, 1, 1, 2, 3]))
            if lag is not None:
                target = add_quarters("2000Q1", t)
                realizations.append(Release(variable, target, add_quarters(target, lag), value))
        for s in range(n_surveys):
            survey = add_quarters("2000Q1", s)
            active = sorted(draw(st.sets(st.sampled_from(pool), min_size=1)))
            for h in range(1, n_horizons + 1):
                for j in active:
                    miss = 0.0 if j == pool[0] else draw(VALUES)
                    forecasts.append((survey, variable, h, j, truth[s + h - 1] + miss))
    panel = Panel(table_of(forecasts), tuple(realizations), (), transform="none")
    unit = draw(st.sampled_from([0.5, 1.0, 2.5, 10.0]))
    return panel, dict.fromkeys(variables, unit)


def wide_panel():
    """44 forecasters over two horizons, with turnover and spread-out errors.

    Eligible sets reach 40 and more members, past the eight terms from
    which numpy sums a fast axis pairwise, so a sum that is not added
    member by member shows in the last bits.
    """
    rng = np.random.default_rng(12)
    surveys = [add_quarters("2000Q1", i) for i in range(14)]
    truth = rng.normal(2.0, 1.5, len(surveys) + 1)
    scale = np.exp(rng.normal(0.0, 1.0, 44))
    forecasts = []
    for s, survey in enumerate(surveys):
        for j in np.flatnonzero(rng.random(44) < 0.9):
            for h in (1, 2):
                miss = rng.normal(0.0, scale[j])
                forecasts.append((survey, "X", h, f"f{j:02d}", float(truth[s + h - 1] + miss)))
    realizations = tuple(
        Release("X", add_quarters("2000Q1", t), add_quarters("2000Q1", t + 1 + t % 2), float(value))
        for t, value in enumerate(truth)
    )
    return Panel(table_of(forecasts), realizations, (), transform="none")


LATE = (late_stamp_panel(), {"X": 2.0})
IDLE = (idle_survey_panel(), {"X": 2.0})
WIDE = (wide_panel(), {"X": 1.5})


@st.composite
def lookahead_cases(draw):
    """A generated panel's config, a window, sweep limits, the realization and
    vintage rows to stamp a quarter late, and a cutoff survey."""
    config = draw(st.builds(
        SynthConfig,
        num_forecasters=st.integers(2, 10),
        num_surveys=st.integers(4, 20),
        seed=st.integers(0, 2**32 - 1),
        turnover=st.sampled_from([0.1, 0.3, 0.6, 0.9]),
        horizons=st.integers(1, 3),
        p_dist=st.sampled_from(["const", "uniform", "two_point"]),
        p_low=st.floats(0.5, 0.8),
        p_high=st.floats(0.8, 1.0),
        p_decay=st.sampled_from([0.0, 0.05]),
    ))
    window = draw(st.one_of(st.none(), st.integers(1, 4)))
    limits = tuple(draw(st.lists(st.one_of(st.none(), st.integers(1, 10)),
                                 min_size=1, max_size=4, unique=True)))
    late = draw(st.frozensets(st.integers(0, config.num_surveys + config.horizons)))
    # most cutoffs fall where members are eligible, some before
    cutoff = draw(st.integers(min(4, config.num_surveys - 1) * draw(st.booleans()),
                              config.num_surveys - 1))
    return config, window, limits, late, cutoff


def stamped_late(panel, late):
    """``panel`` with the realizations and vintages at the positions in ``late``
    stamped one quarter later."""
    return Panel(
        panel.forecasts,
        tuple(r._replace(stamp=add_quarters(r.stamp, 1)) if i in late else r
              for i, r in enumerate(panel.realizations)),
        tuple(v._replace(stamp=add_quarters(v.stamp, 1)) if i in late else v
              for i, v in enumerate(panel.vintages)),
        transform=panel.transform,
    )


def mutated_after(panel, cutoff):
    """``panel`` with every forecast of a survey after ``cutoff``, and every
    realization and vintage stamped after its quarter's end, changed."""
    last, bound = period_key(cutoff), period_end_month(cutoff)
    return Panel(
        table_of([(s, v, h, j, x + 77.7 if period_key(s) > last else x)
                  for s, v, h, j, x in rows_of(panel.forecasts)]),
        tuple(r._replace(value=r.value - 55.5) if asof_key(r.stamp) > bound else r
              for r in panel.realizations),
        tuple(v._replace(value=v.value * 3.0) if asof_key(v.stamp) > bound else v
              for v in panel.vintages),
        transform=panel.transform,
    )


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestEngineEqualsOracle:
    @given(
        case=panels(),
        # 8: longer than most cells' histories, shorter than the longer panels' survey counts
        window=st.sampled_from([None, 1, 3, 8]),
        hln=st.booleans(),
        rules=st.sampled_from([ALL_RULES, ("EWM", "KF"), ("KFplus", "CWM", "EWM")]),
        aggregate=st.sampled_from(["mean", "pooled"]),
        # block bounds of one survey a block, of a few surveys, and the default
        entries=st.sampled_from([8, 64, backtest._BLOCK_ENTRIES]),
    )
    @example(case=LATE, window=None, hln=False, rules=ALL_RULES, aggregate="mean", entries=8)
    @example(case=LATE, window=1, hln=True, rules=ALL_RULES, aggregate="pooled", entries=64)
    @example(case=IDLE, window=None, hln=False, rules=ALL_RULES, aggregate="mean", entries=8)
    @settings(max_examples=120, deadline=None)
    def test_reports_sweeps_and_trails(self, case, window, hln, rules, aggregate, entries):
        panel, calib = case
        stats = {"together": 0}
        for variable in panel.variables:
            for horizon in panel.horizons(variable):
                oracle_run_cell(panel, variable, horizon, calib, (None,), window, stats)
        if stats["together"]:
            event("two targets of one cell mature at one survey")

        with patch.object(backtest, "_BLOCK_ENTRIES", entries):  # hypothesis refuses monkeypatch
            got = run_backtest(panel, rules, calib, window=window, hln=hln)
            assert _reports(got) == _reports(oracle_run_backtest(panel, rules, calib, window, hln))

            horizons = sorted({h for v in panel.variables for h in panel.horizons(v)})
            sizes = range(1, 9)
            got = subset_sweep(panel, horizons, sizes, calib, rules, aggregate, window)
            assert got == oracle_subset_sweep(panel, horizons, sizes, calib, rules, aggregate,
                                              window)

            for variable in panel.variables:
                for horizon in panel.horizons(variable):
                    got = cell_estimates(panel, variable, horizon, rules, calib, window)
                    assert got == oracle_cell_estimates(panel, variable, horizon, rules, calib,
                                                        window)

    # 8 cuts the histories of cells with more matured errors than that
    @pytest.mark.parametrize("window", [None, 3, 8])
    def test_wide_crowd(self, window):
        panel, calib = WIDE
        got = run_backtest(panel, ALL_RULES, calib, window=window, hln=True)
        assert _reports(got) == _reports(oracle_run_backtest(panel, ALL_RULES, calib, window, True))
        # limits below, at and above the pairwise threshold and the eligible count
        sizes = (1, 2, 7, 8, 9, 16, 39, 44, 60)
        got = subset_sweep(panel, (1, 2), sizes, calib, ALL_RULES, "mean", window)
        assert got == oracle_subset_sweep(panel, (1, 2), sizes, calib, ALL_RULES, "mean", window)
        for horizon in (1, 2):
            got = cell_estimates(panel, "X", horizon, ALL_RULES, calib, window)
            assert got == oracle_cell_estimates(panel, "X", horizon, ALL_RULES, calib, window)
        stats = {"together": 0, "widest": 0}
        oracle_run_cell(panel, "X", 2, calib, (None,), window, stats)
        assert stats["widest"] >= 40

    def test_late_stamps_fold_in_rounds(self, monkeypatch):
        # the fixed example reaches the multi-round maturation path
        panel, calib = LATE
        stats = {"together": 0}
        oracle_run_cell(panel, "X", 1, calib, (None,), None, stats)
        assert stats["together"] == 2
        folded = []

        def counted(*targets):  # one sequence of pending targets per horizon
            folded.append([len(t) for t in targets])
            return zip_longest(*targets)

        monkeypatch.setattr(backtest, "zip_longest", counted)
        report = run_backtest(panel, ALL_RULES, calib)
        # one call per survey. Only targets that carry terms are pending: the three
        # of each horizon made at 2000Q4-2001Q3 fold at 2001Q4 in three rounds, and
        # those of horizon 1 maturing at 2000Q4 were made before anyone was eligible
        assert len(folded) == len(panel.surveys)
        assert folded[7] == [3, 3]
        assert sum(max(f, default=0) >= 2 for f in folded) == 1
        assert _reports(report) == _reports(oracle_run_backtest(panel, ALL_RULES, calib))
        assert sum(c.n_surveys for c in report.cells) > 0


class TestNoLookahead:
    @given(case=lookahead_cases())
    # the panel of test_backtest's TestRunBacktest::test_anti_lookahead
    @example(case=(SynthConfig(num_forecasters=6, num_surveys=16, seed=73, horizons=2,
                               p_dist="uniform", p_low=0.6, p_high=0.95),
                   None, (None,), frozenset(), 6))
    @settings(max_examples=100, deadline=None)
    def test_estimates_given_the_unit(self, case):
        # the unit comes from the unmutated panel: given it, an estimate at or
        # before the cutoff reads nothing forecast or stamped after it
        config, window, limits, late, cutoff = case
        panel = stamped_late(synth_panel(config), late)
        calib = calibrate_v(calibration_series(panel))
        mutated = mutated_after(panel, panel.surveys[cutoff])
        horizons = panel.horizons("SYN")
        base, after = (backtest._run_variable(p, "SYN", horizons, calib, limits, window)
                       for p in (panel, mutated))
        head = slice(0, cutoff + 1)
        assert np.array_equal(base.estimated[head], after.estimated[head])
        assert np.array_equal(base.estimates[head], after.estimates[head], equal_nan=True)
        assert np.array_equal(base.fallbacks[head], after.fallbacks[head])
        if base.estimated[head].any():
            event("estimates at or before the cutoff")
        if not np.array_equal(base.estimates, after.estimates, equal_nan=True):
            event("the mutation moves a later estimate")


class TestKernelCalls:
    @pytest.mark.parametrize("entries", [None, 500])
    def test_each_estimated_row_in_one_call_per_block(self, monkeypatch, entries):
        if entries is not None:  # a bound of about two surveys
            monkeypatch.setattr(backtest, "_BLOCK_ENTRIES", entries)
        panel = synth_panel(SynthConfig(num_forecasters=10, num_surveys=24, seed=5, horizons=3,
                                        turnover=0.5, p_dist="uniform"))
        calib = calibrate_v(calibration_series(panel))
        sizes = range(1, 9)
        calls = []
        kernel = backtest.rule_estimates

        def counted(X, totals, U, C, M, n):
            got = kernel(X, totals, U, C, M, n)
            calls.append(got[0])  # member-major: (survey, horizon) rows x limits x rules
            return got

        monkeypatch.setattr(backtest, "rule_estimates", counted)
        points = subset_sweep(panel, (1, 2, 3), sizes, calib)
        assert points
        expected, estimated = [], set()
        for horizon in (1, 2, 3):
            trails = oracle_run_cell(panel, "SYN", horizon, calib, sizes, None)
            for n in sizes:
                expected += [tuple(rules) for _, rules in trails[n][0]]
            estimated.update(s for s, _ in trails[1][0])  # every limit estimates alike
        # every estimated survey's rows appear once, one per (horizon, limit)
        rows = [tuple(row) for estimates in calls for row in estimates.reshape(-1, 4).tolist()]
        assert sorted(rows) == sorted(expected)
        assert all(estimates.shape[1] == len(sizes) for estimates in calls)
        assert len(calls) < len(estimated)
        assert entries is None or len(calls) > len(estimated) // 3

    def test_targets_fold_across_blocks(self, monkeypatch):
        # 4 members x 2 horizons x 1 limit: one survey a block, so every target made
        # folds at a later block's survey. Three targets of horizon 1, made at
        # surveys 4, 5 and 6, mature together at survey 7, and the one made at 7
        # matures at 8
        panel, calib = LATE
        monkeypatch.setattr(backtest, "_BLOCK_ENTRIES", 8)
        means = []
        kernel = backtest.rule_estimates

        def recorded(X, totals, U, C, M, n):
            means.append(C[2, :, 0].tolist())  # c's contribution means: place 2 in every set
            return kernel(X, totals, U, C, M, n)

        monkeypatch.setattr(backtest, "rule_estimates", recorded)
        report = run_backtest(panel, ALL_RULES, calib)
        end_months = [period_end_month(s) for s in panel.surveys]
        matures = [bisect.bisect_left(end_months, panel.realization("X", s)[1])
                   for s in panel.surveys]  # horizon 1 targets its own survey's quarter
        assert [s for s in range(7) if matures[s] == 7] == [4, 5, 6]
        assert matures[3] == 6 and matures[7] == 8
        # one call per survey from 3 on, each row's means as of its survey: the
        # means move at surveys 6, 7 and 8 only, by terms made in earlier blocks
        assert len(means) == 7
        assert means[0] == [0.0, 0.0]
        assert [s for s in range(4, 10) if means[s - 3] != means[s - 4]] == [6, 7, 8]
        assert means[3][0] != 0.0 and means[4][1] != 0.0  # both horizons fold
        assert _reports(report) == _reports(oracle_run_backtest(panel, ALL_RULES, calib))
        sizes = (1, 2, 3)
        got = subset_sweep(panel, (1, 2), sizes, calib, ALL_RULES, "mean", None)
        assert got == oracle_subset_sweep(panel, (1, 2), sizes, calib, ALL_RULES, "mean", None)
        for horizon in (1, 2):
            got = cell_estimates(panel, "X", horizon, ALL_RULES, calib)
            assert got == oracle_cell_estimates(panel, "X", horizon, ALL_RULES, calib)

    def test_limits_past_the_largest_set_run_once(self, monkeypatch):
        # sizes up to 10 x the variable's forecasters: every size from the largest
        # eligible set up keeps the whole set, so the kernel's limit axis, its last,
        # holds no more cuts than that set has members, and the curves stay flat
        panel = synth_panel(SynthConfig(num_forecasters=10, num_surveys=24, seed=5, horizons=3,
                                        turnover=0.5, p_dist="uniform"))
        calib = calibrate_v(calibration_series(panel))
        width = len({row[3] for row in rows_of(panel.forecasts)})
        shapes, counts = [], []
        kernel = backtest.rule_estimates

        def recorded(X, totals, U, C, M, n):
            shapes.append(M.shape)
            counts.append(int(n.max()))
            return kernel(X, totals, U, C, M, n)

        monkeypatch.setattr(backtest, "rule_estimates", recorded)
        points = subset_sweep(panel, (1, 2, 3), range(1, 10 * width + 1), calib)
        largest = max(counts)
        assert largest < width
        assert max(shape[-1] for shape in shapes) <= largest
        upto = subset_sweep(panel, (1, 2, 3), range(1, largest + 1), calib)
        assert [p for p in points if p.n_included <= largest] == upto
        at_largest = {(p.horizon, p.rule): p.rmse for p in upto if p.n_included == largest}
        assert all(p.rmse == at_largest[p.horizon, p.rule]
                   for p in points if p.n_included > largest)
