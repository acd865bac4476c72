import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdfuse import backtest
from crowdfuse.aggregation import ALL_RULES
from crowdfuse.backtest import (
    CellDiagnostics,
    DmCell,
    EmptyPanelError,
    RmseCell,
    SweepPoint,
    cell_estimates,
    dm_test,
    run_backtest,
    subset_sweep,
    write_report,
)
from crowdfuse.panel import (
    Panel,
    Release,
    SynthConfig,
    add_quarters,
    asof_key,
    calibrate_v,
    calibration_series,
    load_panel,
    period_end_month,
    period_key,
    synth_panel,
)
from panel_rows import rows_of, table_of

RULES = ALL_RULES


def hand_panel():
    surveys = ["2000Q1", "2000Q2", "2000Q3", "2000Q4", "2001Q1"]
    realized = [2.0, 2.4, 1.8, 2.2, 2.0]
    forecasts = []
    for s in surveys:
        forecasts.append((s, "X", 1, "a", 1.0))
        forecasts.append((s, "X", 1, "b", 3.0))
    releases = []
    for s, value in zip(surveys, realized):
        stamp = {"2000Q1": "2000Q2", "2000Q2": "2000Q3", "2000Q3": "2000Q4",
                 "2000Q4": "2001Q1", "2001Q1": "2001Q2"}[s]
        releases.append(Release("X", s, stamp, value))
    return Panel(
        forecasts=table_of(forecasts),
        realizations=tuple(releases),
        vintages=tuple(releases),
        transform="none",
    )


def synth_calibrated(config):
    panel = synth_panel(config)
    return panel, calibrate_v(calibration_series(panel))


def report_bytes(report):
    """The three report CSVs of a backtest, as bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = []
        for kind, rows in ((RmseCell, report.cells), (DmCell, report.dm),
                           (CellDiagnostics, report.diagnostics)):
            path = os.path.join(tmp, "report.csv")
            write_report(path, kind, rows)
            with open(path, "rb") as fh:
                out.append(fh.read())
    return out


def rmse_of(report, rule, variable=None, horizon=None):
    cells = [
        c for c in report.cells
        if c.rule == rule
        and (variable is None or c.variable == variable)
        and (horizon is None or c.horizon == horizon)
    ]
    assert len(cells) == 1
    return cells[0]


class TestDmTest:
    def test_identical_series_degenerate(self):
        errs = [0.5, -0.2, 0.9, 0.1, -0.6, 0.3, 0.2, -0.4]
        assert dm_test(errs, errs, 1) == (0.0, 0.5)

    def test_halved_errors_strongly_significant(self):
        rng = np.random.default_rng(61)
        b = rng.normal(0.0, 1.0, 100)
        stat, p = dm_test(b / 2.0, b, 1)
        assert stat < 0.0
        assert p < 0.01

    def test_orientation(self):
        rng = np.random.default_rng(62)
        b = rng.normal(0.0, 1.0, 100)
        _, p_better = dm_test(b / 2.0, b, 1)
        _, p_worse = dm_test(b, b / 2.0, 1)
        assert p_better < 0.5 < p_worse

    def test_length_floor_and_shape(self):
        with pytest.raises(ValueError):
            dm_test([1.0] * 7, [2.0] * 7, 1)
        with pytest.raises(ValueError):
            dm_test([1.0] * 8, [2.0] * 9, 1)
        with pytest.raises(ValueError):
            dm_test([1.0] * 8, [2.0] * 8, 0)

    def test_small_sample_correction_shrinks_stat(self):
        rng = np.random.default_rng(63)
        a = rng.normal(0.0, 0.9, 40)
        b = rng.normal(0.0, 1.0, 40)
        plain, _ = dm_test(a, b, 3)
        adjusted, _ = dm_test(a, b, 3, hln=True)
        assert abs(adjusted) < abs(plain)

    def test_lag_window_uses_horizon(self):
        rng = np.random.default_rng(64)
        a = rng.normal(0.0, 0.9, 60)
        b = rng.normal(0.0, 1.0, 60)
        assert dm_test(a, b, 1) != dm_test(a, b, 4)

    def test_scale_free_and_finite_for_huge_errors(self):
        # one forecaster at 1e153 makes the squared-loss products overflow
        # unless both series are first scaled by one power of two
        rng = np.random.default_rng(65)
        b = rng.normal(0.0, 1.0, 40)
        a = b.copy()
        a[5] = 1e153
        for horizon in (1, 2, 4):
            stat, p = dm_test(a, b, horizon, hln=True)
            assert math.isfinite(stat) and stat > 0.0
            assert 0.5 < p < 1.0
            # a power-of-two scale is exact, so it leaves every bit of the result
            assert dm_test(a * 2.0**-600, b * 2.0**-600, horizon, hln=True) == (stat, p)
        a = rng.normal(0.0, 0.9, 40)
        for k in (-900, -40, 40, 508, 900):
            assert dm_test(a * 2.0**k, b * 2.0**k, 3) == dm_test(a, b, 3)

    def test_uniform_under_equal_accuracy(self):
        # reduced replication count here; the full calibration run is an
        # acceptance criterion
        rng = np.random.default_rng(65)
        pvals = []
        for _ in range(300):
            a = rng.normal(0.0, 1.0, 100)
            b = rng.normal(0.0, 1.0, 100)
            pvals.append(dm_test(a, b, 1)[1])
        pvals = np.sort(np.asarray(pvals))
        grid = np.arange(1, pvals.size + 1) / pvals.size
        ks = float(np.max(np.abs(pvals - grid)))
        assert ks < 0.08


class TestRunBacktest:
    def test_empty_panel(self):
        panel = Panel(forecasts=table_of(()), realizations=(), vintages=(),
                      transform="none")
        with pytest.raises(EmptyPanelError):
            run_backtest(panel, RULES, {})

    def test_unknown_rule(self):
        panel = hand_panel()
        with pytest.raises(ValueError):
            run_backtest(panel, ("EWM", "MAGIC"), {"X": 1.0})

    def test_hand_checked_equal_weight_cell(self):
        panel = hand_panel()
        calib = calibrate_v(calibration_series(panel))
        report = run_backtest(panel, RULES, calib)
        cell = rmse_of(report, "EWM")
        # two errors mature by 2000Q3, so three surveys get scored
        assert cell.n_surveys == 3
        expected = math.sqrt((0.2**2 + 0.2**2 + 0.0**2) / 3)
        assert cell.rmse == pytest.approx(expected, abs=1e-12)
        diag = report.diagnostics[0]
        assert diag.skipped_surveys == 2

    def test_all_perfect_judges_zero_rmse(self):
        panel, calib = synth_calibrated(
            SynthConfig(num_forecasters=5, num_surveys=12, seed=70,
                        p_dist="const", p_value=1.0)
        )
        report = run_backtest(panel, RULES, calib)
        for cell in report.cells:
            if cell.n_surveys:
                assert cell.rmse == pytest.approx(0.0, abs=1e-12)

    def test_every_cell_present_for_every_rule(self):
        panel, calib = synth_calibrated(
            SynthConfig(num_forecasters=6, num_surveys=20, seed=71, horizons=3)
        )
        report = run_backtest(panel, RULES, calib)
        keys = {(c.variable, c.horizon, c.rule) for c in report.cells}
        assert keys == {("SYN", h, r) for h in (1, 2, 3) for r in RULES}

    def test_dm_against_cwm_only(self):
        panel, calib = synth_calibrated(
            SynthConfig(num_forecasters=8, num_surveys=40, seed=72)
        )
        report = run_backtest(panel, RULES, calib)
        assert {c.rule for c in report.dm} == {"EWM", "KF", "KFplus"}
        for cell in report.dm:
            assert 0.0 <= cell.p_value <= 1.0

    def test_maturation_respects_vintage_stamps(self):
        # the slow-stamped variant must withhold eligibility longer
        panel = hand_panel()
        late = tuple(r._replace(stamp="2005Q1") for r in panel.realizations)
        slow = Panel(panel.forecasts, late, panel.vintages, transform="none")
        calib = calibrate_v(calibration_series(panel))
        fast_report = run_backtest(panel, RULES, calib)
        slow_report = run_backtest(slow, RULES, calib)
        assert rmse_of(fast_report, "EWM").n_surveys == 3
        assert rmse_of(slow_report, "EWM").n_surveys == 0

    def test_anti_lookahead(self):
        config = SynthConfig(num_forecasters=6, num_surveys=16, seed=73, horizons=2,
                             p_dist="uniform", p_low=0.6, p_high=0.95)
        panel = synth_panel(config)
        calib = calibrate_v(calibration_series(panel))
        cutoff = panel.surveys[6]
        bound = period_end_month(cutoff)

        mutated = Panel(
            forecasts=table_of([
                (s, v, h, j, x + 77.7 if period_key(s) > period_key(cutoff) else x)
                for s, v, h, j, x in rows_of(panel.forecasts)
            ]),
            realizations=tuple(
                r._replace(value=r.value - 55.5) if asof_key(r.stamp) > bound else r
                for r in panel.realizations
            ),
            vintages=panel.vintages,
            transform="none",
        )
        for horizon in (1, 2):
            base = cell_estimates(panel, "SYN", horizon, RULES, calib)
            after = cell_estimates(mutated, "SYN", horizon, RULES, calib)
            for rule in RULES:
                base_head = [(s, e) for s, e in base[rule] if period_key(s) <= period_key(cutoff)]
                after_head = [(s, e) for s, e in after[rule] if period_key(s) <= period_key(cutoff)]
                assert base_head == after_head
                assert base_head  # the comparison must actually cover something

    def test_median_reliability_declines_with_horizon(self):
        panel, calib = synth_calibrated(
            SynthConfig(num_forecasters=10, num_surveys=60, seed=74, horizons=3,
                        p_dist="const", p_value=0.93, p_decay=0.12)
        )
        report = run_backtest(panel, ("EWM",), calib)
        medians = {d.horizon: d.median_p_hat for d in report.diagnostics}
        assert medians[1] > medians[2] > medians[3]

    def test_deterministic_reports(self, tmp_path):
        panel, calib = synth_calibrated(
            SynthConfig(num_forecasters=6, num_surveys=25, seed=75, turnover=0.1)
        )
        paths = []
        for tag in ("x", "y"):
            report = run_backtest(panel, RULES, calib)
            rmse_path = tmp_path / f"rmse_{tag}.csv"
            dm_path = tmp_path / f"dm_{tag}.csv"
            diag_path = tmp_path / f"diag_{tag}.csv"
            write_report(str(rmse_path), RmseCell, report.cells)
            write_report(str(dm_path), DmCell, report.dm)
            write_report(str(diag_path), CellDiagnostics, report.diagnostics)
            paths.append((rmse_path, dm_path, diag_path))
        for a, b in zip(*paths):
            assert a.read_bytes() == b.read_bytes()


class TestWindow:
    def test_window_covering_every_survey_is_no_window(self):
        panel, calib = synth_calibrated(
            SynthConfig(num_forecasters=6, num_surveys=25, seed=79, turnover=0.1,
                        horizons=2, p_dist="uniform", p_low=0.6, p_high=0.95)
        )
        plain = report_bytes(run_backtest(panel, RULES, calib, hln=True))
        for window in (len(panel.surveys), len(panel.surveys) + 7):
            assert report_bytes(run_backtest(panel, RULES, calib, window=window, hln=True)) == plain
        points = subset_sweep(panel, (1, 2), range(1, 8), calib)
        assert subset_sweep(panel, (1, 2), range(1, 8), calib, window=len(panel.surveys)) == points

    def test_repeated_horizon_counts_once(self):
        panel, calib = synth_calibrated(SynthConfig(num_forecasters=5, num_surveys=20, seed=80))
        points = subset_sweep(panel, (1,), range(1, 4), calib)
        assert points
        assert subset_sweep(panel, (1, 1), range(1, 4), calib) == points

    @pytest.mark.parametrize("window", [0, -1, -500])
    def test_window_below_one_rejected(self, window):
        # 0 used to act as no window, -1 dropped the oldest error, -500 divided by zero
        panel = hand_panel()
        calib = calibrate_v(calibration_series(panel))
        with pytest.raises(ValueError, match="window"):
            run_backtest(panel, RULES, calib, window=window)
        with pytest.raises(ValueError, match="window"):
            subset_sweep(panel, (1,), range(1, 3), calib, window=window)
        with pytest.raises(ValueError, match="window"):
            cell_estimates(panel, "X", 1, RULES, calib, window=window)


def miss_panel(truth, misses):
    """One cell of five surveys: forecaster j always says the realization plus ``misses[j]``.

    Each survey's realization is stamped the next quarter.
    """
    surveys = ["2000Q1", "2000Q2", "2000Q3", "2000Q4", "2001Q1"]
    forecasts = [(s, "X", 1, j, value + miss)
                 for s, value in zip(surveys, truth) for j, miss in misses.items()]
    realizations = tuple(Release("X", s, stamp, value)
                         for s, value, stamp in zip(surveys, truth, [*surveys[1:], "2001Q2"]))
    return Panel(table_of(forecasts), realizations, (), transform="none")


class TestReliabilityState:
    """The MSE is the engine's one reliability state; p is formed only for the diagnostic."""

    def test_unit_scales_out_below_the_clamp(self):
        # KF weighs by 1 / min(MSE, v^2), so a unit above every MSE state cancels
        compared = 0
        for seed in range(1, 11):
            panel, calib = synth_calibrated(
                SynthConfig(num_forecasters=12, num_surveys=40, seed=seed, horizons=2,
                            turnover=0.1, p_dist="uniform", p_low=0.6, p_high=0.95))
            v = calib["SYN"]
            worst = 0.0  # an MSE state is a mean of squared errors, so at most the largest
            for survey, variable, horizon, _, x in rows_of(panel.forecasts):
                realization = panel.realization(variable, add_quarters(survey, horizon - 1))
                if realization is not None:
                    worst = max(worst, (x - realization[0]) ** 2)
            assert worst < 9.0 * v * v
            for horizon in (1, 2):
                trails = [cell_estimates(panel, "SYN", horizon, RULES, {"SYN": k * v})
                          for k in (3.0, 5.0)]
                assert trails[0] == trails[1]
                compared += len(trails[0]["KF"])
        assert compared == 750

    def test_only_zero_mse_is_perfect(self):
        # b's MSE is about 1e-18 v^2 > 0: p rounds to 1, but b is not perfect beside a
        truth = [2.0, 2.4, 1.8, 2.2, 2.0]
        panel = miss_panel(truth, {"a": 0.0, "b": 1e-9})
        trail = cell_estimates(panel, "X", 1, ("KF",), {"X": 1.0})["KF"]
        assert trail == list(zip(panel.surveys[2:], truth[2:]))
        report = run_backtest(panel, RULES, {"X": 1.0})
        assert report.diagnostics[0].median_p_hat == 1.0

    def test_subnormal_mse_keeps_estimates_finite(self):
        # squared misses of 1e-320 would overflow 1 / noise; they weigh as the floor
        panel = miss_panel([0.0] * 5, {"a": 1e-160, "b": -1e-160, "c": 1.0})
        trail = cell_estimates(panel, "X", 1, ("KF",), {"X": 1.0})["KF"]
        assert len(trail) == 3
        assert all(abs(estimate) < 1e-150 for _, estimate in trail)
        report = run_backtest(panel, RULES, {"X": 1.0})
        assert all(math.isfinite(cell.rmse) for cell in report.cells)

    def test_p_from_mse_only_for_the_diagnostic(self, monkeypatch):
        panel, calib = synth_calibrated(
            SynthConfig(num_forecasters=8, num_surveys=20, seed=81, horizons=2, turnover=0.2))
        calls = []
        p_from_mse = backtest.p_from_mse

        def counted(*args):
            calls.append(args)
            return p_from_mse(*args)

        monkeypatch.setattr(backtest, "p_from_mse", counted)
        assert subset_sweep(panel, (1, 2), range(1, 6), calib)
        cell_estimates(panel, "SYN", 1, RULES, calib)
        assert calls == []
        report = run_backtest(panel, RULES, calib)
        assert len(calls) == len(report.diagnostics) == 2
        medians = [float(np.median(p_from_mse(*args))) for args in calls]
        assert medians == [d.median_p_hat for d in report.diagnostics]


synth_configs = st.builds(
    SynthConfig,
    num_forecasters=st.integers(2, 8),
    num_surveys=st.integers(8, 30),
    seed=st.integers(0, 2**32 - 1),
    turnover=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
    horizons=st.integers(1, 3),
    p_dist=st.sampled_from(["const", "uniform", "two_point"]),
    p_value=st.floats(0.5, 1.0),
    p_low=st.floats(0.5, 0.8),
    p_high=st.floats(0.8, 1.0),
    p_decay=st.sampled_from([0.0, 0.05, 0.3]),
)


class TestTotality:
    @given(config=synth_configs, window=st.sampled_from([None, 1, 3]))
    @settings(max_examples=25, deadline=None)
    def test_every_generated_panel_backtests(self, config, window):
        panel, calib = synth_calibrated(config)
        report = run_backtest(panel, RULES, calib, window=window)
        assert report_bytes(run_backtest(panel, RULES, calib, window=window)) == report_bytes(report)
        for horizon in range(1, config.horizons + 1):
            trail = cell_estimates(panel, "SYN", horizon, RULES, calib, window=window)
            for rule in RULES:
                assert all(math.isfinite(e) for _, e in trail[rule])
        horizons = tuple(range(1, config.horizons + 1))
        n = config.num_forecasters
        points = subset_sweep(panel, horizons, [n, n + 2], calib, window=window)
        table = {(p.horizon, p.rule, p.n_included): p.rmse for p in points}
        for cell in report.cells:
            for size in (n, n + 2):
                if cell.n_surveys:
                    assert table[(cell.horizon, cell.rule, size)] == cell.rmse
                else:
                    assert (cell.horizon, cell.rule, size) not in table


class TestSubsetSweep:
    def test_full_population_matches_unrestricted(self):
        panel, calib = synth_calibrated(
            SynthConfig(num_forecasters=6, num_surveys=30, seed=76)
        )
        report = run_backtest(panel, RULES, calib)
        points = subset_sweep(panel, (1,), [6], calib)
        for point in points:
            cell = rmse_of(report, point.rule, horizon=1)
            assert point.rmse == pytest.approx(cell.rmse, abs=1e-12)

    def test_points_sorted_and_increasing(self):
        panel, calib = synth_calibrated(
            SynthConfig(num_forecasters=6, num_surveys=30, seed=77)
        )
        points = subset_sweep(panel, (1,), range(2, 5), calib, rules=("EWM", "KF"))
        sizes = [p.n_included for p in points if p.rule == "EWM"]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)

    def test_rule_named_twice_reported_once(self):
        panel, calib = synth_calibrated(
            SynthConfig(num_forecasters=5, num_surveys=14, seed=79, horizons=2)
        )
        once = subset_sweep(panel, (1, 2), [2, 3], calib, rules=("EWM",))
        assert len(once) == 4
        assert subset_sweep(panel, (1, 2), [2, 3], calib, rules=("EWM", "EWM")) == once
        # built in report order whatever the order asked for
        points = subset_sweep(panel, (2, 1), [3, 2], calib, rules=("KFplus", "EWM"))
        assert points == sorted(points, key=lambda p: (p.horizon, ALL_RULES.index(p.rule),
                                                       p.n_included))

    def test_bad_sizes(self):
        panel, calib = synth_calibrated(
            SynthConfig(num_forecasters=4, num_surveys=10, seed=78)
        )
        with pytest.raises(ValueError):
            subset_sweep(panel, (1,), [0, 2], calib)
        with pytest.raises(ValueError):
            subset_sweep(panel, (1,), [], calib)
        with pytest.raises(ValueError):
            subset_sweep(panel, (1,), [2], calib, aggregate="median")

    def test_smaller_wiser_crowd_crossovers(self):
        # shrinking to the best few makes the crowd homogeneous: the plain
        # mean edges out the fusion there, while the full diverse crowd
        # favors the fusion; and the fusion's lead over the contribution
        # weighting is widest at the smallest subset
        panel, calib = synth_calibrated(
            SynthConfig(num_forecasters=16, num_surveys=80, seed=1,
                        p_dist="two_point", p_low=0.7, p_high=0.95,
                        p_share_high=0.5)
        )
        points = subset_sweep(panel, (1,), [2, 16], calib)
        table = {(p.n_included, p.rule): p.rmse for p in points}
        assert table[(2, "EWM")] < table[(2, "KF")]
        assert table[(16, "KF")] < table[(16, "EWM")]
        small_lead = table[(2, "CWM")] - table[(2, "KF")]
        full_lead = table[(16, "CWM")] - table[(16, "KF")]
        assert small_lead > full_lead > 0.0


class TestRankShortcut:
    """The engine ranks a variable's eligible sets only where some size cuts one."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        ranked = backtest.rank_by_reliability

        def counted(*args):
            calls.append(args)
            return ranked(*args)

        monkeypatch.setattr(backtest, "rank_by_reliability", counted)
        return calls

    @pytest.fixture
    def golden(self):
        files = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden", "files")
        panel = load_panel(*(os.path.join(files, f"{name}.csv")
                             for name in ("forecasts", "realizations", "vintages")))
        assert sorted(panel.variables) == ["GDP", "UNEMP"]
        return panel, calibrate_v(calibration_series(panel))

    def test_backtest_never_ranks(self, calls, golden):
        panel, calib = golden
        run_backtest(panel, RULES, calib)
        run_backtest(panel, RULES, calib, window=2)
        assert calls == []

    def test_sizes_reaching_every_eligible_set_never_rank(self, calls, golden):
        panel, calib = golden
        width = len(panel.forecasts.forecasters)
        subset_sweep(panel, (1, 2), [width, width + 5], calib)
        assert calls == []

    def test_cutting_size_ranks_once_per_variable(self, calls, golden):
        panel, calib = golden
        subset_sweep(panel, (1, 2), [1, 2, 3], calib)
        assert len(calls) == 2


class TestCellEstimates:
    def test_inputs_checked_as_the_reports_check_them(self):
        panel = hand_panel()
        calib = calibrate_v(calibration_series(panel))
        with pytest.raises(ValueError, match="unknown rule"):
            cell_estimates(panel, "X", 1, ("EWM", "MAGIC"), calib)
        with pytest.raises(ValueError, match="window"):
            cell_estimates(panel, "X", 1, RULES, calib, window=0)
        empty = Panel(forecasts=table_of(()), realizations=(), vintages=(), transform="none")
        with pytest.raises(EmptyPanelError):
            cell_estimates(empty, "X", 1, RULES, {"X": 1.0})

    def test_trail_lists_each_rule_once_in_report_order(self):
        panel = hand_panel()
        calib = calibrate_v(calibration_series(panel))
        trails = cell_estimates(panel, "X", 1, ("KFplus", "EWM", "KFplus"), calib)
        assert list(trails) == ["EWM", "KFplus"]
        assert trails["EWM"] == cell_estimates(panel, "X", 1, RULES, calib)["EWM"]


class TestEmission:
    def test_header_only_when_empty(self, tmp_path):
        rmse = tmp_path / "rmse.csv"
        write_report(str(rmse), RmseCell, [])
        assert rmse.read_text(encoding="utf-8") == "variable,horizon,rule,rmse,n_surveys\n"
        dm = tmp_path / "dm.csv"
        write_report(str(dm), DmCell, [])
        assert dm.read_text(encoding="utf-8") == "variable,horizon,rule,stat,p_value\n"
        diag = tmp_path / "diagnostics.csv"
        write_report(str(diag), CellDiagnostics, [])
        assert diag.read_text(encoding="utf-8") == (
            "variable,horizon,median_p_hat,cwm_fallback_surveys,skipped_surveys\n")
        sweep = tmp_path / "sweep.csv"
        write_report(str(sweep), SweepPoint, [])
        assert sweep.read_text(encoding="utf-8") == "horizon,rule,n_included,rmse\n"

    def test_full_study_layout(self, tmp_path):
        # a complete study: 12 variables x 5 horizons x 4 rules
        variables = [f"VAR{i:02d}" for i in range(12)]
        cells = [
            RmseCell(v, h, rule, 0.5, 10)
            for v in variables for h in range(1, 6) for rule in RULES
        ]
        path = tmp_path / "rmse.csv"
        write_report(str(path), RmseCell, cells)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 12 * 5 * 4

    def test_fixture_bytes(self, tmp_path):
        cells = [
            RmseCell("EMP", 1, "EWM", 0.26, 120),
            RmseCell("EMP", 1, "KF", 0.25, 120),
            RmseCell("EMP", 2, "EWM", math.nan, 0),
        ]
        path = tmp_path / "rmse.csv"
        write_report(str(path), RmseCell, cells)
        assert path.read_text(encoding="utf-8") == (
            "variable,horizon,rule,rmse,n_surveys\n"
            "EMP,1,EWM,0.260000,120\n"
            "EMP,1,KF,0.250000,120\n"
            "EMP,2,EWM,,0\n"
        )
        dm_path = tmp_path / "dm.csv"
        write_report(str(dm_path), DmCell, [DmCell("EMP", 1, "KF", -1.5, 0.0668)])
        assert dm_path.read_text(encoding="utf-8") == (
            "variable,horizon,rule,stat,p_value\nEMP,1,KF,-1.500000,0.066800\n"
        )
        diag_path = tmp_path / "diag.csv"
        write_report(str(diag_path), CellDiagnostics, [CellDiagnostics("EMP", 1, 0.9, 3, 2)])
        assert diag_path.read_text(encoding="utf-8") == (
            "variable,horizon,median_p_hat,cwm_fallback_surveys,skipped_surveys\n"
            "EMP,1,0.900000,3,2\n"
        )
