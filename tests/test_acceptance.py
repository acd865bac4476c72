"""Acceptance suite: one test per release criterion, each printing PASS.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 8 needs an external survey dataset and is skipped when the
files are absent (set CROWDFUSE_SPF_DIR or place them under data/spf/).
"""

import math
import os
import random
import time

import numpy as np
import pytest

from crowdfuse.aggregation import ALL_RULES, contribution_terms, member_forecasts, rule_estimates
from crowdfuse.backtest import dm_test, run_backtest
from crowdfuse.gaps import (
    GapKind,
    figure_grid,
    monte_carlo_gap,
    expected_gap_analytic,
)
from crowdfuse.fusion import fuse_sequence
from crowdfuse.panel import (
    SynthConfig,
    calibrate_v,
    calibration_series,
    load_panel,
    synth_panel,
)
from crowdfuse.quincunx import (
    Environment,
    Judge,
    fuse_p,
    moments,
    sample_estimates,
    variance_from_p,
)

GRID_P = (0.55, 0.65, 0.75, 0.85, 0.95)
GRID_C = (10, 12, 16, 20, 24)
GRID_T = (2, 4, 6)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_moment_suite():
    """Sample moments of 1e6 draws match the closed forms on a 5x5x3 grid."""
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    draws_per_cell = 1_000_000
    for p in GRID_P:
        for count in GRID_C:
            for deviation in GRID_T:
                judge = Judge(p)
                env = Environment(norm=0.0, count=count, unit=1.0, deviation=deviation)
                m = moments(judge, env)
                x = sample_estimates(judge, env, draws_per_cell, rng)
                n = x.size
                # with norm 0 and unit 1 the walk lies on the integers -C..C, so
                # the sample moments follow from one count per lattice point
                lattice = x.astype(np.intp)
                assert np.array_equal(lattice, x)
                counts = np.bincount(lattice + count, minlength=2 * count + 1)
                support = np.arange(2 * count + 1, dtype=np.float64) - count
                s_mean = counts @ support / n
                centered = support - s_mean
                s_var = counts @ (centered * centered) / n
                mean_tol = 4.0 * math.sqrt(m.variance / n)
                assert abs(s_mean - m.mean) < mean_tol, (p, count, deviation, "mean")
                var_tol = 4.0 * m.variance * math.sqrt((m.kurtosis - 1.0) / n)
                assert abs(s_var - m.variance) < var_tol, (p, count, deviation, "var")
                s_skew = counts @ centered**3 / n / s_var**1.5
                s_kurt = counts @ centered**4 / n / s_var**2
                # 10% relative, floored at Monte Carlo resolution for the
                # near-zero skew cells
                skew_tol = max(0.1 * abs(m.skewness), 5.0 * math.sqrt(6.0 / n))
                kurt_tol = max(0.1 * m.kurtosis, 5.0 * math.sqrt(24.0 / n))
                assert abs(s_skew - m.skewness) < skew_tol, (p, count, deviation, "skew")
                assert abs(s_kurt - m.kurtosis) < kurt_tol, (p, count, deviation, "kurt")
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report("1", f"75 cells x 1e6 draws in {elapsed:.1f}s")


def test_criterion_2_closure_and_order_invariance():
    """Fusion closure to 1e-12; fold order irrelevant to 1e-10 relative."""
    started = time.monotonic()
    rng = random.Random(1002)
    for _ in range(10_000):
        p1, p2 = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
        v1, v2 = variance_from_p(p1, 1, 1.0), variance_from_p(p2, 1, 1.0)
        fused = variance_from_p(fuse_p(Judge(p1), Judge(p2)).p, 1, 1.0)
        expected = 0.0 if v1 + v2 == 0.0 else v1 * v2 / (v1 + v2)
        assert abs(fused - expected) < 1e-12
    for _ in range(1_000):
        items = [
            (rng.uniform(50.0, 150.0), Judge(rng.uniform(0.55, 0.98)))
            for _ in range(10)
        ]
        base_est, base_judge = fuse_sequence(items)
        shuffled = items[:]
        rng.shuffle(shuffled)
        est, judge = fuse_sequence(shuffled)
        assert abs(est - base_est) <= 1e-10 * abs(base_est)
        assert abs(judge.p - base_judge.p) <= 1e-10 * base_judge.p
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report("2", f"1e4 closure pairs + 1e3 ten-member folds in {elapsed:.1f}s")


def test_criterion_3_analytic_gap_validation():
    """Closed-form gaps sit within 3 Monte Carlo standard errors at 1e7 trials."""
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for kind in GapKind:
        for _ in range(20):
            while True:
                p1, p2 = rng.uniform(0.51, 0.99, 2)
                a, b = variance_from_p(p1, 1, 1.0), variance_from_p(p2, 1, 1.0)
                if abs(a - b) > 1e-3:
                    break
            est = monte_carlo_gap(kind, a, b, 2, 10_000_000, rng)
            gap = expected_gap_analytic(kind, a, b)
            z = abs(gap - est.monte_carlo_mean) / est.monte_carlo_stderr
            worst = max(worst, z)
            assert z < 3.0, (kind, a, b, z)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report("3", f"60 points x 1e7 trials, worst |z| = {worst:.2f}, {elapsed:.0f}s")


def test_criterion_4_figure_sign_structure():
    """Exact sign assertions on the three 50x50 gap surfaces."""
    started = time.monotonic()

    cost = figure_grid(GapKind.KFU_VS_KFC, 50)
    p1, p2 = np.meshgrid(cost.axis, cost.axis, indexing="ij")
    assert (cost.values >= 0.0).all()
    # down each column (p2 fixed) the gap falls strictly as p1 rises
    assert (np.diff(cost.axis) > 0.0).all()
    assert (np.diff(cost.values, axis=0) < 0.0).all()

    ew = figure_grid(GapKind.EW_VS_KFU, 50)
    assert (ew.axis == cost.axis).all()
    hi, lo = np.maximum(p1, p2), np.minimum(p1, p2)
    assert (ew.values[p1 == p2] < 0.0).all()
    assert (ew.values[hi <= 0.951] < 0.0).all()
    assert (ew.values[(hi >= 0.99) & (lo <= 0.955)] > 0.0).all()

    sr = figure_grid(GapKind.SR_VS_KFU, 50)
    assert (sr.axis == cost.axis).all()
    negative = sr.values < 0.0
    assert negative.any()
    assert ((p1 >= 0.83) & (p2 < p1))[negative].all()
    assert (sr.values[p2 >= p1] > 0.0).all()
    assert expected_gap_analytic(
        GapKind.SR_VS_KFU, variance_from_p(0.95, 1, 1.0), variance_from_p(0.6, 1, 1.0)
    ) < 0.0
    elapsed = time.monotonic() - started
    report("4", f"three closed-form 50x50 grids in {elapsed:.2f}s")


def _backtest_rmse(config):
    panel = synth_panel(config)
    calib = calibrate_v(calibration_series(panel))
    cells = run_backtest(panel, ALL_RULES, calib).cells
    return {c.rule: c.rmse for c in cells}


def test_criterion_5_prediction_panels():
    """Rule orderings on pinned synthetic panels match the predictions."""
    started = time.monotonic()
    details = []
    for seed in (1, 2, 3):
        table = _backtest_rmse(
            SynthConfig(num_forecasters=16, num_surveys=80, seed=seed,
                        p_dist="const", p_value=0.8)
        )
        gap = (table["KF"] - table["EWM"]) / table["EWM"]
        assert table["EWM"] <= table["KF"], seed
        assert gap < 0.02, (seed, gap)
        details.append(f"hom s{seed}: +{gap:.2%}")
    for seed in (0, 1, 2):
        table = _backtest_rmse(
            SynthConfig(num_forecasters=16, num_surveys=80, seed=seed,
                        p_dist="two_point", p_low=0.7, p_high=0.95,
                        p_share_high=0.5)
        )
        gap = (table["EWM"] - table["KF"]) / table["EWM"]
        assert table["KF"] < table["EWM"], seed
        assert gap > 0.05, (seed, gap)
        assert table["KFplus"] <= table["CWM"], seed
        details.append(f"div s{seed}: {gap:.0%}")
    elapsed = time.monotonic() - started
    report("5", "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_6_cwm_oracle_equivalence():
    """Contribution scores and weighted means match brute-force recomputation."""
    started = time.monotonic()
    rng = random.Random(2027)
    for _ in range(100):
        n_f = rng.randint(2, 6)
        ids = [f"f{i}" for i in range(n_f)]
        history = []
        for _ in range(rng.randint(2, 10)):
            active = rng.sample(ids, rng.randint(2, n_f))
            forecasts = {j: rng.uniform(-5.0, 5.0) for j in active}
            history.append((forecasts, rng.uniform(-5.0, 5.0)))
        # one kernel row per realized survey, over the forecasters in sorted
        # order; its members' terms folded into the running means
        C = np.zeros((n_f, 1))
        K = np.zeros((n_f, 1), dtype=np.intp)
        for forecasts, realized in history:
            V = np.array([[forecasts.get(j, 0.0)] for j in ids])
            M = np.array([[j in forecasts] for j in ids])
            n = M.sum(axis=0)
            _, totals = member_forecasts(V, M)
            terms = contribution_terms(V[M], totals[0], n[0], realized)
            K[M] += 1
            C[M] += (terms - C[M]) / K[M]
        contributions = {j: C[i, 0] for i, j in enumerate(ids) if K[i, 0]}
        contribution_counts = {j: int(K[i, 0]) for i, j in enumerate(ids) if K[i, 0]}

        # independent recomputation with per-survey lists
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for forecasts, realized in history:
            members = sorted(forecasts)
            if len(members) < 2:
                continue
            full_err = (sum(forecasts[k] for k in members) / len(members)
                        - realized) ** 2
            for j in members:
                others = [forecasts[k] for k in members if k != j]
                err_without = (sum(others) / len(others) - realized) ** 2
                sums[j] = sums.get(j, 0.0) + (err_without - full_err)
                counts[j] = counts.get(j, 0) + 1
        assert set(contributions) == set(sums)
        assert contribution_counts == counts
        for j in sums:
            assert abs(contributions[j] - sums[j] / counts[j]) < 1e-10

        current = {j: rng.uniform(-5.0, 5.0) for j in ids}
        positive = {j: sums[j] / counts[j] for j in sums if sums[j] / counts[j] > 0.0}
        if positive:
            total = sum(positive.values())
            expected = sum(w / total * current[j] for j, w in positive.items())
        else:
            expected = sum(current[j] for j in ids) / len(ids)
        V = np.array([[current[j]] for j in ids])
        M = np.ones(V.shape, dtype=bool)
        got, _ = rule_estimates(*member_forecasts(V, M), np.full(V.shape, 0.25), C, M,
                                np.array([n_f]))
        cw = got[0, 2]
        assert abs(cw - expected) < 1e-10
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report("6", f"100 randomized panels in {elapsed:.1f}s")


def test_criterion_7_dm_calibration():
    """DM p-values are uniform under equal accuracy and tiny under 2x loss."""
    started = time.monotonic()
    rng = np.random.default_rng(101)
    pvals = []
    for _ in range(1000):
        a = rng.normal(0.0, 1.0, 100)
        b = rng.normal(0.0, 1.0, 100)
        pvals.append(dm_test(a, b, 1)[1])
    sorted_p = np.sort(np.asarray(pvals))
    n = sorted_p.size
    ks = float(
        max(
            (np.arange(1, n + 1) / n - sorted_p).max(),
            (sorted_p - np.arange(0, n) / n).max(),
        )
    )
    critical = 1.3581 / math.sqrt(n)
    assert ks < critical, (ks, critical)

    medians = []
    for _ in range(1000):
        a = rng.normal(0.0, math.sqrt(0.5), 100)
        b = rng.normal(0.0, 1.0, 100)
        medians.append(dm_test(a, b, 1)[1])
    median_p = float(np.median(medians))
    assert median_p < 0.01
    elapsed = time.monotonic() - started
    report("7", f"KS {ks:.3f} < {critical:.3f}; median p {median_p:.5f}; {elapsed:.0f}s")


HEADLINE_PANELS = [
    dict(p_dist="uniform", p_low=0.6, p_high=0.95),
    dict(p_dist="two_point", p_low=0.7, p_high=0.95, p_share_high=0.5),
]


def test_criterion_9_kf_on_the_cwm_subset_beats_cwm():
    """The headline claim on synthetic panels: KFplus beats CWM at every horizon."""
    started = time.monotonic()
    details = []
    for spread in HEADLINE_PANELS:
        for seed in (1, 2, 3):
            panel = synth_panel(SynthConfig(
                num_forecasters=40, num_surveys=200, seed=seed, horizons=5, turnover=0.1,
                p_decay=0.02, **spread,
            ))
            report_ = run_backtest(panel, ALL_RULES, calibrate_v(calibration_series(panel)),
                                   hln=True)
            rmse = {(c.horizon, c.rule): c.rmse for c in report_.cells}
            p_values = {c.horizon: c.p_value for c in report_.dm if c.rule == "KFplus"}
            for horizon in range(1, 6):
                ratio = rmse[(horizon, "KFplus")] / rmse[(horizon, "CWM")]
                assert ratio < 1.0, (spread["p_dist"], seed, horizon, ratio)
                details.append(f"{spread['p_dist']} s{seed} h{horizon}: {ratio:.3f} "
                               f"(DM p {p_values[horizon]:.3g})")
    elapsed = time.monotonic() - started
    report("9", "KFplus/CWM RMSE " + "; ".join(details) + f"; {elapsed:.0f}s")


def _spf_paths():
    base = os.environ.get("CROWDFUSE_SPF_DIR", os.path.join("data", "spf"))
    paths = {name: os.path.join(base, f"{name}.csv")
             for name in ("forecasts", "realizations", "vintages")}
    if all(os.path.exists(p) for p in paths.values()):
        return paths
    return None


@pytest.mark.skipif(_spf_paths() is None,
                    reason="survey dataset not supplied (set CROWDFUSE_SPF_DIR)")
def test_criterion_8_survey_reproduction():
    """Employment, one step ahead: fused subsets beat the plain mean."""
    paths = _spf_paths()
    panel = load_panel(paths["forecasts"], paths["realizations"], paths["vintages"])
    calib = calibrate_v(calibration_series(panel))
    report_ = run_backtest(panel, ALL_RULES, calib)
    table = {
        c.rule: c.rmse
        for c in report_.cells
        if c.variable == "EMP" and c.horizon == 1
    }
    assert table["KFplus"] <= table["KF"] <= table["EWM"]
    assert abs(table["EWM"] - table["CWM"]) <= 0.02
    published = {"KFplus": 0.24, "KF": 0.25, "EWM": 0.26, "CWM": 0.26}
    bands = {r: abs(table[r] - published[r]) <= 0.02 for r in published}
    report("8", f"ordering holds; advisory bands: {bands}")
