import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdfuse.aggregation import (
    NoEligibleForecastersError,
    SurveySlice,
    cwm,
    ewm,
    fold_contributions,
    fold_survey,
    kf_crowd,
    kf_plus,
    positive_contribution_subset,
    rank_by_reliability,
    rule_estimates,
    slice_contribution_terms,
)
from crowdfuse.backtest import cell_estimates, run_backtest
from crowdfuse.fusion import fuse_sequence
from crowdfuse.panel import (
    Calibration,
    ForecastRow,
    Panel,
    RealizationRow,
    VintageRow,
    calibrate_v,
    calibration_series,
)
from crowdfuse.quincunx import Judge, p_from_mse

SURVEYS = ["2000Q1", "2000Q2", "2000Q3", "2000Q4", "2001Q1"]
REALIZED = [2.0, 2.4, 1.8, 2.2, 2.0]


def cell_panel(forecasters):
    """The five surveys and realizations of ``test_backtest.hand_panel``.

    ``forecasters`` maps each id to a function of the realized value giving
    their forecast; each survey's realization is stamped the next quarter.
    """
    forecasts, realizations, vintages = [], [], []
    for i, (survey, value) in enumerate(zip(SURVEYS, REALIZED)):
        for j, forecast in forecasters.items():
            forecasts.append(ForecastRow(survey, "X", 1, j, forecast(value)))
        stamp = SURVEYS[i + 1] if i + 1 < len(SURVEYS) else "2001Q2"
        realizations.append(RealizationRow(survey, "X", value, stamp))
        vintages.append(VintageRow(stamp, "X", survey, value))
    return Panel(tuple(forecasts), tuple(realizations), tuple(vintages), transform="none")


def expected_kf(forecasts, mses, calib):
    """Inverse-variance estimate for reliabilities implied by the given MSEs."""
    inverse = {j: 1.0 / p_from_mse(m, *calib).noise for j, m in mses.items()}
    total = sum(inverse.values())
    return sum(inverse[j] / total * forecasts[j] for j in mses)


def fold_history(history):
    contributions, counts = {}, {}
    for slice_, realized in history:
        fold_contributions(contributions, counts, slice_, realized)
    return contributions, counts


def brute_force_contributions(history):
    """Oracle: recompute every leave-one-out term from scratch with lists."""
    sums, counts = {}, {}
    for slice_, realized in history:
        members = sorted(slice_.eligible)
        if len(members) < 2:
            continue
        for j in members:
            others = [slice_.forecasts[k] for k in members if k != j]
            err_without = (sum(others) / len(others) - realized) ** 2
            err_with = (sum(slice_.forecasts[k] for k in members) / len(members) - realized) ** 2
            sums[j] = sums.get(j, 0.0) + (err_without - err_with)
            counts[j] = counts.get(j, 0) + 1
    return {j: sums[j] / counts[j] for j in sums}, counts


def brute_force_cwm(slice_, contributions):
    positive = {
        j: contributions[j]
        for j in sorted(slice_.eligible)
        if contributions.get(j, 0.0) > 0.0
    }
    if not positive:
        members = sorted(slice_.eligible)
        return sum(slice_.forecasts[j] for j in members) / len(members)
    total = sum(positive.values())
    return sum(w / total * slice_.forecasts[j] for j, w in positive.items())


class TestStateUpdates:
    """The rolling reliability and contribution state, observed through the engine."""

    # hand_panel's forecasters: a always says 1.0, b always 3.0
    SQUARED = {
        "a": [(1.0 - r) ** 2 for r in REALIZED],
        "b": [(3.0 - r) ** 2 for r in REALIZED],
    }

    def test_zero_error_gives_perfect_reliability(self):
        panel = cell_panel({"a": lambda r: 1.0, "c": lambda r: r})
        calib = calibrate_v(calibration_series(panel))
        trail = cell_estimates(panel, "X", 1, ("KF",), calib)["KF"]
        assert [s for s, _ in trail] == SURVEYS[2:]
        for survey, estimate in trail:
            assert estimate == REALIZED[SURVEYS.index(survey)]
        report = run_backtest(panel, ("KF",), calib)
        assert report.cells[0].rmse == 0.0

    def test_mse_is_running_mean(self):
        panel = cell_panel({"a": lambda r: 1.0, "b": lambda r: 3.0})
        calib = Calibration(1, {"X": 2.0})
        trail = cell_estimates(panel, "X", 1, ("KF",), calib)["KF"]
        assert [s for s, _ in trail] == SURVEYS[2:]
        for i, (_, estimate) in enumerate(trail, start=2):
            mses = {j: sum(errors[:i]) / i for j, errors in self.SQUARED.items()}
            expected = expected_kf({"a": 1.0, "b": 3.0}, mses, (1, 2.0))
            assert estimate == pytest.approx(expected, abs=1e-12)

    def test_reliability_roundtrip(self):
        panel = cell_panel({"a": lambda r: r + 0.6, "b": lambda r: r - 0.6})
        report = run_backtest(panel, ("EWM",), Calibration(1, {"X": 1.0}))
        assert report.diagnostics[0].median_p_hat == pytest.approx(0.9, abs=1e-12)

    def test_window_restricts_history(self):
        panel = cell_panel({"a": lambda r: 1.0, "b": lambda r: 3.0})
        calib = Calibration(1, {"X": 2.0})
        trail = cell_estimates(panel, "X", 1, ("KF",), calib, window=1)["KF"]
        full = cell_estimates(panel, "X", 1, ("KF",), calib)["KF"]
        for i, (_, estimate) in enumerate(trail, start=2):
            mses = {j: errors[i - 1] for j, errors in self.SQUARED.items()}
            expected = expected_kf({"a": 1.0, "b": 3.0}, mses, (1, 2.0))
            assert estimate == pytest.approx(expected, abs=1e-12)
        assert trail != full

    def test_contribution_running_mean(self):
        contributions, counts = {}, {}
        # a alone beside the truth: its term is (1 - 0)^2 - 0^2 = 1
        fold_contributions(
            contributions, counts, SurveySlice("2000Q1", {"a": -1.0, "b": 1.0}, frozenset("ab")), 0.0
        )
        # a on the crowd mean: its term is 0
        fold_contributions(
            contributions, counts,
            SurveySlice("2000Q2", {"a": 2.0, "b": 1.0, "c": 3.0}, frozenset("abc")), 5.0,
        )
        assert contributions["a"] == pytest.approx(0.5)
        assert counts["a"] == 2
        assert counts == {"a": 2, "b": 2, "c": 1}


class TestContributionTerms:
    def test_forecaster_at_crowd_mean_contributes_nothing(self):
        slice_ = SurveySlice(
            "2000Q1", {"a": 2.0, "b": 1.0, "c": 3.0}, frozenset({"a", "b", "c"})
        )
        terms = slice_contribution_terms(slice_, realized=5.0)
        assert terms["a"] == pytest.approx(0.0, abs=1e-12)

    def test_closer_than_crowd_is_positive(self):
        # a sits on the truth, the others are off; removing a must hurt
        slice_ = SurveySlice(
            "2000Q1", {"a": 5.0, "b": 1.0, "c": 2.0}, frozenset({"a", "b", "c"})
        )
        terms = slice_contribution_terms(slice_, realized=5.0)
        assert terms["a"] > 0.0
        assert terms["b"] < 0.0

    def test_single_member_yields_no_terms(self):
        slice_ = SurveySlice("2000Q1", {"a": 2.0}, frozenset({"a"}))
        assert slice_contribution_terms(slice_, realized=1.0) == {}

    def test_hand_built_two_survey_history(self):
        history = [
            (SurveySlice("2000Q1", {"a": 1.0, "b": 3.0, "c": 4.0}, frozenset("abc")), 2.0),
            (SurveySlice("2000Q2", {"a": 2.0, "b": 0.0, "c": 1.0}, frozenset("abc")), 1.5),
        ]
        contributions, counts = fold_history(history)
        oracle, oracle_counts = brute_force_contributions(history)
        for j in "abc":
            assert contributions[j] == pytest.approx(oracle[j], abs=1e-12)
            assert counts[j] == oracle_counts[j]

    def test_randomized_against_brute_force(self):
        rng = random.Random(41)
        for _ in range(30):
            n_f = rng.randint(2, 6)
            ids = [f"f{i}" for i in range(n_f)]
            history = []
            for s in range(rng.randint(1, 8)):
                active = rng.sample(ids, rng.randint(1, n_f))
                forecasts = {j: rng.uniform(-5, 5) for j in active}
                history.append(
                    (SurveySlice(f"20{s:02d}Q1", forecasts, frozenset(active)),
                     rng.uniform(-5, 5))
                )
            contributions, _ = fold_history(history)
            oracle, counts = brute_force_contributions(history)
            assert set(contributions) == set(oracle)
            for j in oracle:
                assert contributions[j] == pytest.approx(oracle[j], abs=1e-10)


class TestEwm:
    def test_mean(self):
        slice_ = SurveySlice("2000Q1", {"a": 2.0, "b": 4.0}, frozenset({"a", "b"}))
        result = ewm(slice_)
        assert result.estimate == 3.0
        assert result.weights == {"a": 0.5, "b": 0.5}

    def test_single(self):
        slice_ = SurveySlice("2000Q1", {"a": 2.0, "b": 4.0}, frozenset({"a"}))
        assert ewm(slice_).estimate == 2.0

    def test_empty_raises(self):
        with pytest.raises(NoEligibleForecastersError):
            ewm(SurveySlice("2000Q1", {"a": 2.0}, frozenset()))

    def test_matches_brute_sum(self):
        rng = random.Random(43)
        values = {f"f{i}": rng.uniform(0, 10) for i in range(5)}
        slice_ = SurveySlice("2000Q1", values, frozenset(values))
        total = 0.0
        for v in sorted(values):
            total += values[v]
        assert ewm(slice_).estimate == pytest.approx(total / 5, abs=1e-12)


class TestKfCrowd:
    def test_equal_reliability_equals_mean(self):
        p_hats = {j: Judge(0.8) for j in ("a", "b", "c")}
        slice_ = SurveySlice(
            "2000Q1", {"a": 1.0, "b": 2.0, "c": 6.0}, frozenset({"a", "b", "c"})
        )
        assert kf_crowd(slice_, p_hats).estimate == pytest.approx(
            ewm(slice_).estimate, rel=1e-12
        )

    def test_pinned_two_forecaster_case(self):
        p_hats = {"a": Judge(0.9), "b": Judge(0.6)}
        slice_ = SurveySlice("2000Q1", {"a": 1.0, "b": 0.0}, frozenset({"a", "b"}))
        result = kf_crowd(slice_, p_hats)
        assert result.estimate == pytest.approx(8.0 / 11.0, abs=1e-12)
        assert result.weights["a"] == pytest.approx(8.0 / 11.0, abs=1e-12)

    def test_ordering_invariance(self):
        rng = random.Random(44)
        ids = [f"f{i}" for i in range(6)]
        p_hats = {j: Judge(rng.uniform(0.55, 0.95)) for j in ids}
        forecasts = {j: rng.uniform(0, 10) for j in ids}
        base = kf_crowd(SurveySlice("s", forecasts, frozenset(ids)), p_hats)
        for _ in range(5):
            order = ids[:]
            rng.shuffle(order)
            shuffled = {j: forecasts[j] for j in order}
            again = kf_crowd(SurveySlice("s", shuffled, frozenset(ids)), p_hats)
            assert again.estimate == base.estimate

    def test_matches_recursive_fold(self):
        rng = random.Random(48)
        for _ in range(50):
            ids = [f"f{i}" for i in range(rng.randint(1, 8))]
            p_hats = {j: Judge(rng.uniform(0.5, 0.999)) for j in ids}
            forecasts = {j: rng.uniform(-10, 10) for j in ids}
            result = kf_crowd(SurveySlice("s", forecasts, frozenset(ids)), p_hats)
            folded, _ = fuse_sequence([(forecasts[j], p_hats[j]) for j in ids])
            assert result.estimate == pytest.approx(folded, rel=1e-12, abs=1e-12)

    def test_perfect_forecasters_share_weight(self):
        p_hats = {"a": Judge(1.0), "b": Judge(1.0), "c": Judge(0.7)}
        slice_ = SurveySlice("s", {"a": 3.0, "b": 3.0, "c": 9.0}, frozenset("abc"))
        result = kf_crowd(slice_, p_hats)
        assert result.estimate == 3.0
        assert result.weights == {"a": 0.5, "b": 0.5, "c": 0.0}
        # perfect members that disagree share the weight too
        slice_ = SurveySlice("s", {"a": 3.0, "b": 4.0, "c": 9.0}, frozenset("abc"))
        result = kf_crowd(slice_, p_hats)
        assert result.estimate == 3.5
        assert result.weights == {"a": 0.5, "b": 0.5, "c": 0.0}

    def test_missing_reliability_raises(self):
        with pytest.raises(ValueError):
            kf_crowd(SurveySlice("s", {"a": 1.0}, frozenset("a")), {})


class TestCwm:
    def test_equal_positive_contributions(self):
        contributions = {"a": 0.2, "b": 0.2}
        slice_ = SurveySlice("s", {"a": 1.0, "b": 3.0}, frozenset({"a", "b"}))
        assert cwm(slice_, contributions).estimate == pytest.approx(2.0)

    def test_normalization_and_exclusion(self):
        contributions = {"a": 0.3, "b": 0.1, "c": -0.5}
        slice_ = SurveySlice(
            "s", {"a": 1.0, "b": 5.0, "c": 100.0}, frozenset({"a", "b", "c"})
        )
        result = cwm(slice_, contributions)
        assert result.estimate == pytest.approx(2.0, abs=1e-12)
        assert result.weights == pytest.approx({"a": 0.75, "b": 0.25})
        assert "c" not in result.contributors

    def test_all_nonpositive_falls_back_to_equal_weights(self):
        contributions = {"a": -0.1, "b": 0.0}
        slice_ = SurveySlice("s", {"a": 1.0, "b": 3.0}, frozenset({"a", "b"}))
        result = cwm(slice_, contributions)
        assert result.estimate == 2.0
        assert result.rule == "CWM"

    def test_zero_contribution_is_excluded(self):
        # "positive" is read strictly: a zero score stays out of the subset
        contributions = {"a": 0.4, "b": 0.0}
        slice_ = SurveySlice("s", {"a": 1.0, "b": 3.0}, frozenset({"a", "b"}))
        assert cwm(slice_, contributions).contributors == frozenset({"a"})

    def test_randomized_against_brute_force(self):
        rng = random.Random(45)
        for _ in range(25):
            n_f = rng.randint(2, 6)
            ids = [f"f{i}" for i in range(n_f)]
            history = []
            for s in range(rng.randint(2, 10)):
                active = rng.sample(ids, rng.randint(2, n_f))
                forecasts = {j: rng.uniform(-5, 5) for j in active}
                history.append(
                    (SurveySlice(f"19{s:02d}Q1", forecasts, frozenset(active)),
                     rng.uniform(-5, 5))
                )
            contributions, _ = fold_history(history)
            current = {j: rng.uniform(-5, 5) for j in ids}
            slice_ = SurveySlice("2020Q1", current, frozenset(ids))
            oracle, _ = brute_force_contributions(history)
            expected = brute_force_cwm(slice_, oracle)
            assert cwm(slice_, contributions).estimate == pytest.approx(expected, abs=1e-10)


class TestKfPlus:
    def test_subset_of_one(self):
        p_hats = {"a": Judge(0.9), "b": Judge(0.9)}
        contributions = {"a": 0.5, "b": -0.5}
        slice_ = SurveySlice("s", {"a": 7.0, "b": 1.0}, frozenset({"a", "b"}))
        result = kf_plus(slice_, p_hats, contributions)
        assert result.estimate == 7.0
        assert result.contributors == frozenset({"a"})

    def test_pinned_subset_weights(self):
        p_hats = {"a": Judge(0.9), "b": Judge(0.6), "c": Judge(0.99)}
        contributions = {"a": 0.5, "b": 0.5, "c": -1.0}
        slice_ = SurveySlice(
            "s", {"a": 1.0, "b": 0.0, "c": 50.0}, frozenset({"a", "b", "c"})
        )
        assert kf_plus(slice_, p_hats, contributions).estimate == pytest.approx(8.0 / 11.0, abs=1e-12)

    def test_differs_from_cwm_when_contributions_unequal(self):
        p_hats = {"a": Judge(0.8), "b": Judge(0.8)}
        contributions = {"a": 0.9, "b": 0.1}
        slice_ = SurveySlice("s", {"a": 2.0, "b": 4.0}, frozenset({"a", "b"}))
        # equal reliabilities: the fusion weighs evenly, contributions do not
        assert kf_plus(slice_, p_hats, contributions).estimate == pytest.approx(3.0, rel=1e-12)
        assert cwm(slice_, contributions).estimate == pytest.approx(2.2, rel=1e-12)

    def test_contributor_nesting(self):
        rng = random.Random(46)
        ids = [f"f{i}" for i in range(6)]
        p_hats, contributions = {}, {}
        for j in ids:
            p_hats[j] = Judge(rng.uniform(0.55, 0.95))
            contributions[j] = rng.uniform(-0.5, 0.5)
        slice_ = SurveySlice("s", {j: rng.uniform(0, 5) for j in ids}, frozenset(ids))
        plus = kf_plus(slice_, p_hats, contributions)
        weighted = cwm(slice_, contributions)
        assert plus.contributors <= weighted.contributors
        assert weighted.contributors <= slice_.eligible

    def test_fallback_matches_cwm(self):
        p_hats = {"a": Judge(0.9), "b": Judge(0.6)}
        contributions = {"a": -0.2, "b": -0.1}
        slice_ = SurveySlice("s", {"a": 1.0, "b": 5.0}, frozenset({"a", "b"}))
        assert kf_plus(slice_, p_hats, contributions).estimate == 3.0


class TestTopN:
    def test_covering_population_is_identity(self):
        p_hats = {"a": Judge(0.7), "b": Judge(0.7)}
        ranked = rank_by_reliability(["a", "b"], p_hats, {"a": 0.5, "b": 0.5})
        assert set(ranked[:5]) == {"a", "b"}

    def test_top_two_by_reliability(self):
        p_hats = {"a": Judge(0.9), "b": Judge(0.8), "c": Judge(0.7)}
        mse = {"a": 0.5, "b": 0.5, "c": 0.5}
        assert rank_by_reliability("cba", p_hats, mse)[:2] == ["a", "b"]

    def test_tie_breaks_deterministic(self):
        # equal clamped reliability: lower MSE wins, then the id
        p_hats = {j: Judge(0.5) for j in "abc"}
        mse = {"a": 3.0, "b": 2.0, "c": 2.0}
        ranked = rank_by_reliability("abc", p_hats, mse)
        assert ranked[:1] == ["b"]
        assert ranked[:2] == ["b", "c"]

    def test_rejects_bad_arguments(self):
        # a forecaster without a reliability estimate cannot be ranked
        with pytest.raises(KeyError):
            rank_by_reliability(["a", "b"], {"a": Judge(0.7)}, {"a": 0.5, "b": 0.5})


class TestWeightNormalization:
    def test_all_rules_normalize(self):
        rng = random.Random(47)
        for _ in range(20):
            ids = [f"f{i}" for i in range(rng.randint(2, 7))]
            p_hats, contributions = {}, {}
            for j in ids:
                p_hats[j] = Judge(rng.uniform(0.5, 1.0))
                contribution, count = rng.uniform(-1, 1), rng.randint(0, 3)
                if count > 0:
                    contributions[j] = contribution
            slice_ = SurveySlice(
                "s", {j: rng.uniform(-10, 10) for j in ids}, frozenset(ids)
            )
            for rule in (ewm, lambda s: kf_crowd(s, p_hats),
                         lambda s: cwm(s, contributions),
                         lambda s: kf_plus(s, p_hats, contributions)):
                result = rule(slice_)
                total = sum(result.weights[j] for j in result.contributors)
                assert abs(total - 1.0) <= 1e-9


values = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def surveys(draw):
    """One survey: forecasts, a nonempty eligible subset, p-hats and contributions.

    Reliabilities are often exactly 1, contribution means take either sign
    or are missing (no term yet), and some forecasters are not eligible.
    """
    ids = [f"f{i}" for i in range(draw(st.integers(1, 7)))]
    forecasts = {j: draw(values) for j in ids}
    eligible = draw(st.sets(st.sampled_from(ids), min_size=1))
    ps = {j: draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0))) for j in ids}
    contributions = {
        j: c for j in ids
        if (c := draw(st.one_of(st.none(), st.just(0.0), st.floats(-1.0, 1.0)))) is not None
    }
    return forecasts, frozenset(eligible), ps, contributions


# realized surveys: forecasts, an eligible set (cut to the forecasters), the realization
histories = st.lists(
    st.tuples(st.dictionaries(st.sampled_from("abcde"), values),
              st.sets(st.sampled_from("abcde")), values),
    max_size=8,
)


class TestRuleKernel:
    """The kernel the engine calls equals the public rules it shares helpers with."""

    @given(surveys())
    @settings(max_examples=300, deadline=None)
    # perfect members that disagree
    @example(({"a": 1.0, "b": 2.0, "c": 9.0}, frozenset("abc"), {"a": 1.0, "b": 1.0, "c": 0.7},
              {"a": 0.5, "b": 0.2, "c": 0.1}))
    # every contribution at or below zero: both subset rules fall back
    @example(({"a": 1.0, "b": 2.0}, frozenset("ab"), {"a": 0.8, "b": 0.6}, {"a": -0.3, "b": 0.0}))
    # a single member
    @example(({"a": 4.0, "b": 2.0}, frozenset("a"), {"a": 0.9, "b": 0.6}, {"a": 0.1}))
    # mixed signs, one member without a term
    @example(({"a": 1.0, "b": 2.0, "c": 5.0, "d": -1.0}, frozenset("abcd"),
              {"a": 0.9, "b": 0.6, "c": 1.0, "d": 0.75}, {"a": 0.4, "b": -0.2, "c": 0.1}))
    def test_estimates_and_fallback_equal_public_rules(self, survey):
        forecasts, eligible, ps, contributions = survey
        p_hats = {j: Judge(p) for j, p in ps.items()}
        slice_ = SurveySlice("s", forecasts, eligible)
        ids = sorted(eligible)
        noise = {j: p.noise for j, p in p_hats.items()}
        ew, kf, cw, kp, fallback = rule_estimates(
            ids, [forecasts[j] for j in ids], noise, contributions
        )
        assert ew == ewm(slice_).estimate
        assert kf == kf_crowd(slice_, p_hats).estimate
        assert cw == cwm(slice_, contributions).estimate
        assert kp == kf_plus(slice_, p_hats, contributions).estimate
        assert fallback == (not positive_contribution_subset(slice_, contributions))

    def test_missing_reliability_raises(self):
        with pytest.raises(ValueError, match="no reliability estimate"):
            rule_estimates(["a", "b"], [1.0, 2.0], {"a": 0.16}, {})

    def test_empty_raises(self):
        with pytest.raises(NoEligibleForecastersError):
            rule_estimates([], [], {}, {})

    @given(histories)
    @settings(max_examples=200, deadline=None)
    def test_engine_fold_equals_slice_fold(self, history):
        engine_means, engine_counts = {}, {}
        for forecasts, eligible, realized in history:
            ids = sorted(eligible & forecasts.keys())
            fold_survey(engine_means, engine_counts, ids, [forecasts[j] for j in ids], realized)
        slices = [
            (SurveySlice("s", forecasts, frozenset(eligible & forecasts.keys())), realized)
            for forecasts, eligible, realized in history
        ]
        assert (engine_means, engine_counts) == fold_history(slices)
