import random

import pytest

from crowdfuse.aggregation import (
    ForecasterState,
    NoEligibleForecastersError,
    SurveySlice,
    add_contribution,
    contribution_update,
    cwm,
    ewm,
    kf_crowd,
    kf_plus,
    slice_contribution_terms,
    top_n_subset,
    update_state,
)
from crowdfuse.fusion import fuse_sequence
from crowdfuse.quincunx import Judge

CALIB = (1, 1.0)


def make_state(fid, p=None, mse=0.5, contribution=0.0, count=0):
    return ForecasterState(
        forecaster_id=fid,
        squared_errors=(mse, mse),
        mse=mse,
        p_hat=Judge(p) if p is not None else None,
        contribution=contribution,
        contribution_count=count,
    )


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
    def test_zero_error_gives_perfect_reliability(self):
        state = update_state(ForecasterState("a"), 0.0, CALIB)
        assert state.mse == 0.0
        assert state.p_hat.p == 1.0

    def test_mse_is_running_mean(self):
        state = ForecasterState("a", squared_errors=(0.2, 0.4), mse=0.3)
        state = update_state(state, 0.6, CALIB)
        assert state.mse == pytest.approx(0.4, abs=1e-15)
        assert state.squared_errors == (0.2, 0.4, 0.6)

    def test_reliability_roundtrip(self):
        state = update_state(ForecasterState("a"), 0.36, CALIB)
        assert state.p_hat.p == pytest.approx(0.9, abs=1e-12)

    def test_window_restricts_history(self):
        state = ForecasterState("a", squared_errors=(10.0, 10.0), mse=10.0)
        state = update_state(state, 0.0, CALIB, window=1)
        assert state.mse == 0.0
        assert state.squared_errors == (10.0, 10.0, 0.0)

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            update_state(ForecasterState("a"), -0.1, CALIB)

    def test_contribution_running_mean(self):
        state = add_contribution(ForecasterState("a"), 1.0)
        state = add_contribution(state, 0.0)
        assert state.contribution == pytest.approx(0.5)
        assert state.contribution_count == 2


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
        states = contribution_update(history, {})
        oracle, counts = brute_force_contributions(history)
        for j in "abc":
            assert states[j].contribution == pytest.approx(oracle[j], abs=1e-12)
            assert states[j].contribution_count == counts[j]

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
            states = contribution_update(history, {})
            oracle, counts = brute_force_contributions(history)
            assert set(states) == set(oracle)
            for j in oracle:
                assert states[j].contribution == pytest.approx(oracle[j], abs=1e-10)


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
        states = {j: make_state(j, p=0.8) for j in ("a", "b", "c")}
        slice_ = SurveySlice(
            "2000Q1", {"a": 1.0, "b": 2.0, "c": 6.0}, frozenset({"a", "b", "c"})
        )
        assert kf_crowd(slice_, states).estimate == pytest.approx(
            ewm(slice_).estimate, rel=1e-12
        )

    def test_pinned_two_forecaster_case(self):
        states = {"a": make_state("a", p=0.9), "b": make_state("b", p=0.6)}
        slice_ = SurveySlice("2000Q1", {"a": 1.0, "b": 0.0}, frozenset({"a", "b"}))
        result = kf_crowd(slice_, states)
        assert result.estimate == pytest.approx(8.0 / 11.0, abs=1e-12)
        assert result.weights["a"] == pytest.approx(8.0 / 11.0, abs=1e-12)

    def test_ordering_invariance(self):
        rng = random.Random(44)
        ids = [f"f{i}" for i in range(6)]
        states = {j: make_state(j, p=rng.uniform(0.55, 0.95)) for j in ids}
        forecasts = {j: rng.uniform(0, 10) for j in ids}
        base = kf_crowd(SurveySlice("s", forecasts, frozenset(ids)), states)
        for _ in range(5):
            order = ids[:]
            rng.shuffle(order)
            shuffled = {j: forecasts[j] for j in order}
            again = kf_crowd(SurveySlice("s", shuffled, frozenset(ids)), states)
            assert again.estimate == base.estimate

    def test_matches_recursive_fold(self):
        rng = random.Random(48)
        for _ in range(50):
            ids = [f"f{i}" for i in range(rng.randint(1, 8))]
            states = {j: make_state(j, p=rng.uniform(0.5, 0.999)) for j in ids}
            forecasts = {j: rng.uniform(-10, 10) for j in ids}
            result = kf_crowd(SurveySlice("s", forecasts, frozenset(ids)), states)
            folded, _ = fuse_sequence([(forecasts[j], states[j].p_hat) for j in ids])
            assert result.estimate == pytest.approx(folded, rel=1e-12, abs=1e-12)

    def test_perfect_forecasters_share_weight(self):
        states = {
            "a": make_state("a", p=1.0), "b": make_state("b", p=1.0),
            "c": make_state("c", p=0.7),
        }
        slice_ = SurveySlice("s", {"a": 3.0, "b": 3.0, "c": 9.0}, frozenset("abc"))
        result = kf_crowd(slice_, states)
        assert result.estimate == 3.0
        assert result.weights == {"a": 0.5, "b": 0.5, "c": 0.0}
        # perfect members that disagree share the weight too
        slice_ = SurveySlice("s", {"a": 3.0, "b": 4.0, "c": 9.0}, frozenset("abc"))
        result = kf_crowd(slice_, states)
        assert result.estimate == 3.5
        assert result.weights == {"a": 0.5, "b": 0.5, "c": 0.0}

    def test_missing_reliability_raises(self):
        states = {"a": ForecasterState("a")}
        with pytest.raises(ValueError):
            kf_crowd(SurveySlice("s", {"a": 1.0}, frozenset("a")), states)


class TestCwm:
    def test_equal_positive_contributions(self):
        states = {
            "a": make_state("a", p=0.8, contribution=0.2, count=3),
            "b": make_state("b", p=0.8, contribution=0.2, count=3),
        }
        slice_ = SurveySlice("s", {"a": 1.0, "b": 3.0}, frozenset({"a", "b"}))
        assert cwm(slice_, states).estimate == pytest.approx(2.0)

    def test_normalization_and_exclusion(self):
        states = {
            "a": make_state("a", p=0.8, contribution=0.3, count=3),
            "b": make_state("b", p=0.8, contribution=0.1, count=3),
            "c": make_state("c", p=0.8, contribution=-0.5, count=3),
        }
        slice_ = SurveySlice(
            "s", {"a": 1.0, "b": 5.0, "c": 100.0}, frozenset({"a", "b", "c"})
        )
        result = cwm(slice_, states)
        assert result.estimate == pytest.approx(2.0, abs=1e-12)
        assert result.weights == pytest.approx({"a": 0.75, "b": 0.25})
        assert "c" not in result.contributors

    def test_all_nonpositive_falls_back_to_equal_weights(self):
        states = {
            "a": make_state("a", p=0.8, contribution=-0.1, count=2),
            "b": make_state("b", p=0.8, contribution=0.0, count=2),
        }
        slice_ = SurveySlice("s", {"a": 1.0, "b": 3.0}, frozenset({"a", "b"}))
        result = cwm(slice_, states)
        assert result.estimate == 2.0
        assert result.rule == "CWM"

    def test_zero_contribution_is_excluded(self):
        # "positive" is read strictly: a zero score stays out of the subset
        states = {
            "a": make_state("a", p=0.8, contribution=0.4, count=2),
            "b": make_state("b", p=0.8, contribution=0.0, count=2),
        }
        slice_ = SurveySlice("s", {"a": 1.0, "b": 3.0}, frozenset({"a", "b"}))
        assert cwm(slice_, states).contributors == frozenset({"a"})

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
            states = contribution_update(history, {})
            for j in ids:
                state = states.get(j, ForecasterState(j))
                states[j] = make_state(
                    j, p=0.8, contribution=state.contribution,
                    count=state.contribution_count,
                )
            current = {j: rng.uniform(-5, 5) for j in ids}
            slice_ = SurveySlice("2020Q1", current, frozenset(ids))
            oracle, _ = brute_force_contributions(history)
            expected = brute_force_cwm(slice_, oracle)
            assert cwm(slice_, states).estimate == pytest.approx(expected, abs=1e-10)


class TestKfPlus:
    def test_subset_of_one(self):
        states = {
            "a": make_state("a", p=0.9, contribution=0.5, count=2),
            "b": make_state("b", p=0.9, contribution=-0.5, count=2),
        }
        slice_ = SurveySlice("s", {"a": 7.0, "b": 1.0}, frozenset({"a", "b"}))
        result = kf_plus(slice_, states)
        assert result.estimate == 7.0
        assert result.contributors == frozenset({"a"})

    def test_pinned_subset_weights(self):
        states = {
            "a": make_state("a", p=0.9, contribution=0.5, count=2),
            "b": make_state("b", p=0.6, contribution=0.5, count=2),
            "c": make_state("c", p=0.99, contribution=-1.0, count=2),
        }
        slice_ = SurveySlice(
            "s", {"a": 1.0, "b": 0.0, "c": 50.0}, frozenset({"a", "b", "c"})
        )
        assert kf_plus(slice_, states).estimate == pytest.approx(8.0 / 11.0, abs=1e-12)

    def test_differs_from_cwm_when_contributions_unequal(self):
        states = {
            "a": make_state("a", p=0.8, contribution=0.9, count=2),
            "b": make_state("b", p=0.8, contribution=0.1, count=2),
        }
        slice_ = SurveySlice("s", {"a": 2.0, "b": 4.0}, frozenset({"a", "b"}))
        # equal reliabilities: the fusion weighs evenly, contributions do not
        assert kf_plus(slice_, states).estimate == pytest.approx(3.0, rel=1e-12)
        assert cwm(slice_, states).estimate == pytest.approx(2.2, rel=1e-12)

    def test_contributor_nesting(self):
        rng = random.Random(46)
        ids = [f"f{i}" for i in range(6)]
        states = {
            j: make_state(
                j, p=rng.uniform(0.55, 0.95),
                contribution=rng.uniform(-0.5, 0.5), count=2,
            )
            for j in ids
        }
        slice_ = SurveySlice("s", {j: rng.uniform(0, 5) for j in ids}, frozenset(ids))
        plus, weighted = kf_plus(slice_, states), cwm(slice_, states)
        assert plus.contributors <= weighted.contributors
        assert weighted.contributors <= slice_.eligible

    def test_fallback_matches_cwm(self):
        states = {
            "a": make_state("a", p=0.9, contribution=-0.2, count=1),
            "b": make_state("b", p=0.6, contribution=-0.1, count=1),
        }
        slice_ = SurveySlice("s", {"a": 1.0, "b": 5.0}, frozenset({"a", "b"}))
        assert kf_plus(slice_, states).estimate == 3.0


class TestTopN:
    def test_covering_population_is_identity(self):
        states = {j: make_state(j, p=0.7) for j in ("a", "b")}
        assert top_n_subset(states, 5) == frozenset({"a", "b"})

    def test_top_two_by_reliability(self):
        states = {
            "a": make_state("a", p=0.9), "b": make_state("b", p=0.8),
            "c": make_state("c", p=0.7),
        }
        assert top_n_subset(states, 2) == frozenset({"a", "b"})

    def test_tie_breaks_deterministic(self):
        # equal clamped reliability: lower MSE wins, then the id
        a = make_state("a", p=0.5, mse=3.0)
        b = make_state("b", p=0.5, mse=2.0)
        c = make_state("c", p=0.5, mse=2.0)
        assert top_n_subset({"a": a, "b": b, "c": c}, 1) == frozenset({"b"})
        assert top_n_subset({"a": a, "b": b, "c": c}, 2) == frozenset({"b", "c"})

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            top_n_subset({}, 0)


class TestWeightNormalization:
    def test_all_rules_normalize(self):
        rng = random.Random(47)
        for _ in range(20):
            ids = [f"f{i}" for i in range(rng.randint(2, 7))]
            states = {
                j: make_state(
                    j, p=rng.uniform(0.5, 1.0),
                    contribution=rng.uniform(-1, 1), count=rng.randint(0, 3),
                )
                for j in ids
            }
            slice_ = SurveySlice(
                "s", {j: rng.uniform(-10, 10) for j in ids}, frozenset(ids)
            )
            for rule in (ewm, lambda s: kf_crowd(s, states),
                         lambda s: cwm(s, states), lambda s: kf_plus(s, states)):
                result = rule(slice_)
                total = sum(result.weights[j] for j in result.contributors)
                assert abs(total - 1.0) <= 1e-9
