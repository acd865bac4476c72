import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdfuse.aggregation import (
    NoEligibleForecastersError,
    _contribution_weights,
    _inverse_variance_weights,
    _member_sums,
    contribution_terms,
    member_forecasts,
    rank_by_reliability,
    rule_estimates,
)
from crowdfuse.backtest import cell_estimates, run_backtest
from crowdfuse.fusion import fuse_sequence
from crowdfuse.panel import (
    Panel,
    Release,
    calibrate_v,
    calibration_series,
)
from crowdfuse.quincunx import Judge, p_from_mse
from panel_rows import table_of

SURVEYS = ["2000Q1", "2000Q2", "2000Q3", "2000Q4", "2001Q1"]
REALIZED = [2.0, 2.4, 1.8, 2.2, 2.0]


def cell_panel(forecasters):
    """The five surveys and realizations of ``test_backtest.hand_panel``.

    ``forecasters`` maps each id to a function of the realized value giving
    their forecast; each survey's realization is stamped the next quarter.
    """
    forecasts, releases = [], []
    for i, (survey, value) in enumerate(zip(SURVEYS, REALIZED)):
        for j, forecast in forecasters.items():
            forecasts.append((survey, "X", 1, j, forecast(value)))
        stamp = SURVEYS[i + 1] if i + 1 < len(SURVEYS) else "2001Q2"
        releases.append(Release("X", survey, stamp, value))
    return Panel(table_of(forecasts), tuple(releases), tuple(releases), transform="none")


def members(forecasts):
    """A survey's member ids in sorted order and their forecasts."""
    ids = sorted(forecasts)
    return ids, [forecasts[j] for j in ids]


def column(values):
    """One kernel row, member-major: a members x 1 array."""
    return np.array(values, dtype=float)[:, None]


def one_row(values, noises=None, scores=None):
    """A single kernel row whose members are all the forecasters, in the order given."""
    V = column(values)
    U = column(noises if noises is not None else [0.25] * len(values))
    C = column(scores if scores is not None else [0.0] * len(values))
    return V, U, C, np.ones(V.shape, dtype=bool), np.array([len(values)])


def estimate_rows(V, U, C, M, n):
    """The rule kernel on the forecasts masked to each row's members, as the backtest calls it."""
    return rule_estimates(*member_forecasts(V, M), U, C, M, n)


def kernel(forecasts, noise, contributions):
    """The kernel's (EWM, KF, CWM, KFplus, fallback) for one survey, as one row.

    ``noise`` maps each member to (1 - p) p; a member missing from
    ``contributions`` has no term yet.
    """
    ids, values = members(forecasts)
    row = one_row(values, [noise[j] for j in ids], [contributions.get(j, 0.0) for j in ids])
    got, fallback = estimate_rows(*row)
    return (*got[0].tolist(), bool(fallback[0]))


def estimates(forecasts, contributions, ps=None):
    """The kernel's (EWM, KF, CWM, KFplus, fallback) for a survey's forecasts.

    Every member has p = 0.8 unless ``ps`` gives their reliability.
    """
    ids = sorted(forecasts)
    ps = ps or dict.fromkeys(ids, 0.8)
    return kernel(forecasts, {j: Judge(ps[j]).noise for j in ids}, contributions)


def inverse_noise_mean(forecasts, noise):
    """Inverse-variance estimate; members at zero noise share the weight equally."""
    perfect = [j for j in forecasts if noise[j] == 0.0]
    if perfect:
        return sum(forecasts[j] for j in perfect) / len(perfect)
    total = sum(1.0 / noise[j] for j in forecasts)
    return sum(forecasts[j] / noise[j] for j in forecasts) / total


def expected_kf(forecasts, mses, calib):
    """Inverse-variance estimate for reliabilities implied by the given MSEs."""
    noise = {j: Judge(p_from_mse(m, *calib)).noise for j, m in mses.items()}
    return inverse_noise_mean({j: forecasts[j] for j in mses}, noise)


def fold_terms(C, K, cells, terms):
    """The backtest's running-mean update of the contributions at ``cells``, in place."""
    count = K[cells] + 1
    mean = C[cells]
    K[cells] = count
    C[cells] = mean + (terms - mean) / count


def fold_history(history):
    """Fold realized surveys one row each, in order; the terms' running means and counts.

    The members are every forecaster of the history in sorted order, and
    each survey's EWM numerator comes from ``member_forecasts``, as in the
    backtest.
    """
    ids = sorted({j for forecasts, _ in history for j in forecasts})
    C = np.zeros(len(ids))
    K = np.zeros(len(ids), dtype=np.intp)
    for forecasts, realized in history:
        if not forecasts:
            continue
        V = column([forecasts.get(j, 0.0) for j in ids])
        M = np.array([[j in forecasts] for j in ids])
        n = M.sum(axis=0)
        _, totals = member_forecasts(V, M)
        if n[0] >= 2:
            cells = np.flatnonzero(M[:, 0])
            fold_terms(C, K, cells, contribution_terms(V[cells, 0], totals[0], n[0], realized))
    folded = [i for i in range(len(ids)) if K[i]]
    return {ids[i]: float(C[i]) for i in folded}, {ids[i]: int(K[i]) for i in folded}


def brute_force_contributions(history):
    """Oracle: recompute every leave-one-out term from scratch with lists."""
    sums, counts = {}, {}
    for forecasts, realized in history:
        ids = sorted(forecasts)
        if len(ids) < 2:
            continue
        for j in ids:
            others = [forecasts[k] for k in ids if k != j]
            err_without = (sum(others) / len(others) - realized) ** 2
            err_with = (sum(forecasts[k] for k in ids) / len(ids) - realized) ** 2
            sums[j] = sums.get(j, 0.0) + (err_without - err_with)
            counts[j] = counts.get(j, 0) + 1
    return {j: sums[j] / counts[j] for j in sums}, counts


def brute_force_cwm(forecasts, contributions):
    positive = {
        j: contributions[j]
        for j in sorted(forecasts)
        if contributions.get(j, 0.0) > 0.0
    }
    if not positive:
        return sum(forecasts.values()) / len(forecasts)
    total = sum(positive.values())
    return sum(w / total * forecasts[j] for j, w in positive.items())


def brute_force_rules(forecasts, noise, contributions):
    """Oracle: the EWM, KF, CWM and KFplus estimates and the CWM fallback flag."""
    mean = sum(forecasts.values()) / len(forecasts)
    kf = inverse_noise_mean(forecasts, noise)
    subset = {j: x for j, x in forecasts.items() if contributions.get(j, 0.0) > 0.0}
    if not subset:
        return mean, kf, mean, mean, True
    cw = brute_force_cwm(forecasts, contributions)
    return mean, kf, cw, inverse_noise_mean(subset, noise), False


def left_to_right(a):
    """Each entry's sum over the first axis, added one Python float at a time."""
    sums = np.empty(a.shape[1:])
    for index in np.ndindex(*a.shape[1:]):
        total = float(a[(0, *index)])
        for k in range(1, a.shape[0]):
            total += float(a[(k, *index)])
        sums[index] = total
    return sums


def laid_out(a, layout):
    """``a``'s values in the given memory layout, as the same logical array."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "transposed":  # the member axis innermost in memory
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
    # strided: every other member and every other entry of a larger C array
    big = np.zeros((2 * a.shape[0], *(2 * d for d in a.shape[1:])))
    view = big[(slice(None, None, 2),) * a.ndim]
    view[...] = a
    return view


class TestMemberSums:
    """The exact-sum helper adds member by member, whatever the layout."""

    @given(
        K=st.one_of(st.sampled_from([1, 2, 7, 8, 9]), st.integers(1, 64)),
        tail=st.sampled_from([(1,), (1, 1), (2,), (37,), (3, 1), (1, 5), (4, 13)]),
        layout=st.sampled_from(["C", "F", "transposed", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    @example(K=9, tail=(2,), layout="F", seed=0)
    @example(K=40, tail=(4, 13), layout="transposed", seed=1)
    def test_equals_a_left_to_right_loop(self, K, tail, layout, seed):
        rng = np.random.default_rng(seed)
        shape = (K, *tail)
        # magnitudes over many decades, so that any other order rounds differently
        values = rng.normal(size=shape) * np.exp(rng.normal(0.0, 8.0, size=shape))
        a = laid_out(values, layout)
        assert np.array_equal(a, values)
        got = _member_sums(a)
        assert got.shape == tail
        assert (got == left_to_right(values)).all()


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
        calib = {"X": 2.0}
        trail = cell_estimates(panel, "X", 1, ("KF",), calib)["KF"]
        assert [s for s, _ in trail] == SURVEYS[2:]
        for i, (_, estimate) in enumerate(trail, start=2):
            mses = {j: sum(errors[:i]) / i for j, errors in self.SQUARED.items()}
            expected = expected_kf({"a": 1.0, "b": 3.0}, mses, (1, 2.0))
            assert estimate == pytest.approx(expected, abs=1e-12)

    def test_reliability_roundtrip(self):
        panel = cell_panel({"a": lambda r: r + 0.6, "b": lambda r: r - 0.6})
        report = run_backtest(panel, ("EWM",), {"X": 1.0})
        assert report.diagnostics[0].median_p_hat == pytest.approx(0.9, abs=1e-12)

    def test_window_restricts_history(self):
        panel = cell_panel({"a": lambda r: 1.0, "b": lambda r: 3.0})
        calib = {"X": 2.0}
        trail = cell_estimates(panel, "X", 1, ("KF",), calib, window=1)["KF"]
        full = cell_estimates(panel, "X", 1, ("KF",), calib)["KF"]
        for i, (_, estimate) in enumerate(trail, start=2):
            mses = {j: errors[i - 1] for j, errors in self.SQUARED.items()}
            expected = expected_kf({"a": 1.0, "b": 3.0}, mses, (1, 2.0))
            assert estimate == pytest.approx(expected, abs=1e-12)
        assert trail != full

    def test_contribution_running_mean(self):
        # forecasters a, b, c; the first survey's members are a and b
        C = np.zeros(3)
        K = np.zeros(3, dtype=np.intp)
        # a alone beside the truth: its term is (1 - 0)^2 - 0^2 = 1
        terms = contribution_terms(np.array([-1.0, 1.0]), 0.0, 2, 0.0)
        assert terms.tolist() == [1.0, 1.0]
        fold_terms(C, K, np.array([0, 1]), terms)
        # a on the crowd mean: its term is 0
        fold_terms(C, K, np.arange(3), contribution_terms(np.array([2.0, 1.0, 3.0]), 6.0, 3, 5.0))
        assert C[0] == pytest.approx(0.5)
        assert K.tolist() == [2, 2, 1]


class TestContributionTerms:
    """One fold into empty state leaves each member's leave-one-out term as their mean."""

    def test_forecaster_at_crowd_mean_contributes_nothing(self):
        terms, _ = fold_history([({"a": 2.0, "b": 1.0, "c": 3.0}, 5.0)])
        assert terms["a"] == pytest.approx(0.0, abs=1e-12)

    def test_closer_than_crowd_is_positive(self):
        # a sits on the truth, the others are off; removing a must hurt
        terms, _ = fold_history([({"a": 5.0, "b": 1.0, "c": 2.0}, 5.0)])
        assert terms["a"] > 0.0
        assert terms["b"] < 0.0

    def test_single_member_yields_no_terms(self):
        assert fold_history([({"a": 2.0}, 1.0)]) == ({}, {})

    def test_hand_built_two_survey_history(self):
        history = [
            ({"a": 1.0, "b": 3.0, "c": 4.0}, 2.0),
            ({"a": 2.0, "b": 0.0, "c": 1.0}, 1.5),
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
            for _ in range(rng.randint(1, 8)):
                active = rng.sample(ids, rng.randint(1, n_f))
                history.append(({j: rng.uniform(-5, 5) for j in active}, rng.uniform(-5, 5)))
            contributions, _ = fold_history(history)
            oracle, counts = brute_force_contributions(history)
            assert set(contributions) == set(oracle)
            for j in oracle:
                assert contributions[j] == pytest.approx(oracle[j], abs=1e-10)


class TestEwm:
    def test_mean(self):
        ew, *_ = estimates({"a": 2.0, "b": 4.0}, {})
        assert ew == 3.0

    def test_single(self):
        ew, *_ = estimates({"a": 2.0}, {})
        assert ew == 2.0

    def test_matches_brute_sum(self):
        rng = random.Random(43)
        values = {f"f{i}": rng.uniform(0, 10) for i in range(5)}
        total = 0.0
        for v in sorted(values):
            total += values[v]
        ew, *_ = estimates(values, {})
        assert ew == pytest.approx(total / 5, abs=1e-12)


class TestKfCrowd:
    def test_equal_reliability_equals_mean(self):
        ew, kf, *_ = estimates({"a": 1.0, "b": 2.0, "c": 6.0}, {})
        assert kf == pytest.approx(ew, rel=1e-12)

    def test_pinned_two_forecaster_case(self):
        _, kf, *_ = estimates({"a": 1.0, "b": 0.0}, {}, {"a": 0.9, "b": 0.6})
        assert kf == pytest.approx(8.0 / 11.0, abs=1e-12)
        noise = column([Judge(0.9).noise, Judge(0.6).noise])
        weights = _inverse_variance_weights(noise, np.ones((2, 1), dtype=bool))
        assert weights[0, 0] == pytest.approx(8.0 / 11.0, abs=1e-12)

    def test_ordering_invariance(self):
        rng = random.Random(44)
        ids = [f"f{i}" for i in range(6)]
        ps = {j: rng.uniform(0.55, 0.95) for j in ids}
        forecasts = {j: rng.uniform(0, 10) for j in ids}
        _, base, *_ = estimates(forecasts, {}, ps)
        for _ in range(5):
            order = ids[:]
            rng.shuffle(order)
            # maps built in any order give the same sorted members
            shuffled = {j: forecasts[j] for j in order}
            _, again, *_ = estimates(shuffled, {}, {j: ps[j] for j in order})
            assert again == base
            # the columns in another order sum in another order: equal to rounding
            row = one_row([forecasts[j] for j in order], [Judge(ps[j]).noise for j in order])
            permuted = estimate_rows(*row)[0][0, 1]
            assert permuted == pytest.approx(base, rel=1e-12)

    def test_matches_recursive_fold(self):
        rng = random.Random(48)
        for _ in range(50):
            ids = [f"f{i}" for i in range(rng.randint(1, 8))]
            ps = {j: rng.uniform(0.5, 0.999) for j in ids}
            forecasts = {j: rng.uniform(-10, 10) for j in ids}
            _, kf, *_ = estimates(forecasts, {}, ps)
            folded, _ = fuse_sequence([(forecasts[j], Judge(ps[j])) for j in ids])
            assert kf == pytest.approx(folded, rel=1e-12, abs=1e-12)

    def test_perfect_forecasters_share_weight(self):
        ps = {"a": 1.0, "b": 1.0, "c": 0.7}
        noises = column([Judge(ps[j]).noise for j in "abc"])
        _, kf, *_ = estimates({"a": 3.0, "b": 3.0, "c": 9.0}, {}, ps)
        assert kf == 3.0
        weights = _inverse_variance_weights(noises, np.ones((3, 1), dtype=bool))
        assert weights.tolist() == [[0.5], [0.5], [0.0]]
        # perfect members that disagree share the weight too
        _, kf, *_ = estimates({"a": 3.0, "b": 4.0, "c": 9.0}, {}, ps)
        assert kf == 3.5

    def test_missing_reliability_raises(self):
        # even a member whose weight would be zero beside a perfect one needs an estimate
        with pytest.raises(ValueError):
            estimate_rows(*one_row([1.0, 2.0], [0.0, float("nan")]))


class TestCwm:
    def test_equal_positive_contributions(self):
        _, _, cw, *_ = estimates({"a": 1.0, "b": 3.0}, {"a": 0.2, "b": 0.2})
        assert cw == pytest.approx(2.0)

    def test_normalization_and_exclusion(self):
        contributions = {"a": 0.3, "b": 0.1, "c": -0.5}
        _, _, cw, *_ = estimates({"a": 1.0, "b": 5.0, "c": 100.0}, contributions)
        assert cw == pytest.approx(2.0, abs=1e-12)
        keep = np.array([[True], [True], [False]])
        weights = _contribution_weights(column([0.3, 0.1, -0.5]), keep)
        assert weights[:, 0] == pytest.approx([0.75, 0.25, 0.0])
        # c has a negative contribution: its forecast has no effect
        _, _, moved, *_ = estimates({"a": 1.0, "b": 5.0, "c": -100.0}, contributions)
        assert moved == cw

    def test_all_nonpositive_falls_back_to_equal_weights(self):
        _, _, cw, _, fallback = estimates({"a": 1.0, "b": 3.0}, {"a": -0.1, "b": 0.0})
        assert cw == 2.0
        assert fallback

    def test_zero_contribution_is_excluded(self):
        # "positive" is read strictly: a zero score stays out of the subset
        contributions = {"a": 0.4, "b": 0.0}
        _, _, cw, _, fallback = estimates({"a": 1.0, "b": 3.0}, contributions)
        assert cw == 1.0
        assert not fallback
        _, _, moved, *_ = estimates({"a": 1.0, "b": 30.0}, contributions)
        assert moved == cw

    def test_randomized_against_brute_force(self):
        rng = random.Random(45)
        for _ in range(25):
            n_f = rng.randint(2, 6)
            ids = [f"f{i}" for i in range(n_f)]
            history = []
            for _ in range(rng.randint(2, 10)):
                active = rng.sample(ids, rng.randint(2, n_f))
                history.append(({j: rng.uniform(-5, 5) for j in active}, rng.uniform(-5, 5)))
            contributions, _ = fold_history(history)
            current = {j: rng.uniform(-5, 5) for j in ids}
            oracle, _ = brute_force_contributions(history)
            expected = brute_force_cwm(current, oracle)
            _, _, cw, *_ = estimates(current, contributions)
            assert cw == pytest.approx(expected, abs=1e-10)


class TestKfPlus:
    def test_subset_of_one(self):
        contributions = {"a": 0.5, "b": -0.5}
        ps = {"a": 0.9, "b": 0.9}
        *_, kp, _ = estimates({"a": 7.0, "b": 1.0}, contributions, ps)
        assert kp == 7.0
        # b is outside the subset: its forecast has no effect
        *_, moved, _ = estimates({"a": 7.0, "b": -50.0}, contributions, ps)
        assert moved == 7.0

    def test_pinned_subset_weights(self):
        ps = {"a": 0.9, "b": 0.6, "c": 0.99}
        contributions = {"a": 0.5, "b": 0.5, "c": -1.0}
        *_, kp, _ = estimates({"a": 1.0, "b": 0.0, "c": 50.0}, contributions, ps)
        assert kp == pytest.approx(8.0 / 11.0, abs=1e-12)

    def test_differs_from_cwm_when_contributions_unequal(self):
        # equal reliabilities: the fusion weighs evenly, contributions do not
        _, _, cw, kp, _ = estimates({"a": 2.0, "b": 4.0}, {"a": 0.9, "b": 0.1})
        assert kp == pytest.approx(3.0, rel=1e-12)
        assert cw == pytest.approx(2.2, rel=1e-12)

    def test_contributor_nesting(self):
        # CWM and KFplus read the same subset of the members: moving a
        # forecast moves both estimates exactly when its contribution is positive
        rng = random.Random(46)
        ids = [f"f{i}" for i in range(6)]
        ps, contributions = {}, {}
        for j in ids:
            ps[j] = rng.uniform(0.55, 0.95)
            contributions[j] = rng.uniform(-0.5, 0.5)
        forecasts = {j: rng.uniform(0, 5) for j in ids}
        _, _, cw, kp, fallback = estimates(forecasts, contributions, ps)
        assert not fallback
        for j in ids:
            _, _, moved_cw, moved_kp, _ = estimates({**forecasts, j: 100.0}, contributions, ps)
            inside = contributions[j] > 0.0
            assert (moved_cw != cw) == inside
            assert (moved_kp != kp) == inside

    def test_fallback_matches_cwm(self):
        contributions = {"a": -0.2, "b": -0.1}
        _, _, cw, kp, _ = estimates({"a": 1.0, "b": 5.0}, contributions, {"a": 0.9, "b": 0.6})
        assert kp == 3.0
        assert kp == cw


class TestTopN:
    @staticmethod
    def ranks(ids, mse, groups=None):
        groups = np.zeros(len(ids), dtype=np.intp) if groups is None else np.array(groups)
        return rank_by_reliability(groups, np.array(ids), np.array(mse, dtype=float)).tolist()

    def test_covering_population_is_identity(self):
        ranks = self.ranks([0, 1], [0.5, 0.5])
        assert sorted(ranks) == [0, 1]
        assert all(r < 5 for r in ranks)

    def test_top_two_by_reliability(self):
        # entries c, b, a: the order of the entries does not matter
        ranks = self.ranks([2, 1, 0], [0.9, 0.4, 0.1])
        assert ranks == [2, 1, 0]

    def test_tie_breaks_deterministic(self):
        # MSEs above the cap, where p clamps at 0.5: lower MSE wins, then the id
        ranks = self.ranks([0, 1, 2], [3.0, 2.0, 2.0])
        assert ranks == [2, 0, 1]

    def test_groups_rank_apart(self):
        ranks = self.ranks([0, 1, 0, 1], [0.1, 0.2, 0.3, 0.25], groups=[0, 0, 1, 1])
        assert ranks == [0, 1, 1, 0]

    def test_rejects_bad_arguments(self):
        # a forecaster without a reliability estimate cannot be ranked
        with pytest.raises(ValueError, match="reliability estimate"):
            self.ranks([0, 1], [0.5, float("nan")])

    def test_mse_order_is_reliability_order(self):
        # ranking by MSE, then id, is the lexsort by (-p, MSE, id) for the p of
        # every unit: p_from_mse does not increase with the MSE
        rng = np.random.default_rng(53)
        for _ in range(50):
            size = int(rng.integers(1, 40))
            unit = float(np.exp(rng.normal(0.0, 2.0)))
            groups = rng.integers(0, 4, size)
            ids = rng.permutation(size)
            # spread over the cap, with exact zeros, ties and MSEs that round p to 1
            mse = unit * unit * rng.choice([0.0, 1e-18, 0.3, 0.3, 1.0, 2.5], size) \
                * np.where(rng.random(size) < 0.5, 1.0, rng.random(size) * 4.0)
            p = p_from_mse(mse, 1, unit)
            order = np.lexsort((ids, mse, -p, groups))
            expected = np.empty(size, dtype=np.intp)
            expected[order] = np.arange(size) - np.searchsorted(groups[order], groups[order])
            got = rank_by_reliability(groups, ids, mse)
            assert got.tolist() == expected.tolist()


class TestWeightNormalization:
    def test_all_rules_normalize(self):
        rng = random.Random(47)
        for _ in range(20):
            n = rng.randint(2, 7)
            noises = column([Judge(rng.uniform(0.5, 1.0)).noise for _ in range(n)])
            scores = column([rng.uniform(-1, 1) for _ in range(n)])
            mask = np.ones((n, 1), dtype=bool)
            keep = scores > 0.0
            weights = [_inverse_variance_weights(noises, mask)]
            if keep.any():
                weights.append(_contribution_weights(scores, keep))
                weights.append(_inverse_variance_weights(noises, keep))
            for rule_weights in weights:
                assert abs(sum(rule_weights[:, 0].tolist()) - 1.0) <= 1e-9


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
    """The kernel the engine calls against straight-line oracles."""

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
    def test_estimates_and_fallback_equal_oracle(self, survey):
        forecasts, eligible, ps, contributions = survey
        current = {j: forecasts[j] for j in eligible}
        noise = {j: (1.0 - p) * p for j, p in ps.items()}
        *got, fallback = kernel(current, noise, contributions)
        *expected, expected_fallback = brute_force_rules(current, noise, contributions)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert fallback == expected_fallback

    @given(st.lists(surveys(), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_rows_are_independent(self, stacked):
        # the surveys stacked as rows over the union of their forecasters
        # give each survey's single-row results exactly
        ids = sorted({j for forecasts, *_ in stacked for j in forecasts})
        shape = (len(ids), len(stacked))
        V, U, C = np.full(shape, np.nan), np.full(shape, np.nan), np.full(shape, np.nan)
        M = np.zeros(shape, dtype=bool)
        singles = []
        for r, (forecasts, eligible, ps, contributions) in enumerate(stacked):
            for c, j in enumerate(ids):
                if j in eligible:
                    M[c, r] = True
                    V[c, r] = forecasts[j]
                    U[c, r] = (1.0 - ps[j]) * ps[j]
                    C[c, r] = contributions.get(j, 0.0)
            current = {j: forecasts[j] for j in eligible}
            singles.append(kernel(current, {j: (1.0 - p) * p for j, p in ps.items()},
                                  contributions))
        n = M.sum(axis=0)
        X, totals = member_forecasts(V, M)
        got, fallback = rule_estimates(X, totals, U, C, M, n)
        assert [(*e, bool(f)) for e, f in zip(got.tolist(), fallback)] == singles
        # the rows' member entries folded flat, in one update, as the backtest folds a round
        realized = np.linspace(-1.0, 1.0, len(stacked))
        c, r = np.nonzero(M & (n >= 2))
        K = np.zeros(shape, dtype=np.intp)
        folded = np.zeros(shape)
        cells = np.ravel_multi_index((c, r), shape)
        fold_terms(folded.reshape(-1), K.reshape(-1), cells,
                   contribution_terms(V[c, r], totals[r], n[r], realized[r]))
        for r, (forecasts, eligible, *_) in enumerate(stacked):
            alone, counts = fold_history([({j: forecasts[j] for j in eligible}, realized[r])])
            assert {ids[c]: float(folded[c, r]) for c in range(len(ids)) if K[c, r]} == alone
            assert {ids[c]: int(K[c, r]) for c in range(len(ids)) if K[c, r]} == counts

    def test_missing_reliability_raises(self):
        # a member whose noise is NaN (no estimate) or negative cannot be weighed
        for bad in (float("nan"), -0.1):
            with pytest.raises(ValueError, match="no reliability estimate"):
                estimate_rows(*one_row([1.0, 2.0], [0.16, bad]))
        # a column outside the row's members is never read
        V, U, C, M, _ = one_row([1.0, 2.0], [0.16, float("nan")])
        M[1, 0] = False
        got, _ = estimate_rows(V, U, C, M, np.array([1]))
        assert got[0].tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_empty_raises(self):
        V, U, C, M, _ = one_row([1.0, 2.0])
        with pytest.raises(NoEligibleForecastersError):
            estimate_rows(V, U, C, M & False, np.array([0]))

    def test_member_count_must_match_mask(self):
        # n names more or fewer members than the row's mask holds
        for n in (1, 3):
            with pytest.raises(ValueError):
                estimate_rows(*one_row([1.0, 2.0])[:4], np.array([n]))
        # a second row miscounted beside a right one
        V, U, C, M, _ = one_row([1.0, 2.0, 4.0])
        V, U, C, M = (np.repeat(a, 2, axis=1) for a in (V, U, C, M))
        M[2, 1] = False
        with pytest.raises(ValueError):
            estimate_rows(V, U, C, M, np.array([3, 3]))
        M[2, 1] = True
        assert estimate_rows(V, U, C, M, np.array([3, 3]))[0][:, 0].tolist() == [7 / 3] * 2

    def test_limit_axis_equals_flat_rows(self):
        # members x rows x limits, with forecasts and noises broadcast along the
        # limits, gives the flattened members x (row, limit) call bit for bit
        V = np.array([[1.0, 4.0], [2.0, -1.0], [9.0, 0.5]])
        U = np.array([[0.0, 0.16], [0.0, 0.21], [0.25, 0.09]])  # row 0: two perfect members
        rank = np.array([[0, 2], [1, 0], [2, 1]])
        M = rank[:, :, None] < np.array([1, 2, 3])
        C = np.zeros(M.shape)
        C[:, 0] = -0.1  # row 0 falls back at every limit
        C[:, 1] = [[0.3, 0.2, 0.1], [-0.2, 0.4, 0.0], [0.5, -0.1, 0.2]]
        n = M.sum(axis=0)

        def flat(U, n):
            return rule_estimates(*member_forecasts(np.repeat(V, 3, axis=1), M.reshape(3, -1)),
                                  np.repeat(U, 3, axis=1), C.reshape(3, -1), M.reshape(3, -1),
                                  n.reshape(-1))

        def stacked(U, n):
            return rule_estimates(*member_forecasts(V[:, :, None], M), U[:, :, None], C, M, n)

        got, fallback = stacked(U, n)
        want, want_fallback = flat(U, n)
        assert got.shape == (2, 3, 4) and fallback.shape == (2, 3)
        assert got.reshape(-1, 4).tobytes() == want.tobytes()
        # row 1's best member alone contributes nothing
        assert fallback.reshape(-1).tolist() == want_fallback.tolist() == [True] * 4 + [False] * 2
        # a member's NaN noise and a miscounted row raise ValueError, as flat rows do
        bad = U.copy()
        bad[2, 1] = np.nan  # a member of row 1 from the limit of two on
        miscounted = n.copy()
        miscounted[1, 2] = 2
        for args, message in [((bad, n), "no reliability estimate: noise nan"),
                              ((U, miscounted), "row 5 has 3 members, but n counts 2")]:
            for call in (flat, stacked):
                with pytest.raises(ValueError, match=message):
                    call(*args)

    @given(histories)
    @settings(max_examples=200, deadline=None)
    def test_fold_equals_brute_force(self, history):
        realized_surveys = [
            ({j: forecasts[j] for j in eligible & forecasts.keys()}, realized)
            for forecasts, eligible, realized in history
        ]
        contributions, counts = fold_history(realized_surveys)
        oracle, oracle_counts = brute_force_contributions(realized_surveys)
        assert counts == oracle_counts
        assert contributions == pytest.approx(oracle, rel=1e-12, abs=1e-10)
