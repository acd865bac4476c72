import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdfuse.quincunx import (
    MAX_MAGNITUDE,
    Environment,
    Judge,
    Moments,
    fuse_p,
    moments,
    p_from_mse,
    sample_estimate_each,
    sample_estimates,
    variance_from_p,
)

probabilities = st.floats(min_value=0.5, max_value=1.0, allow_nan=False)
counts = st.integers(min_value=1, max_value=100)
units = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


def walk_env(count=20, deviation=4, unit=1.0, norm=0.0):
    return Environment(norm=norm, count=count, unit=unit, deviation=deviation)


class TestValidation:
    def test_judge_domain(self):
        Judge(0.5)
        Judge(1.0)
        with pytest.raises(ValueError):
            Judge(0.49)
        with pytest.raises(ValueError):
            Judge(1.01)

    def test_environment_parity(self):
        Environment(norm=0.0, count=5, unit=1.0, deviation=3)
        with pytest.raises(ValueError):
            Environment(norm=0.0, count=5, unit=1.0, deviation=2)

    def test_environment_bounds(self):
        with pytest.raises(ValueError):
            Environment(norm=0.0, count=4, unit=1.0, deviation=6)
        with pytest.raises(ValueError):
            Environment(norm=0.0, count=4, unit=0.0, deviation=0)
        with pytest.raises(ValueError):
            Environment(norm=0.0, count=0, unit=1.0, deviation=0)
        # |norm| and count * unit up to MAX_MAGNITUDE, no further
        Environment(norm=-MAX_MAGNITUDE, count=4, unit=MAX_MAGNITUDE / 4, deviation=0)
        for norm, count, unit in ((0.0, 4, MAX_MAGNITUDE / 2), (0.0, 10**400, 1e-300),
                                  (1.0000001e50, 4, 1.0), (math.inf, 4, 1.0)):
            with pytest.raises(ValueError, match="must not exceed|at most"):
                Environment(norm=norm, count=count, unit=unit, deviation=0)

    def test_moments_kurtosis_floor(self):
        with pytest.raises(ValueError):
            Moments(mean=0.0, variance=1.0, skewness=0.0, kurtosis=0.5)


class TestMoments:
    def test_perfect_detection_reproduces_deviation(self):
        m = moments(Judge(1.0), walk_env(count=7, deviation=3))
        assert m.mean == 3.0
        assert m.variance == 0.0
        assert m.skewness == 0.0
        assert m.kurtosis is None

    def test_chance_detection_symmetric(self):
        m = moments(Judge(0.5), walk_env(count=10, deviation=0, unit=1.0))
        assert m.mean == 0.0
        assert m.variance == 10.0
        assert m.skewness == 0.0
        assert m.kurtosis == pytest.approx(2.8, abs=1e-15)

    def test_pinned_example(self):
        m = moments(Judge(0.8), walk_env(count=20, deviation=4, unit=1.0))
        assert m.mean == pytest.approx(2.4, abs=1e-12)
        assert m.variance == pytest.approx(12.8, abs=1e-12)
        assert m.skewness == pytest.approx(-0.06708203932499369, abs=1e-15)
        assert m.kurtosis == pytest.approx(3.0125, abs=1e-15)

    def test_kurtosis_accessor_degenerate(self):
        assert moments(Judge(1.0), walk_env()).kurtosis is None
        assert moments(Judge(0.8), walk_env()).kurtosis == pytest.approx(3.0125)


class TestSampler:
    def test_perfect_judge_is_deterministic(self):
        env = walk_env(count=5, deviation=3, norm=100.0)
        rng = np.random.default_rng(1)
        draws = [sample_estimate_each([1.0], env, rng)[0] for _ in range(50)]
        assert all(d == 103.0 for d in draws)
        batch = sample_estimates(Judge(1.0), env, 1000, rng)
        assert np.all(batch == 103.0)

    def test_rows_match_one_walk_at_a_time(self):
        # the row form consumes the stream exactly as successive single draws,
        # also where the rows take several draws (five of 400,001 take three)
        # and where a row does (2**21 + 1 takes three blocks, the positive
        # elements ending one before the first block's edge)
        ps = [0.5, 0.73, 1.0, 0.91, 0.6]
        for count in (9, 400_001, 2**21 + 1):
            env = walk_env(count=count, deviation=-3, norm=10.0)
            rows = sample_estimate_each(ps, env, np.random.default_rng(5))
            rng = np.random.default_rng(5)
            signs = np.where(np.arange(env.count) < env.positive_elements, 1.0, -1.0)
            for p, value in zip(ps, rows):
                correct = rng.random(env.count) < p
                assert value == env.norm + env.unit * float(np.where(correct, signs, -signs).sum())
            again = np.random.default_rng(5)
            assert [sample_estimate_each([p], env, again)[0] for p in ps] == rows.tolist()
            assert again.random() == rng.random()

    def test_rows_draw_in_bounded_blocks(self):
        # 64 seats of 100,000 elements at once would hold 57.6 MB of uniforms and flags
        env = walk_env(count=100_000, deviation=0)
        rng = np.random.default_rng(6)
        tracemalloc.start()
        try:
            sample_estimate_each([0.8] * 64, env, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_long_row_draws_in_bounded_blocks(self):
        # one seat of 2**22 elements at once would hold 37.7 MB of uniforms and flags
        env = walk_env(count=2**22, deviation=0)
        rng = np.random.default_rng(7)
        tracemalloc.start()
        try:
            sample_estimate_each([0.8], env, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_symmetric_walk_mean(self):
        env = walk_env(count=10, deviation=0, norm=50.0)
        rng = np.random.default_rng(2)
        draws = sample_estimates(Judge(0.5), env, 1_000_000, rng)
        stderr = math.sqrt(10.0 / draws.size)
        assert abs(draws.mean() - 50.0) < 4 * stderr

    def test_batch_matches_analytic_moments(self):
        judge, env = Judge(0.8), walk_env(count=20, deviation=4, norm=100.0)
        m = moments(judge, env)
        rng = np.random.default_rng(3)
        draws = sample_estimates(judge, env, 2_000_000, rng)
        n = draws.size
        mean_tol = 4 * math.sqrt(m.variance / n)
        assert abs(draws.mean() - (100.0 + m.mean)) < mean_tol
        var_tol = 4 * m.variance * math.sqrt((m.kurtosis - 1.0) / n)
        assert abs(draws.var() - m.variance) < var_tol

    def test_scalar_and_batch_same_distribution(self):
        # same walk support and matching frequencies at a small element count
        judge, env = Judge(0.7), walk_env(count=4, deviation=2, norm=0.0)
        rng = np.random.default_rng(4)
        scalar = np.array([sample_estimate_each([judge.p], env, rng)[0] for _ in range(40_000)])
        batch = sample_estimates(judge, env, 40_000, rng)
        support = np.arange(-env.count, env.count + 1, 2) * env.unit
        f_scalar = np.array([(scalar == s).mean() for s in support])
        f_batch = np.array([(batch == s).mean() for s in support])
        assert set(np.unique(scalar)) <= set(support)
        assert set(np.unique(batch)) <= set(support)
        assert np.max(np.abs(f_scalar - f_batch)) < 0.012

    def test_moment_oracle_grid(self):
        # reduced grid here; the full acceptance grid lives in test_acceptance
        rng = np.random.default_rng(5)
        for p, count, deviation in [
            (0.55, 10, 2), (0.75, 16, 4), (0.9, 12, 6), (0.97, 24, 0),
        ]:
            judge, env = Judge(p), walk_env(count=count, deviation=deviation)
            m = moments(judge, env)
            draws = sample_estimates(judge, env, 400_000, rng)
            n = draws.size
            assert abs(draws.mean() - m.mean) < 4 * math.sqrt(m.variance / n)
            var_tol = 4 * m.variance * math.sqrt((m.kurtosis - 1.0) / n)
            assert abs(draws.var() - m.variance) < var_tol
            centered = draws - draws.mean()
            sample_var = (centered**2).mean()
            sample_skew = (centered**3).mean() / sample_var**1.5
            sample_kurt = (centered**4).mean() / sample_var**2
            skew_tol = max(0.1 * abs(m.skewness), 5 * math.sqrt(6.0 / n))
            kurt_tol = max(0.1 * m.kurtosis, 5 * math.sqrt(24.0 / n))
            assert abs(sample_skew - m.skewness) < skew_tol
            assert abs(sample_kurt - m.kurtosis) < kurt_tol


class TestVarianceCorrespondence:
    def test_variance_from_p_endpoints(self):
        assert variance_from_p(1.0, 3, 2.0) == 0.0
        assert variance_from_p(0.5, 1, 1.0) == 1.0
        assert variance_from_p(0.9, 1, 1.0) == pytest.approx(0.36, abs=1e-15)

    def test_variance_cross_checked_against_sampler(self):
        rng = np.random.default_rng(6)
        env = Environment(norm=0.0, count=1, unit=1.0, deviation=1)
        draws = sample_estimates(Judge(0.9), env, 1_000_000, rng)
        assert abs(draws.var() - 0.36) < 0.005

    def test_p_from_mse_examples(self):
        assert p_from_mse(0.0, 1, 1.0) == 1.0
        assert p_from_mse(0.36, 1, 1.0) == pytest.approx(0.9, abs=1e-12)
        assert p_from_mse(5.0, 1, 1.0) == 0.5
        # the smallest unit calibration accepts keeps cap * (cap - mse) a normal number
        assert p_from_mse(0.0, 1, 1e-50) == 1.0
        assert type(p_from_mse(0.36, 1, 1.0)) is float
        for mse, count, unit in ((-0.1, 1, 1.0), (math.nan, 1, 1.0), (math.inf, 1, 1.0),
                                 (0.1, 0, 1.0), (0.1, 1, 0.0)):
            with pytest.raises(ValueError):
                p_from_mse(mse, count, unit)

    def test_judge_noise(self):
        for p in (0.5, 0.6, 0.9, 1.0):
            assert Judge(p).noise == (1.0 - p) * p

    @given(p=probabilities, count=counts, unit=units)
    @example(p=0.5000000000000001, count=3, unit=1.0)
    @settings(max_examples=300)
    def test_roundtrip(self, p, count, unit):
        # Near p = 0.5 the map p -> 4C(1-p)p v^2 is flat, so a rounded
        # variance pins p only to about 1e-8; there the variance must
        # round-trip instead.
        v = variance_from_p(p, count, unit)
        back = p_from_mse(v, count, unit)
        assert (
            abs(back - p) < 1e-12
            or abs(variance_from_p(back, count, unit) - v) <= 4 * sys.float_info.epsilon * v
        )


class TestFuseP:
    def test_perfect_judge_dominates(self):
        assert fuse_p(Judge(1.0), Judge(0.6)).p == 1.0
        assert fuse_p(Judge(1.0), Judge(1.0)).p == 1.0

    def test_pinned_values(self):
        half = fuse_p(Judge(0.5), Judge(0.5))
        assert half.p == pytest.approx(0.5 + 0.5 * math.sqrt(0.5), abs=1e-15)
        # fused variance halves: 4(1-p)p == 0.5 at unit scale
        assert 4 * half.noise == pytest.approx(0.5, abs=1e-12)
        assert fuse_p(Judge(0.9), Judge(0.9)).p == pytest.approx(
            0.9527692569068709, abs=1e-15
        )

    def test_commutative(self):
        assert fuse_p(Judge(0.8), Judge(0.62)) == fuse_p(Judge(0.62), Judge(0.8))

    def test_monte_carlo_closure(self):
        # fuse equal-reliability walk pairs with half weights; the fused
        # sample variance must match the closed-form effective reliability
        rng = np.random.default_rng(7)
        env = Environment(norm=0.0, count=1, unit=1.0, deviation=1)
        a = sample_estimates(Judge(0.9), env, 1_000_000, rng)
        b = sample_estimates(Judge(0.9), env, 1_000_000, rng)
        fused = 0.5 * a + 0.5 * b
        expected = variance_from_p(fuse_p(Judge(0.9), Judge(0.9)).p, 1, 1.0)
        assert abs(fused.var() - expected) < 4 * expected * math.sqrt(2.0 / a.size)

    @given(p1=probabilities, p2=probabilities)
    @settings(max_examples=300)
    def test_closure_identity(self, p1, p2):
        v1 = variance_from_p(p1, 1, 1.0)
        v2 = variance_from_p(p2, 1, 1.0)
        fused = variance_from_p(fuse_p(Judge(p1), Judge(p2)).p, 1, 1.0)
        if v1 + v2 == 0.0:
            assert fused == 0.0
        else:
            assert abs(fused - v1 * v2 / (v1 + v2)) < 1e-12

    @given(p1=probabilities, p2=probabilities)
    @settings(max_examples=300)
    def test_monotone_gain(self, p1, p2):
        combined = fuse_p(Judge(p1), Judge(p2)).p
        assert combined >= max(p1, p2)
        # strictness is representable only away from p = 1, where the gain
        # shrinks below one ulp
        if p1 <= 0.99 and p2 <= 0.99:
            assert combined > max(p1, p2)
