import math

import numpy as np
import pytest
from scipy import integrate, stats

from crowdfuse.gaps import (
    GapKind,
    Grid,
    _normal_cdf,
    draw_sample_variances,
    expected_gap_analytic,
    figure_grid,
    gaussian_limit_check,
    ks_distance,
    monte_carlo_gap,
    realized_gaps,
    write_convergence_csv,
    write_grid_csv,
)
from crowdfuse.quincunx import Judge, variance_from_p


def quadrature_expected_gap(kind, a, b):
    """Independent oracle for the n = 2 expected gaps.

    With two observations, each sample variance is (sigma^2 / 2) * Z^2 for a
    standard normal Z, and the fused-MSE ratio depends only on the polar
    angle of (Z1, Z2). That reduces the expectation to a one-dimensional
    integral, evaluated here by adaptive quadrature.
    """
    def fused_mse(theta):
        c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        num = a * (b * s2) ** 2 + b * (a * c2) ** 2
        return num / (a * c2 + b * s2) ** 2

    value, _ = integrate.quad(fused_mse, 0.0, math.pi / 2, limit=200)
    e_kfu = value / (math.pi / 2)
    if kind is GapKind.KFU_VS_KFC:
        return e_kfu - a * b / (a + b)
    if kind is GapKind.EW_VS_KFU:
        return (a + b) / 4.0 - e_kfu
    return a - e_kfu


class TestSampleVarianceDraws:
    def test_mean_matches_cochran(self):
        rng = np.random.default_rng(21)
        for sigma2, expected in [(1.0, 0.5), (4.0, 2.0)]:
            draws = draw_sample_variances(sigma2, 2, 1_000_000, rng)
            stderr = draws.std() / math.sqrt(draws.size)
            assert abs(draws.mean() - expected) < 4 * stderr

    def test_distribution_against_gamma_cdf(self):
        rng = np.random.default_rng(22)
        sigma2 = 1.7
        draws = draw_sample_variances(sigma2, 2, 100_000, rng)
        dist = stats.gamma(a=0.5, scale=2 * sigma2 / 2)
        assert ks_distance(draws, dist.cdf) < 0.005

    def test_downward_bias_is_sigma2_over_n(self):
        # the sample variance underestimates by sigma^2 / n on average
        rng = np.random.default_rng(23)
        for p in (0.6, 0.75, 0.9):
            sigma2 = variance_from_p(p, 1, 1.0)
            for n in (2, 5):
                draws = draw_sample_variances(sigma2, n, 400_000, rng)
                gap = sigma2 - draws.mean()
                stderr = draws.std() / math.sqrt(draws.size)
                assert abs(gap - sigma2 / n) < 4 * stderr

    def test_argument_checks(self):
        rng = np.random.default_rng(24)
        draws = draw_sample_variances(2.0, 3, 1, rng)
        assert draws.shape == (1,) and draws[0] >= 0.0
        with pytest.raises(ValueError):
            draw_sample_variances(0.0, 2, 1, rng)
        with pytest.raises(ValueError):
            draw_sample_variances(1.0, 1, 1, rng)


def one_gap(kind, a, b, s1, s2):
    """The realized gap of one pair of sample variances, through one-element arrays."""
    gaps = realized_gaps(kind, a, b, np.array([s1]), np.array([s2]))
    assert gaps.shape == (1,)
    return float(gaps[0])


class TestRealizedGap:
    def test_exact_sample_variances_close_no_gap(self):
        gap = one_gap(GapKind.KFU_VS_KFC, 1.0, 3.0, 1.0, 3.0)
        assert gap == pytest.approx(0.0, abs=1e-15)

    def test_estimated_weights_never_beat_true_weights(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            a, b = rng.uniform(0.1, 2.0, 2)
            s1 = draw_sample_variances(a, 2, 1, rng)
            s2 = draw_sample_variances(b, 2, 1, rng)
            assert realized_gaps(GapKind.KFU_VS_KFC, a, b, s1, s2)[0] >= -1e-15

    def test_equal_everything_equal_weights(self):
        gap = one_gap(GapKind.EW_VS_KFU, 2.0, 2.0, 1.3, 1.3)
        assert gap == pytest.approx(0.0, abs=1e-15)

    def test_zero_draws_fall_back_to_true_weights(self):
        gap = one_gap(GapKind.KFU_VS_KFC, 1.0, 3.0, 0.0, 0.0)
        assert gap == 0.0

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, math.nan)])
    def test_rejects_nonpositive_true_variances(self, a, b):
        for kind in GapKind:
            with pytest.raises(ValueError, match="true variances must be positive"):
                one_gap(kind, a, b, 1.0, 1.0)


class TestAnalyticForms:
    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(25):
            p1, p2 = rng.uniform(0.51, 0.99, 2)
            a, b = variance_from_p(p1, 1, 1.0), variance_from_p(p2, 1, 1.0)
            for kind in GapKind:
                assert expected_gap_analytic(kind, a, b) == pytest.approx(
                    quadrature_expected_gap(kind, a, b), abs=1e-9
                )
        # on and next to the diagonal, where the forms used to cancel
        for p in (0.51, 0.7, 0.9, 0.995):
            b = variance_from_p(p, 1, 1.0)
            for d in (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
                for a in (b + d, b - d):
                    for kind in GapKind:
                        assert abs(
                            expected_gap_analytic(kind, a, b)
                            - quadrature_expected_gap(kind, a, b)
                        ) <= 1e-12 * b, (kind, a, b)

    def test_pinned_values(self):
        assert expected_gap_analytic(GapKind.KFU_VS_KFC, 0.64, 0.36) == pytest.approx(
            0.1271510204081637, abs=1e-13
        )
        ew = expected_gap_analytic(
            GapKind.EW_VS_KFU, variance_from_p(0.99, 1, 1.0), variance_from_p(0.7, 1, 1.0)
        )
        assert ew == pytest.approx(0.10197626200771921, abs=1e-13)
        assert ew > 0.0
        sr = expected_gap_analytic(
            GapKind.SR_VS_KFU, variance_from_p(0.95, 1, 1.0), variance_from_p(0.6, 1, 1.0)
        )
        assert sr == pytest.approx(-0.11455197851061963, abs=1e-13)
        assert sr < 0.0

    def test_regular_on_diagonal(self):
        # at a = b the gaps are b/4, -b/4 and b/4, and the forms stay
        # continuous as a approaches b
        for b in (0.8, 0.5, 1.0, 0.0198):
            expected = {
                GapKind.KFU_VS_KFC: b / 4.0,
                GapKind.EW_VS_KFU: -b / 4.0,
                GapKind.SR_VS_KFU: b / 4.0,
            }
            for kind, value in expected.items():
                assert expected_gap_analytic(kind, b, b) == pytest.approx(value, rel=1e-15)
                for d in (1e-6, 1e-8, 1e-10, 1e-12):
                    for a in (b + d, b - d):
                        assert abs(expected_gap_analytic(kind, a, b) - value) <= d
        with pytest.raises(ValueError):
            expected_gap_analytic(GapKind.SR_VS_KFU, 0.0, 1.0)
        with pytest.raises(ValueError, match="true variances must be positive"):
            expected_gap_analytic(GapKind.KFU_VS_KFC, np.array([1.0, math.nan]), 1.0)


class TestMonteCarloGap:
    def test_agrees_with_analytic(self):
        rng = np.random.default_rng(27)
        for kind in GapKind:
            est = monte_carlo_gap(kind, 0.9, 0.4, 2, 2_000_000, rng)
            analytic = expected_gap_analytic(kind, 0.9, 0.4)
            assert abs(analytic - est.monte_carlo_mean) < 4 * est.monte_carlo_stderr

    def test_equal_variances_equal_weighting_wins(self):
        rng = np.random.default_rng(28)
        est = monte_carlo_gap(GapKind.EW_VS_KFU, 1.0, 1.0, 2, 500_000, rng)
        assert expected_gap_analytic(GapKind.EW_VS_KFU, 1.0, 1.0) == -0.25
        assert est.monte_carlo_mean < 0.0
        # known value -sigma^2 / 4 on the diagonal
        assert abs(est.monte_carlo_mean + 0.25) < 4 * est.monte_carlo_stderr

    def test_diagonal_closed_forms_agree(self):
        rng = np.random.default_rng(37)
        for kind in GapKind:
            est = monte_carlo_gap(kind, 0.5, 0.5, 2, 2_000_000, rng)
            analytic = expected_gap_analytic(kind, 0.5, 0.5)
            assert abs(analytic - est.monte_carlo_mean) < 3 * est.monte_carlo_stderr

    def test_nonnegative_expectation(self):
        rng = np.random.default_rng(29)
        est = monte_carlo_gap(GapKind.KFU_VS_KFC, 0.3, 1.4, 2, 200_000, rng)
        assert est.monte_carlo_mean >= -3 * est.monte_carlo_stderr

    def test_swap_symmetry(self):
        rng = np.random.default_rng(30)
        for kind in (GapKind.KFU_VS_KFC, GapKind.EW_VS_KFU):
            fwd = monte_carlo_gap(kind, 0.9, 0.3, 2, 500_000, rng)
            rev = monte_carlo_gap(kind, 0.3, 0.9, 2, 500_000, rng)
            spread = math.hypot(fwd.monte_carlo_stderr, rev.monte_carlo_stderr)
            assert abs(fwd.monte_carlo_mean - rev.monte_carlo_mean) < 3 * spread
        sr_fwd = expected_gap_analytic(GapKind.SR_VS_KFU, 0.9, 0.3)
        sr_rev = expected_gap_analytic(GapKind.SR_VS_KFU, 0.3, 0.9)
        assert abs(sr_fwd - sr_rev) > 0.1

    def test_trial_floor(self):
        rng = np.random.default_rng(31)
        with pytest.raises(ValueError):
            monte_carlo_gap(GapKind.KFU_VS_KFC, 1.0, 2.0, 2, 9_999, rng)

    def test_same_seed_same_result(self):
        # 2e6 trials run as two chunks on streams spawned from the seed
        one = monte_carlo_gap(
            GapKind.EW_VS_KFU, 0.8, 0.5, 2, 2_000_000, np.random.default_rng(32)
        )
        again = monte_carlo_gap(
            GapKind.EW_VS_KFU, 0.8, 0.5, 2, 2_000_000, np.random.default_rng(32)
        )
        assert one == again
        assert one.trials == 2_000_000


def mesh(grid):
    """The p1 and p2 of every grid value, as arrays shaped like ``grid.values``."""
    return np.meshgrid(grid.axis, grid.axis, indexing="ij")


class TestFigureGrid:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            figure_grid(GapKind.KFU_VS_KFC, 9)

    def test_uncertainty_cost_surface(self):
        grid = figure_grid(GapKind.KFU_VS_KFC, 10)
        assert grid.axis.shape == (10,) and grid.values.shape == (10, 10)
        assert (grid.values >= 0.0).all()
        p1, p2 = mesh(grid)
        assert (p1 == p2).sum() == 10
        for p, value in zip(p2[p1 == p2].tolist(), grid.values[p1 == p2].tolist()):
            assert value == pytest.approx(variance_from_p(p, 1, 1.0) / 4.0, rel=1e-15)

    def test_values_are_the_closed_form_at_each_point(self):
        grid = figure_grid(GapKind.SR_VS_KFU, 10)
        for i, p1 in enumerate(grid.axis.tolist()):
            for j, p2 in enumerate(grid.axis.tolist()):
                a, b = variance_from_p(p1, 1, 1.0), variance_from_p(p2, 1, 1.0)
                assert grid.values[i, j] == expected_gap_analytic(GapKind.SR_VS_KFU, a, b)

    def test_equal_weight_surface_signs(self):
        grid = figure_grid(GapKind.EW_VS_KFU, 10)
        p1, p2 = mesh(grid)
        hi, lo = np.maximum(p1, p2), np.minimum(p1, p2)
        assert (grid.values[hi <= 0.951] < 0.0).all()
        assert (grid.values[(hi >= 0.99) & (lo <= 0.9)] > 0.0).all()
        for p, value in zip(p2[p1 == p2].tolist(), grid.values[p1 == p2].tolist()):
            assert value == pytest.approx(-variance_from_p(p, 1, 1.0) / 4.0, rel=1e-15)

    def test_subset_surface_signs(self):
        grid = figure_grid(GapKind.SR_VS_KFU, 10)
        p1, p2 = mesh(grid)
        negative = grid.values < 0.0
        assert negative.any(), "the subset rule should win somewhere"
        assert ((p1 >= 0.8) & (p2 < p1))[negative].all()
        assert (grid.values[p1 == p2] > 0.0).all()


class TestGaussianLimit:
    def test_ks_distance_matches_scipy(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=2_000)
        expected = stats.kstest(x, "norm").statistic
        for cdf in (stats.norm.cdf, _normal_cdf):
            assert ks_distance(x, cdf) == pytest.approx(expected, abs=1e-12)

    def test_perfect_judge_skipped(self):
        rng = np.random.default_rng(34)
        with pytest.warns(UserWarning):
            out = gaussian_limit_check(Judge(1.0), [4, 16], 1_000, rng)
        assert out == []

    def test_odd_count_rejected(self):
        rng = np.random.default_rng(35)
        with pytest.raises(ValueError):
            gaussian_limit_check(Judge(0.75), [5], 1_000, rng)

    def test_monotone_decrease_and_floor(self):
        # The lattice spacing keeps the distance near phi(0) / sqrt(4C(1-p)p);
        # at C = 256, p = 0.75 that floor is ~0.029 (oracle-derived), so the
        # frozen bound is 0.035 rather than anything tighter.
        rng = np.random.default_rng(36)
        out = gaussian_limit_check(Judge(0.75), [4, 16, 64, 256], 100_000, rng)
        values = [d for _, d in out]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.035

    def test_csv_writers(self, tmp_path):
        grid_path = tmp_path / "grid.csv"
        grid = figure_grid(GapKind.SR_VS_KFU, 10)
        write_grid_csv(grid, str(grid_path))
        lines = grid_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p1,p2,analytic,mc_mean,mc_stderr,trials"
        assert len(lines) == 101
        axis = grid.axis.tolist()
        cells = [(p1, p2, grid.values[i, j]) for i, p1 in enumerate(axis) for j, p2 in enumerate(axis)]
        for line, (p1, p2, value) in zip(lines[1:], cells):
            assert line == f"{p1!r},{p2!r},{float(value)!r},,,0"
        # equal axis values with different reprs keep their own, and the float64 axis
        # is written as float reprs, not np.float64(...)
        grid = Grid(np.array([0.0, -0.0, 0.5]), np.arange(9.0).reshape(3, 3))
        write_grid_csv(grid, str(grid_path))
        lines = grid_path.read_text(encoding="utf-8").splitlines()
        texts = ["0.0", "-0.0", "0.5"]
        assert lines[1:] == [f"{p1},{p2},{3.0 * i + j!r},,,0"
                             for i, p1 in enumerate(texts) for j, p2 in enumerate(texts)]
        conv_path = tmp_path / "conv.csv"
        write_convergence_csv([(4, 0.2), (16, 0.1)], str(conv_path))
        assert conv_path.read_text(encoding="utf-8") == "C,ks_distance\n4,0.2\n16,0.1\n"
