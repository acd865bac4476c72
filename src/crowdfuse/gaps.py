"""Expected-accuracy gaps between fusion rules under estimated weights.

When the weights of a two-source fusion are set from sample variances
(n observations each) instead of the true variances, the realized MSE
exceeds the optimum by a random amount. This module draws those sample
variances (Gamma-distributed for Gaussian sources), evaluates the realized
gaps for three rule comparisons, provides the closed-form n = 2 expected
gaps, and cross-checks them by Monte Carlo. It also produces the
plot-ready reliability grids for the three comparisons and the
Gaussian-limit diagnostics of the detection walk.

Gap sign conventions (always first rule minus second):

* ``KFU_VS_KFC``: estimated-weight fusion minus true-weight fusion
  (nonnegative in expectation; zero only if the estimated weight is exact).
* ``EW_VS_KFU``: equal weighting minus estimated-weight fusion
  (negative where equal weighting wins).
* ``SR_VS_KFU``: keeping source 1 alone minus estimated-weight fusion
  (negative where refusing to fuse wins; asymmetric by construction).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .panel import write_csv
from .quincunx import Environment, Judge, sample_estimates, variance_from_p

MIN_MC_TRIALS = 10_000
_GRID_P_LO = 0.51
_GRID_P_HI = 0.995
_CHUNK = 1_000_000

GRID_CSV_HEADER = "p1,p2,analytic,mc_mean,mc_stderr,trials"


class GapKind(enum.Enum):
    KFU_VS_KFC = "kfu-kfc"
    EW_VS_KFU = "ew-kfu"
    SR_VS_KFU = "sr-kfu"


@dataclass(frozen=True)
class GapEstimate:
    """A Monte Carlo estimate of an expected gap, with its standard error."""

    monte_carlo_mean: float
    monte_carlo_stderr: float
    trials: int

    def __post_init__(self) -> None:
        if self.monte_carlo_stderr < 0.0:
            raise ValueError("stderr must be nonnegative")
        if self.trials <= 0:
            raise ValueError("trials must be positive")


class Grid(NamedTuple):
    """One gap surface: ``values[i, j]`` is the gap at reliabilities ``(axis[i], axis[j])``."""

    axis: np.ndarray
    values: np.ndarray


def draw_sample_variances(
    sigma2: float, n: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``size`` sample variances of n Gaussian observations with true variance sigma2.

    Each is distributed Gamma(shape = (n-1)/2, scale = 2 sigma2 / n), i.e.
    sigma2 * chi2_{n-1} / n, with mean (n-1) sigma2 / n.
    """
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2!r}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n!r}")
    return rng.gamma((n - 1) / 2.0, 2.0 * sigma2 / n, size=size)


def realized_gaps(
    kind: GapKind, sigma1_2: float, sigma2_2: float, s1: np.ndarray, s2: np.ndarray
) -> np.ndarray:
    """Realized MSE gaps, one per pair of sample variances in ``s1`` and ``s2``.

    ``sigma1_2`` and ``sigma2_2`` are the true variances. The estimated
    weight is s2 / (s1 + s2). Should both sample variances be exactly zero
    (a probability-zero event), the true-variance weight is used instead so
    the gap stays defined.
    """
    a, b = sigma1_2, sigma2_2
    if not (a > 0.0 and b > 0.0):
        raise ValueError("true variances must be positive")
    w_star = b / (a + b)
    total = s1 + s2
    w_hat = np.where(total > 0.0, s2 / np.where(total > 0.0, total, 1.0), w_star)
    fused = a * w_hat**2 + b * (1.0 - w_hat) ** 2
    if kind is GapKind.KFU_VS_KFC:
        best = a * w_star**2 + b * (1.0 - w_star) ** 2
        return fused - best
    if kind is GapKind.EW_VS_KFU:
        return (a / 4.0 + b / 4.0) - fused
    if kind is GapKind.SR_VS_KFU:
        return a - fused
    raise ValueError(f"unknown gap kind {kind!r}")


def expected_gap_analytic(kind: GapKind, sigma1_2, sigma2_2):
    """Closed-form expected gap for weights estimated from n = 2 observations.

    Elementwise over arrays of true variances a = ``sigma1_2`` and
    b = ``sigma2_2``, broadcast together (a float for floats). Written in
    x = sqrt(a / b) so that each form is one rational function with no
    cancellation: regular over the whole domain, including the diagonal
    a = b, where the three gaps are b/4, -b/4 and b/4.
    """
    a = np.asarray(sigma1_2, dtype=np.float64)
    b = np.asarray(sigma2_2, dtype=np.float64)
    if not ((a > 0.0) & (b > 0.0)).all():
        raise ValueError("true variances must be positive")
    x = np.sqrt(a / b)
    x1 = x + 1.0
    x2 = x * x
    if kind is GapKind.KFU_VS_KFC:
        gap = b * x * (x2 * x2 + 2.0 * x2 * x - 2.0 * x2 + 2.0 * x + 1.0) / (
            2.0 * (x1 * x1) * (x2 + 1.0)
        )
    elif kind is GapKind.EW_VS_KFU:
        gap = b * (x2 - 2.0 * x - 1.0) * (x2 + 2.0 * x - 1.0) / (4.0 * (x1 * x1))
    elif kind is GapKind.SR_VS_KFU:
        gap = b * x * (2.0 * x2 * x + 3.0 * x2 - 2.0 * x - 1.0) / (2.0 * (x1 * x1))
    else:
        raise ValueError(f"unknown gap kind {kind!r}")
    return float(gap) if gap.ndim == 0 else gap


def monte_carlo_gap(
    kind: GapKind,
    sigma1_2: float,
    sigma2_2: float,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> GapEstimate:
    """Monte Carlo estimate of the expected gap, with its standard error.

    Trials run in fixed-size chunks, each on its own random stream spawned
    from ``rng``, and partial sums are reduced in chunk order. The n = 2
    closed form to compare it with is :func:`expected_gap_analytic`.
    """
    if trials < MIN_MC_TRIALS:
        raise ValueError(f"trials must be >= {MIN_MC_TRIALS}, got {trials}")
    sizes = [_CHUNK] * (trials // _CHUNK)
    if trials % _CHUNK:
        sizes.append(trials % _CHUNK)
    total = total_sq = 0.0
    for size, stream in zip(sizes, rng.spawn(len(sizes))):
        s1 = draw_sample_variances(sigma1_2, n, size, stream)
        s2 = draw_sample_variances(sigma2_2, n, size, stream)
        g = realized_gaps(kind, sigma1_2, sigma2_2, s1, s2)
        total += float(g.sum())
        total_sq += float((g * g).sum())
    mean = total / trials
    var = max(total_sq - total * total / trials, 0.0) / (trials - 1)
    stderr = math.sqrt(var / trials)
    return GapEstimate(monte_carlo_mean=mean, monte_carlo_stderr=stderr, trials=trials)


def figure_grid(kind: GapKind, resolution: int) -> Grid:
    """Evaluate one gap surface over a reliability grid.

    The axis holds ``resolution`` reliabilities in [0.51, 0.995], each mapped
    to the variance 4(1-p)p; every value is the closed form, from one call
    over the mesh of those variances.
    """
    if resolution < 10:
        raise ValueError(f"resolution must be >= 10, got {resolution}")
    axis = np.linspace(_GRID_P_LO, _GRID_P_HI, resolution)
    var = np.array([variance_from_p(p, 1, 1.0) for p in axis.tolist()])
    return Grid(axis, expected_gap_analytic(kind, var[:, None], var))


def gaussian_limit_check(
    judge: Judge,
    c_values: Sequence[int],
    samples: int,
    rng: np.random.Generator,
) -> list[tuple[int, float]]:
    """KS distance of the standardized walk to the standard Gaussian, per C.

    Holds C v^2 = 1 (v = 1 / sqrt(C)) at zero net deviation, so the walk
    variance is 4(1-p)p for every C and the distance shrinks as the element
    count grows. The walk lives on a lattice of spacing 2v, so the distance
    floors at about phi(0) * v / sigma rather than reaching zero. A perfect
    judge is degenerate and is skipped with a warning.
    """
    if judge.p == 1.0:
        warnings.warn("p = 1 walk is degenerate; Gaussian check skipped")
        return []
    sigma = math.sqrt(variance_from_p(judge.p, 1, 1.0))
    out: list[tuple[int, float]] = []
    for c in c_values:
        if c < 2 or c % 2 != 0:
            raise ValueError(f"element counts must be even and >= 2, got {c}")
        env = Environment(norm=0.0, count=c, unit=1.0 / math.sqrt(c), deviation=0)
        draws = sample_estimates(judge, env, samples, rng) / sigma
        out.append((c, ks_distance(draws, _normal_cdf)))
    return out


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard Gaussian CDF, elementwise: erfc(-x / sqrt(2)) / 2."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])


def ks_distance(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Two-sided Kolmogorov-Smirnov distance of a sample to a continuous CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    f = cdf(x)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


# Joined by hand, not panel.write_csv: repr floats, "" and 0 never need quoting, and csv.writer slows the grid write.
def write_grid_csv(grid: Grid, path: str) -> None:
    """Write a grid as UTF-8 CSV, one row per (p1, p2), p1-major.

    Every row is ``p1,p2,value,,,0``: the gap sits in the ``analytic``
    column, and the Monte Carlo columns of the six-column header stay
    empty, with zero trials.
    """
    texts = [repr(p) for p in grid.axis.tolist()]
    lines = [GRID_CSV_HEADER]
    for p1, row in zip(texts, grid.values.tolist()):
        lines.extend(f"{p1},{p2},{value!r},,,0" for p2, value in zip(texts, row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_convergence_csv(points: Iterable[tuple[int, float]], path: str) -> None:
    """Write (element count, KS distance) pairs as UTF-8 CSV."""
    write_csv(path, ("C", "ks_distance"), ((c, float(d)) for c, d in points))
