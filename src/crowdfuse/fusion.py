"""Optimal linear combination of noisy estimates.

Covers the MSE algebra for one and two estimates, the biased and unbiased
optimal weights, Kalman gains in variance space and in reliability space,
and recursive fusion of whole sequences. Recursive fusion accumulates an
(estimate, reliability) pair: after every pairwise step the combined
variance is re-expressed as an effective reliability, so adding one more
estimate never grows the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .quincunx import Judge, fuse_p


class DegenerateFusionError(ValueError):
    """Fusion is undefined: zero total variance or conflicting exact estimates."""


@dataclass(frozen=True)
class Truth:
    """The actual magnitude being estimated."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"truth must be finite, got {self.value!r}")


@dataclass(frozen=True)
class Belief:
    """One estimate with its uncertainty and bias.

    ``mean_offset`` is the estimate distribution's mean minus the truth;
    zero for an unbiased source.
    """

    estimate: float
    variance: float
    mean_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.variance < 0.0 or not math.isfinite(self.variance):
            raise ValueError(f"variance must be nonnegative, got {self.variance!r}")

    def mean(self, truth: Truth) -> float:
        return truth.value + self.mean_offset


@dataclass(frozen=True)
class WeightPair:
    """A pair of combination weights summing to one exactly.

    Always built with ``w2 = 1.0 - w1`` so the sum is exact in floating
    point as well as algebraically.
    """

    w1: float
    w2: float

    def __post_init__(self) -> None:
        if self.w2 != 1.0 - self.w1:
            raise ValueError(f"weights must satisfy w2 == 1 - w1, got {self!r}")

    @classmethod
    def of(cls, w1: float) -> WeightPair:
        return cls(w1, 1.0 - w1)


def mse_single(b: Belief, truth: Truth) -> float:
    """MSE of a single source: variance plus squared bias."""
    bias = truth.value - b.mean(truth)
    return b.variance + bias * bias


def combined_mse(w: WeightPair, b1: Belief, b2: Belief, truth: Truth) -> float:
    """MSE of the weighted average w1*x1 + w2*x2 against the truth."""
    var_part = b1.variance * w.w1 * w.w1 + b2.variance * w.w2 * w.w2
    bias = w.w1 * b1.mean(truth) + w.w2 * b2.mean(truth) - truth.value
    return var_part + bias * bias


def optimal_weights_biased(b1: Belief, b2: Belief, truth: Truth) -> WeightPair:
    """MSE-minimizing weights for two possibly biased sources.

    w1 = (s2^2 + (m1 - m2)(X - m2)) / ((m1 - m2)^2 + s1^2 + s2^2), the
    stationary point of :func:`combined_mse` in w1 (the second derivative
    is the positive denominator).
    """
    m1, m2 = b1.mean(truth), b2.mean(truth)
    d = m1 - m2
    denom = d * d + b1.variance + b2.variance
    if denom == 0.0:
        raise DegenerateFusionError(
            "optimal weights are undefined for two identical point masses"
        )
    w1 = (b2.variance + d * (truth.value - m2)) / denom
    return WeightPair.of(w1)


def kalman_gain(var1: float, var2: float) -> WeightPair:
    """Inverse-variance weights for two unbiased sources: w1 = v2/(v1+v2)."""
    if var1 < 0.0 or var2 < 0.0:
        raise ValueError("variances must be nonnegative")
    if var1 + var2 == 0.0:
        raise DegenerateFusionError(
            "two zero-variance sources cannot be weighted; fusion is unnecessary"
        )
    return WeightPair.of(var2 / (var1 + var2))


def kalman_gain_p(a: Judge, b: Judge) -> WeightPair:
    """Kalman gains written in reliability space.

    w1 = u2 / (u1 + u2) with u_i = (1 - p_i) p_i. Equals
    ``kalman_gain(variance_from_p(p1, C, v), variance_from_p(p2, C, v))``
    for any element count and evidence unit, since both cancel. Two perfect
    judges (p = 1) raise :class:`DegenerateFusionError`.
    """
    return kalman_gain(a.noise, b.noise)


def fuse_pair(b1: Belief, b2: Belief) -> Belief:
    """Fuse two unbiased beliefs with Kalman gains.

    The result has estimate w1*x1 + w2*x2 and variance
    s1^2 s2^2 / (s1^2 + s2^2), never above min(s1^2, s2^2).
    """
    if b1.mean_offset != 0.0 or b2.mean_offset != 0.0:
        raise ValueError("fuse_pair requires unbiased beliefs (mean_offset 0)")
    w = kalman_gain(b1.variance, b2.variance)
    estimate = w.w1 * b1.estimate + w.w2 * b2.estimate
    variance = (
        0.0
        if b1.variance == 0.0 or b2.variance == 0.0
        else b1.variance * b2.variance / (b1.variance + b2.variance)
    )
    return Belief(estimate=estimate, variance=variance)


def fuse_sequence(items: Sequence[tuple[float, Judge]]) -> tuple[float, Judge]:
    """Fold (estimate, reliability) pairs into one, two at a time.

    Each step weighs the running estimate against the next with
    :func:`kalman_gain_p` and re-expresses the combined uncertainty through
    :func:`fuse_p`, so the fold's state is always a single pair. The result
    equals the one-shot inverse-variance weighted mean with weights
    proportional to 1 / ((1 - p_i) p_i), independent of input order and of
    pairing structure.

    Perfect judges (p = 1) dominate: one is returned as-is, several are
    allowed only if their estimates agree exactly.
    """
    if not items:
        raise ValueError("fuse_sequence requires at least one item")
    perfect = [(x, j) for x, j in items if j.p == 1.0]
    if perfect:
        first = perfect[0][0]
        if any(x != first for x, _ in perfect[1:]):
            raise DegenerateFusionError(
                "multiple zero-variance estimates conflict; fusion is undefined"
            )
        return first, Judge(1.0)
    est, judge = items[0]
    for nxt_est, nxt_judge in items[1:]:
        w = kalman_gain_p(judge, nxt_judge)
        est = w.w1 * est + w.w2 * nxt_est
        judge = fuse_p(judge, nxt_judge)
    return est, judge
