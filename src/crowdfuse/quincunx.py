"""Quincunx-style judgment model: noisy detection walks over binary evidence.

A judge estimates a magnitude by scanning the ``count`` elements of an
environment. Each element deviates from its category norm by ``+unit`` or
``-unit``, and the judge detects each deviation's sign correctly with
probability ``p`` (independently). The estimate is the category norm plus
the resulting signed random walk, so detection reliability maps directly
onto estimate variance:

    mean     = (2p - 1) * t * v
    variance = 4 * C * (1 - p) * p * v**2
    skewness = -2 * mean / (C * sigma)
    kurtosis = 3 + 4 * v**2 / sigma**2 - 6 / C

where C is the element count, v the evidence unit, and t the net signed
deviation of the environment. The variance identity is invertible, which
gives the reliability-from-MSE rule and a closure property: fusing two
judges' estimates with inverse-variance weights yields a combined estimate
whose variance again has the 4C(1-p)p v^2 form for an effective p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# The largest magnitude a panel value, an environment's norm or its span
# count * unit may have, and the inverse of the smallest evidence unit of a
# panel. Reliability estimation forms cap * (cap - mse) with cap = v**2, and
# a walk's fourth moment goes with (count * unit)**4; within these bounds
# neither overflows nor underflows.
MAX_MAGNITUDE = 1e50

# The largest element count. numpy draws binomial counts only up to
# 2**63 - 1, and up to 2**53 every walk sum 2 * (c+ - c-) - deviation is an
# exact double.
MAX_COUNT = 2**53

# The most uniforms sample_estimate_each draws at once: at 9 bytes an
# element (the double and its detection flag), about 9 MB.
_MAX_DRAW = 2**20


@dataclass(frozen=True)
class Environment:
    """A category instance: norm plus ``count`` elements of +/-``unit`` evidence.

    ``deviation`` is the signed sum of the element signs, so the true
    magnitude is ``norm + deviation * unit``. It must satisfy
    ``|deviation| <= count`` and share the parity of ``count``, and
    ``|norm|`` and ``count * unit`` may not exceed ``MAX_MAGNITUDE``, so
    that every moment of the walk is finite in doubles, and ``count`` may
    not exceed ``MAX_COUNT``.
    """

    norm: float
    count: int
    unit: float
    deviation: int

    def __post_init__(self) -> None:
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"count must be a positive integer, got {self.count!r}")
        if not isinstance(self.deviation, int):
            raise ValueError(f"deviation must be an integer, got {self.deviation!r}")
        if not (self.unit > 0.0 and math.isfinite(self.unit)):
            raise ValueError(f"unit must be a positive finite real, got {self.unit!r}")
        # a count past its bound is refused before a huge int can overflow the product
        if self.count > MAX_COUNT:
            raise ValueError(f"count must be at most 2**53, got {self.count!r}")
        if not self.count * self.unit <= MAX_MAGNITUDE:
            raise ValueError(f"count * unit must not exceed {MAX_MAGNITUDE:g}, "
                             f"got count {self.count!r} and unit {self.unit!r}")
        if not abs(self.norm) <= MAX_MAGNITUDE:
            raise ValueError(f"norm must be finite and at most {MAX_MAGNITUDE:g} in magnitude, "
                             f"got {self.norm!r}")
        if abs(self.deviation) > self.count:
            raise ValueError(
                f"|deviation| = {abs(self.deviation)} exceeds count = {self.count}"
            )
        if (self.deviation + self.count) % 2 != 0:
            raise ValueError(
                f"deviation {self.deviation} and count {self.count} must have equal parity"
            )

    @property
    def positive_elements(self) -> int:
        """Number of elements carrying +unit; the first ones by convention."""
        return (self.count + self.deviation) // 2


@dataclass(frozen=True)
class Judge:
    """Per-element correct-detection probability, restricted to [0.5, 1].

    Values below 0.5 would mean worse-than-chance detection, which the
    MSE-based reliability estimator can never produce; they are rejected.
    """

    p: float

    def __post_init__(self) -> None:
        if not (0.5 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0.5, 1], got {self.p!r}")

    @property
    def noise(self) -> float:
        """The unit-free variance factor (1 - p) * p."""
        return (1.0 - self.p) * self.p


@dataclass(frozen=True)
class Moments:
    """First four moments of the detection-walk error.

    ``kurtosis`` is ``None`` for a degenerate (zero-variance) walk; skewness
    takes its natural degenerate value 0 there.
    """

    mean: float
    variance: float
    skewness: float
    kurtosis: float | None

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError(f"variance must be nonnegative, got {self.variance!r}")
        if self.variance > 0.0 and self.kurtosis is not None and self.kurtosis < 1.0:
            raise ValueError(f"kurtosis must be >= 1, got {self.kurtosis!r}")


def moments(judge: Judge, env: Environment) -> Moments:
    """Exact moments of the walk error for one judge in one environment.

    At p = 1 the walk is deterministic: variance 0, skewness 0 by
    convention, kurtosis undefined (``None``).
    """
    p, c, v, t = judge.p, env.count, env.unit, env.deviation
    mean = (2.0 * p - 1.0) * t * v
    variance = variance_from_p(p, c, v)
    if variance == 0.0:
        return Moments(mean=mean, variance=0.0, skewness=0.0, kurtosis=None)
    sigma = math.sqrt(variance)
    skew = -2.0 * mean / (c * sigma)
    kurt = 3.0 + 4.0 * v * v / variance - 6.0 / c
    return Moments(mean=mean, variance=variance, skewness=skew, kurtosis=kurt)


def sample_estimate_each(
    ps: Sequence[float], env: Environment, rng: np.random.Generator
) -> np.ndarray:
    """One estimate per reliability in ``ps`` (each in [0.5, 1]).

    An estimate is norm + unit * sum of detected element signs. The first
    ``(count + deviation) / 2`` elements carry +1 and the rest -1; each is
    detected correctly with probability p, independently, and a wrong
    detection flips the element's contribution. With ``c+`` and ``c-`` the
    correct detections among the positive and the negative elements, the
    sum is 2 * (c+ - c-) - deviation, an exact integer. The uniforms come
    in ``rng.random`` draws of at most 2**20: whole rows, or a row longer
    than that in blocks of elements. ``rng.random`` fills in order, so the
    draws consume the stream exactly as ``len(ps)`` successive one-element
    calls do, and the values are the same.
    """
    p = np.asarray(ps, dtype=np.float64)[:, None]
    n_pos = env.positive_elements
    seats, width = max(1, _MAX_DRAW // env.count), min(env.count, _MAX_DRAW)
    net = np.zeros(len(p), dtype=np.int64)
    for lo in range(0, len(p), seats):
        rows = p[lo:lo + seats]
        for first in range(0, env.count, width):  # one block unless a row is longer than 2**20
            correct = rng.random((len(rows), min(width, env.count - first))) < rows
            split = max(n_pos - first, 0)  # the block's positive elements come first
            net[lo:lo + seats] += correct[:, :split].sum(axis=1) - correct[:, split:].sum(axis=1)
    return env.norm + env.unit * (2 * net - env.deviation)


def sample_estimates(
    judge: Judge, env: Environment, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized draws with the distribution of :func:`sample_estimate_each`.

    Grouping the walk by true element sign, the sum of detections over the
    n+ positive elements is Binomial(n+, p) and likewise for the negative
    group, so the walk equals 2*(B+ - B-) - deviation. This is an exact
    distributional identity, not an approximation.
    """
    n_pos = env.positive_elements
    n_neg = env.count - n_pos
    b_pos = rng.binomial(n_pos, judge.p, size=size)
    b_neg = rng.binomial(n_neg, judge.p, size=size)
    walk = 2.0 * (b_pos - b_neg).astype(np.float64) - env.deviation
    return env.norm + env.unit * walk


def variance_from_p(p: float, count: int, unit: float) -> float:
    """Estimate variance implied by reliability p: 4 * C * (1-p) * p * v**2.

    Monotone decreasing in p on [0.5, 1]; zero exactly at p = 1.
    """
    if not (0.5 <= p <= 1.0):
        raise ValueError(f"p must lie in [0.5, 1], got {p!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if not unit > 0.0:
        raise ValueError(f"unit must be positive, got {unit!r}")
    return 4.0 * count * (1.0 - p) * p * unit * unit


def p_from_mse(mse, count: int, unit: float):
    """Invert the variance identity: reliability implied by an observed MSE.

    p = 1/2 + sqrt(Cv^2 (Cv^2 - MSE)) / (2 Cv^2) in [0.5, 1], elementwise
    over an array of MSEs (a float for a float). An MSE above Cv^2
    (possible in real data) is clamped to the maximal-uncertainty bound,
    returning p = 0.5 rather than a complex root.
    """
    m = np.asarray(mse, dtype=np.float64)
    bad = ~(np.isfinite(m) & (m >= 0.0))
    if bad.any():
        raise ValueError(f"mse must be a nonnegative finite real, got {float(m[bad][0])!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if not unit > 0.0:
        raise ValueError(f"unit must be positive, got {unit!r}")
    cap = count * unit * unit
    p = np.minimum(0.5 + np.sqrt(cap * (cap - np.minimum(m, cap))) / (2.0 * cap), 1.0)
    return float(p) if p.ndim == 0 else p


def fuse_p(a: Judge, b: Judge) -> Judge:
    """Effective reliability of the inverse-variance fusion of two judges.

    p = 1/2 + 1/2 * sqrt(1 - 4 * u1*u2 / (u1 + u2)) with u_i = (1-p_i)p_i.
    The result is at least max(p1, p2), strictly greater when both are
    below 1, and the element count and evidence unit cancel. Two perfect
    judges combine to the (zero-variance) limit p = 1.
    """
    u1, u2 = a.noise, b.noise
    if u1 + u2 == 0.0:
        return Judge(1.0)
    k = u1 * u2 / (u1 + u2)
    return Judge(0.5 + 0.5 * math.sqrt(1.0 - 4.0 * k))
