"""Crowd aggregation rules over a single survey.

Four ways to turn one survey's forecasts into a point estimate, in the
order of ``ALL_RULES``:

* EWM: the plain mean of the eligible forecasts.
* KF: inverse-variance fusion, each forecast weighted by 1 / ((1 - p) p)
  for the reliability p estimated from the forecaster's past errors; the
  estimate equals the recursive fold of ``fusion.fuse_sequence``. Members
  at p = 1 share the whole weight equally, whatever their forecasts.
* CWM: a mean over the members whose running mean leave-one-out
  contribution is strictly positive, weighted by those contributions.
* KFplus: the KF weights within the CWM subset.

When no member has a positive contribution, CWM and KFplus fall back to
the equal-weight mean. A member's leave-one-out term for a realized
survey is the squared error of the equal-weight mean without them minus
the squared error with them, so a positive term means they moved the
crowd toward the realization; a survey with fewer than two members gives
no terms.

There is one path per rule. :func:`rule_estimates` takes a survey's
members in sorted order and their forecasts and returns all four
estimates and the CWM fallback flag; :func:`fold_survey` folds one
realized survey into the running contribution means; and
:func:`rank_by_reliability` orders forecasters for the top-n
smaller-wiser-crowd runs. Each weight formula, the positive-contribution
test and the leave-one-out term live once, in private helpers.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Mapping, MutableMapping, Sequence

RULE_EWM = "EWM"
RULE_KF = "KF"
RULE_CWM = "CWM"
RULE_KFPLUS = "KFplus"
ALL_RULES = (RULE_EWM, RULE_KF, RULE_CWM, RULE_KFPLUS)


class NoEligibleForecastersError(ValueError):
    """The survey has no eligible forecaster to aggregate."""


def _check_normalized(weights: Iterable[float]) -> None:
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {total!r}, expected 1")


def _weighted_sum(weights: Sequence[float], values: Sequence[float]) -> float:
    return sum(map(mul, weights, values))


def _equal_weights(values: Sequence[float]) -> tuple[list[float], float]:
    """Equal weights and the plain mean."""
    n = len(values)
    return [1.0 / n] * n, sum(values) / n


def _inverse_variance_weights(
    noises: Sequence[float], values: Sequence[float]
) -> tuple[list[float], float]:
    """Weights proportional to 1 / noise and the weighted sum of the values.

    Members at zero noise (p = 1) share the whole weight equally, whatever
    their values.
    """
    perfect = noises.count(0.0)
    if perfect:
        w = 1.0 / perfect
        weights = [w if u == 0.0 else 0.0 for u in noises]
    else:
        inverse = [1.0 / u for u in noises]
        total = sum(inverse)
        weights = [x / total for x in inverse]
    return weights, _weighted_sum(weights, values)


def _contribution_weights(
    scores: Sequence[float], values: Sequence[float]
) -> tuple[list[float], float]:
    """Weights proportional to positive contribution scores, and the weighted sum."""
    total = sum(scores)
    weights = [c / total for c in scores]
    return weights, _weighted_sum(weights, values)


def _noises(ids: Sequence[str], noise: Mapping[str, float]) -> list[float]:
    try:
        return [noise[j] for j in ids]
    except KeyError as missing:
        raise ValueError(f"forecaster {missing.args[0]} has no reliability estimate") from None


def _positive(ids: Sequence[str], contributions: Mapping[str, float]) -> list[int]:
    """Positions of the members whose mean contribution is strictly positive."""
    return [i for i, j in enumerate(ids) if contributions.get(j, 0.0) > 0.0]


def _loo_terms(values: Sequence[float], realized: float) -> list[float]:
    """Leave-one-out terms of one realized survey, one per value; none below two."""
    n = len(values)
    if n < 2:
        return []
    total = sum(values)
    err_all = (total / n - realized) ** 2
    return [((total - x) / (n - 1) - realized) ** 2 - err_all for x in values]


def rule_estimates(
    ids: Sequence[str],
    values: Sequence[float],
    noise: Mapping[str, float],
    contributions: Mapping[str, float],
) -> tuple[float, float, float, float, bool]:
    """The EWM, KF, CWM and KFplus estimates of one survey (the order of
    ``ALL_RULES``), and the CWM fallback flag.

    ``ids`` are the survey's members in sorted order and ``values`` their
    forecasts; ``noise`` maps a forecaster to (1 - p) p of their estimated
    reliability and ``contributions`` to their mean leave-one-out term. The
    flag is true when no member has a positive contribution, so that CWM
    and KFplus fall back to the equal-weight mean. Every rule's weights are
    checked to sum to one.
    """
    if not ids:
        raise NoEligibleForecastersError("nobody eligible")
    noises = _noises(ids, noise)
    ew_weights, ew = _equal_weights(values)
    kf_weights, kf = _inverse_variance_weights(noises, values)
    _check_normalized(ew_weights)
    _check_normalized(kf_weights)
    keep = _positive(ids, contributions)
    if not keep:
        return ew, kf, ew, ew, True
    kept = [values[i] for i in keep]
    cw_weights, cw = _contribution_weights([contributions[ids[i]] for i in keep], kept)
    kp_weights, kp = _inverse_variance_weights([noises[i] for i in keep], kept)
    _check_normalized(cw_weights)
    _check_normalized(kp_weights)
    return ew, kf, cw, kp, False


def fold_survey(
    contributions: MutableMapping[str, float],
    counts: MutableMapping[str, int],
    ids: Sequence[str],
    values: Sequence[float],
    realized: float,
) -> None:
    """Fold one realized survey's leave-one-out terms into the running means.

    ``ids`` and ``values`` are the survey's members in sorted order and
    their forecasts. ``contributions`` holds each forecaster's mean term
    over the ``counts[j]`` surveys that gave them one; both are updated in
    place.
    """
    for j, term in zip(ids, _loo_terms(values, realized)):
        count = counts.get(j, 0) + 1
        mean = contributions.get(j, 0.0)
        contributions[j] = mean + (term - mean) / count
        counts[j] = count


def rank_by_reliability(
    ids: Iterable[str], p_hats: Mapping[str, float], mse: Mapping[str, float]
) -> list[str]:
    """Forecasters from the most to the least reliable.

    ``p_hats`` maps a forecaster to their estimated reliability p. Ties in
    p break toward lower current MSE, then lexicographic id, so the top n
    of the list is deterministic.
    """
    return sorted(ids, key=lambda j: (-p_hats[j], mse[j], j))
