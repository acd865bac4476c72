"""Crowd aggregation rules over a single survey.

Four ways to turn one survey's forecasts into a point estimate:

* ``ewm``: the plain mean of eligible forecasts.
* ``kf_crowd``: inverse-variance fusion, with each forecaster's variance
  implied by the reliability estimated from their past errors.
* ``cwm``: a weighted mean over forecasters whose past leave-one-out
  contribution to the crowd is positive, weights proportional to those
  contributions.
* ``kf_plus``: the fusion rule applied within the positive-contribution
  subset.

Forecaster bookkeeping is plain mappings keyed by forecaster id: the
estimated reliability p-hat (``Mapping[str, Judge]``) and the running mean
of leave-one-out contributions (``Mapping[str, float]``), in which a
forecaster appears once they have at least one term.

Each weight formula, the positive-contribution test and the leave-one-out
term live once, in private helpers over members in sorted order. The
backtest calls the kernel :func:`rule_estimates` (four estimates and the
CWM fallback flag as plain values) and :func:`fold_survey`; the public
rules wrap the same helpers in an :class:`AggregateResult`.
:func:`rank_by_reliability` orders forecasters for the top-n
smaller-wiser-crowd runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Mapping, MutableMapping, Sequence

from .quincunx import Judge

RULE_EWM = "EWM"
RULE_KF = "KF"
RULE_CWM = "CWM"
RULE_KFPLUS = "KFplus"
ALL_RULES = (RULE_EWM, RULE_KF, RULE_CWM, RULE_KFPLUS)


class NoEligibleForecastersError(ValueError):
    """The survey has no eligible forecaster to aggregate."""


@dataclass(frozen=True)
class SurveySlice:
    """One survey's forecasts for a single variable-horizon cell.

    ``eligible`` holds the forecasters with at least two realized errors on
    this stream; only they enter aggregation.
    """

    survey_id: str
    forecasts: Mapping[str, float]
    eligible: frozenset[str]

    def __post_init__(self) -> None:
        missing = self.eligible - set(self.forecasts)
        if missing:
            raise ValueError(f"eligible forecasters without forecasts: {sorted(missing)}")


@dataclass(frozen=True)
class AggregateResult:
    rule: str
    estimate: float
    contributors: frozenset[str]
    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.contributors:
            raise ValueError("an aggregate needs at least one contributor")
        _check_normalized(self.weights[j] for j in self.contributors)


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


def _members(slice_: SurveySlice) -> tuple[list[str], list[float]]:
    """The slice's eligible ids in sorted order and their forecasts."""
    members = sorted(slice_.eligible)
    if not members:
        raise NoEligibleForecastersError(f"survey {slice_.survey_id}: nobody eligible")
    return members, [slice_.forecasts[j] for j in members]


def _result(
    rule: str, contributors: Sequence[str], weighted: tuple[list[float], float]
) -> AggregateResult:
    weights, estimate = weighted
    return AggregateResult(
        rule=rule,
        estimate=estimate,
        contributors=frozenset(contributors),
        weights=dict(zip(contributors, weights)),
    )


def ewm(slice_: SurveySlice) -> AggregateResult:
    """Equal-weight mean over the eligible forecasters."""
    members, values = _members(slice_)
    return _result(RULE_EWM, members, _equal_weights(values))


def kf_crowd(
    slice_: SurveySlice,
    p_hats: Mapping[str, Judge],
    rule: str = RULE_KF,
) -> AggregateResult:
    """Inverse-variance fusion of the eligible forecasts.

    The estimate is the weighted sum of the forecasts with the reported
    weights, proportional to 1 / ((1 - p) p) for the estimated
    reliabilities; it equals the recursive fold of ``fusion.fuse_sequence``.
    Forecasters at p = 1 share the whole weight equally, whatever their
    forecasts. Equal reliabilities reduce this to the equal-weight mean.
    """
    members, values = _members(slice_)
    noise = {j: judge.noise for j in members if (judge := p_hats.get(j)) is not None}
    return _result(rule, members, _inverse_variance_weights(_noises(members, noise), values))


def slice_contribution_terms(slice_: SurveySlice, realized: float) -> dict[str, float]:
    """Leave-one-out terms for one realized survey.

    For each eligible forecaster j, the term is the squared error of the
    eligible equal-weight mean without j minus the squared error with j, so
    a positive term means j moved the crowd toward the realization. A survey
    with fewer than two eligible forecasters yields no terms (leave-one-out
    is undefined).
    """
    members = sorted(slice_.eligible)
    values = [slice_.forecasts[j] for j in members]
    return dict(zip(members, _loo_terms(values, realized)))


def fold_contributions(
    contributions: MutableMapping[str, float],
    counts: MutableMapping[str, int],
    slice_: SurveySlice,
    realized: float,
) -> None:
    """:func:`fold_survey` over a slice's eligible forecasters."""
    members = sorted(slice_.eligible)
    fold_survey(contributions, counts, members, [slice_.forecasts[j] for j in members], realized)


def positive_contribution_subset(
    slice_: SurveySlice, contributions: Mapping[str, float]
) -> list[str]:
    members = sorted(slice_.eligible)
    return [members[i] for i in _positive(members, contributions)]


def cwm(slice_: SurveySlice, contributions: Mapping[str, float]) -> AggregateResult:
    """Contribution-weighted mean over the positive-contribution subset.

    Weights are the normalized positive contribution scores. When nobody
    has a positive score the rule degrades to equal weights over the
    eligible set, keeping the backtest total.
    """
    members, values = _members(slice_)
    keep = _positive(members, contributions)
    if not keep:
        return _result(RULE_CWM, members, _equal_weights(values))
    subset = [members[i] for i in keep]
    scores = [contributions[j] for j in subset]
    return _result(RULE_CWM, subset, _contribution_weights(scores, [values[i] for i in keep]))


def kf_plus(
    slice_: SurveySlice,
    p_hats: Mapping[str, Judge],
    contributions: Mapping[str, float],
) -> AggregateResult:
    """Inverse-variance fusion restricted to the positive-contribution subset.

    Same membership as :func:`cwm`, same equal-weight fallback, but the
    weights within the subset come from the estimated reliabilities.
    """
    members, values = _members(slice_)
    keep = _positive(members, contributions)
    if not keep:
        return _result(RULE_KFPLUS, members, _equal_weights(values))
    subset = frozenset(members[i] for i in keep)
    return kf_crowd(SurveySlice(slice_.survey_id, slice_.forecasts, subset), p_hats, rule=RULE_KFPLUS)


def rank_by_reliability(
    ids: Iterable[str], p_hats: Mapping[str, Judge], mse: Mapping[str, float]
) -> list[str]:
    """Forecasters from the most to the least reliable.

    Ties in the estimated reliability break toward lower current MSE, then
    lexicographic id, so the top n of the list is deterministic.
    """
    return sorted(ids, key=lambda j: (-p_hats[j].p, mse[j], j))
