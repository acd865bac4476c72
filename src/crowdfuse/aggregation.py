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
forecaster appears once they have at least one term. The rules only read
them, so one survey's aggregation is a pure function of its inputs;
:func:`fold_contributions` updates the contribution means in place, and
:func:`rank_by_reliability` orders forecasters for the top-n
smaller-wiser-crowd runs.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        total = sum(self.weights[j] for j in self.contributors)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total!r}, expected 1")


def ewm(slice_: SurveySlice) -> AggregateResult:
    """Equal-weight mean over the eligible forecasters."""
    members = sorted(slice_.eligible)
    if not members:
        raise NoEligibleForecastersError(f"survey {slice_.survey_id}: nobody eligible")
    estimate = sum(slice_.forecasts[j] for j in members) / len(members)
    w = 1.0 / len(members)
    return AggregateResult(
        rule=RULE_EWM,
        estimate=estimate,
        contributors=frozenset(members),
        weights={j: w for j in members},
    )


def _inverse_variance_weights(members: Sequence[str], p_hats: Mapping[str, Judge]) -> dict[str, float]:
    noises = {j: p_hats[j].noise for j in members}
    perfect = [j for j in members if noises[j] == 0.0]
    if perfect:
        w = 1.0 / len(perfect)
        return {j: (w if j in perfect else 0.0) for j in members}
    inv = {j: 1.0 / noises[j] for j in members}
    total = sum(inv[j] for j in members)
    return {j: inv[j] / total for j in members}


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
    members = sorted(slice_.eligible)
    if not members:
        raise NoEligibleForecastersError(f"survey {slice_.survey_id}: nobody eligible")
    for j in members:
        if p_hats.get(j) is None:
            raise ValueError(f"forecaster {j} has no reliability estimate")
    weights = _inverse_variance_weights(members, p_hats)
    return AggregateResult(
        rule=rule,
        estimate=sum(weights[j] * slice_.forecasts[j] for j in members),
        contributors=frozenset(members),
        weights=weights,
    )


def slice_contribution_terms(slice_: SurveySlice, realized: float) -> dict[str, float]:
    """Leave-one-out terms for one realized survey.

    For each eligible forecaster j, the term is the squared error of the
    eligible equal-weight mean without j minus the squared error with j, so
    a positive term means j moved the crowd toward the realization. A survey
    with fewer than two eligible forecasters yields no terms (leave-one-out
    is undefined).
    """
    members = sorted(slice_.eligible)
    if len(members) < 2:
        return {}
    values = [slice_.forecasts[j] for j in members]
    total = sum(values)
    n = len(values)
    mean_all = total / n
    err_all = (mean_all - realized) ** 2
    terms: dict[str, float] = {}
    for j, x in zip(members, values):
        mean_without = (total - x) / (n - 1)
        terms[j] = (mean_without - realized) ** 2 - err_all
    return terms


def fold_contributions(
    contributions: MutableMapping[str, float],
    counts: MutableMapping[str, int],
    slice_: SurveySlice,
    realized: float,
) -> None:
    """Fold one realized survey's leave-one-out terms into the running means.

    ``contributions`` holds each forecaster's mean term over the
    ``counts[j]`` surveys that gave them one; both are updated in place.
    """
    for j, term in slice_contribution_terms(slice_, realized).items():
        count = counts.get(j, 0) + 1
        mean = contributions.get(j, 0.0)
        contributions[j] = mean + (term - mean) / count
        counts[j] = count


def positive_contribution_subset(
    slice_: SurveySlice, contributions: Mapping[str, float]
) -> list[str]:
    return [j for j in sorted(slice_.eligible) if contributions.get(j, 0.0) > 0.0]


def cwm(slice_: SurveySlice, contributions: Mapping[str, float]) -> AggregateResult:
    """Contribution-weighted mean over the positive-contribution subset.

    Weights are the normalized positive contribution scores. When nobody
    has a positive score the rule degrades to equal weights over the
    eligible set, keeping the backtest total.
    """
    if not slice_.eligible:
        raise NoEligibleForecastersError(f"survey {slice_.survey_id}: nobody eligible")
    subset = positive_contribution_subset(slice_, contributions)
    if not subset:
        fallback = ewm(slice_)
        return AggregateResult(
            rule=RULE_CWM,
            estimate=fallback.estimate,
            contributors=fallback.contributors,
            weights=fallback.weights,
        )
    total = sum(contributions[j] for j in subset)
    weights = {j: contributions[j] / total for j in subset}
    estimate = sum(weights[j] * slice_.forecasts[j] for j in subset)
    return AggregateResult(
        rule=RULE_CWM,
        estimate=estimate,
        contributors=frozenset(subset),
        weights=weights,
    )


def kf_plus(
    slice_: SurveySlice,
    p_hats: Mapping[str, Judge],
    contributions: Mapping[str, float],
) -> AggregateResult:
    """Inverse-variance fusion restricted to the positive-contribution subset.

    Same membership as :func:`cwm`, same equal-weight fallback, but the
    weights within the subset come from the estimated reliabilities.
    """
    if not slice_.eligible:
        raise NoEligibleForecastersError(f"survey {slice_.survey_id}: nobody eligible")
    subset = positive_contribution_subset(slice_, contributions)
    if not subset:
        fallback = ewm(slice_)
        return AggregateResult(
            rule=RULE_KFPLUS,
            estimate=fallback.estimate,
            contributors=fallback.contributors,
            weights=fallback.weights,
        )
    restricted = SurveySlice(
        survey_id=slice_.survey_id,
        forecasts=slice_.forecasts,
        eligible=frozenset(subset),
    )
    return kf_crowd(restricted, p_hats, rule=RULE_KFPLUS)


def rank_by_reliability(
    ids: Iterable[str], p_hats: Mapping[str, Judge], mse: Mapping[str, float]
) -> list[str]:
    """Forecasters from the most to the least reliable.

    Ties in the estimated reliability break toward lower current MSE, then
    lexicographic id, so the top n of the list is deterministic.
    """
    return sorted(ids, key=lambda j: (-p_hats[j].p, mse[j], j))
