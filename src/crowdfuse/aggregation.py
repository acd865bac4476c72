"""Crowd aggregation rules over a single survey.

Five ways to turn one survey's forecasts into a point estimate:

* ``ewm``: the plain mean of eligible forecasts.
* ``kf_crowd``: inverse-variance fusion, with each forecaster's variance
  implied by the reliability estimated from their past errors.
* ``cwm``: a weighted mean over forecasters whose past leave-one-out
  contribution to the crowd is positive, weights proportional to those
  contributions.
* ``kf_plus``: the fusion rule applied within the positive-contribution
  subset.
* ``top_n_subset``: picks the n most reliable forecasters, for the
  smaller-wiser-crowd sweeps.

Forecaster bookkeeping (error history, estimated reliability, contribution
score) lives in immutable ``ForecasterState`` values; updates return new
states, so one survey's aggregation is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .quincunx import Judge, p_from_mse

RULE_EWM = "EWM"
RULE_KF = "KF"
RULE_CWM = "CWM"
RULE_KFPLUS = "KFplus"
ALL_RULES = (RULE_EWM, RULE_KF, RULE_CWM, RULE_KFPLUS)


class NoEligibleForecastersError(ValueError):
    """The survey has no eligible forecaster to aggregate."""


@dataclass(frozen=True)
class ForecasterState:
    """Rolling performance record for one forecaster on one variable-horizon stream.

    ``contribution`` is the running mean of the forecaster's leave-one-out
    improvements of the crowd's squared error (positive means the crowd was
    better off with them in it), over ``contribution_count`` surveys.
    """

    forecaster_id: str
    squared_errors: tuple[float, ...] = ()
    mse: float = math.nan
    p_hat: Judge | None = None
    contribution: float = 0.0
    contribution_count: int = 0


def update_state(
    state: ForecasterState,
    squared_error: float,
    calib: tuple[int, float],
    window: int | None = None,
) -> ForecasterState:
    """Append one realized squared error and refresh the reliability estimate.

    The MSE is recomputed over the full history by default; ``window``
    restricts it to the most recent errors. ``calib`` is the (element count,
    evidence unit) pair that maps MSE onto reliability.
    """
    if squared_error < 0.0:
        raise ValueError(f"squared error must be nonnegative, got {squared_error!r}")
    count, unit = calib
    errors = state.squared_errors + (squared_error,)
    scored = errors if window is None else errors[-window:]
    mse = sum(scored) / len(scored)
    return replace(state, squared_errors=errors, mse=mse, p_hat=p_from_mse(mse, count, unit))


def add_contribution(state: ForecasterState, term: float) -> ForecasterState:
    """Fold one leave-one-out term into the running contribution mean."""
    count = state.contribution_count + 1
    mean = state.contribution + (term - state.contribution) / count
    return replace(state, contribution=mean, contribution_count=count)


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


def _inverse_variance_weights(members: Sequence[str], states: Mapping[str, ForecasterState]) -> dict[str, float]:
    noises = {j: states[j].p_hat.noise for j in members}
    perfect = [j for j in members if noises[j] == 0.0]
    if perfect:
        w = 1.0 / len(perfect)
        return {j: (w if j in perfect else 0.0) for j in members}
    inv = {j: 1.0 / noises[j] for j in members}
    total = sum(inv[j] for j in members)
    return {j: inv[j] / total for j in members}


def kf_crowd(
    slice_: SurveySlice,
    states: Mapping[str, ForecasterState],
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
        state = states.get(j)
        if state is None or state.p_hat is None:
            raise ValueError(f"forecaster {j} has no reliability estimate")
    weights = _inverse_variance_weights(members, states)
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


def contribution_update(
    history: Sequence[tuple[SurveySlice, float]],
    states: Mapping[str, ForecasterState],
) -> dict[str, ForecasterState]:
    """Fold the leave-one-out terms of realized surveys into the states.

    ``history`` pairs each past slice with its realized value, in survey
    order. Forecasters appearing in the history but not in ``states`` get
    fresh states.
    """
    out: dict[str, ForecasterState] = dict(states)
    for slice_, realized in history:
        for j, term in slice_contribution_terms(slice_, realized).items():
            state = out.get(j, ForecasterState(forecaster_id=j))
            out[j] = add_contribution(state, term)
    return out


def positive_contribution_subset(
    slice_: SurveySlice, states: Mapping[str, ForecasterState]
) -> list[str]:
    subset = []
    for j in sorted(slice_.eligible):
        state = states.get(j)
        if state is not None and state.contribution_count > 0 and state.contribution > 0.0:
            subset.append(j)
    return subset


def cwm(slice_: SurveySlice, states: Mapping[str, ForecasterState]) -> AggregateResult:
    """Contribution-weighted mean over the positive-contribution subset.

    Weights are the normalized positive contribution scores. When nobody
    has a positive score the rule degrades to equal weights over the
    eligible set, keeping the backtest total.
    """
    if not slice_.eligible:
        raise NoEligibleForecastersError(f"survey {slice_.survey_id}: nobody eligible")
    subset = positive_contribution_subset(slice_, states)
    if not subset:
        fallback = ewm(slice_)
        return AggregateResult(
            rule=RULE_CWM,
            estimate=fallback.estimate,
            contributors=fallback.contributors,
            weights=fallback.weights,
        )
    total = sum(states[j].contribution for j in subset)
    weights = {j: states[j].contribution / total for j in subset}
    estimate = sum(weights[j] * slice_.forecasts[j] for j in subset)
    return AggregateResult(
        rule=RULE_CWM,
        estimate=estimate,
        contributors=frozenset(subset),
        weights=weights,
    )


def kf_plus(slice_: SurveySlice, states: Mapping[str, ForecasterState]) -> AggregateResult:
    """Inverse-variance fusion restricted to the positive-contribution subset.

    Same membership as :func:`cwm`, same equal-weight fallback, but the
    weights within the subset come from the estimated reliabilities.
    """
    if not slice_.eligible:
        raise NoEligibleForecastersError(f"survey {slice_.survey_id}: nobody eligible")
    subset = positive_contribution_subset(slice_, states)
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
    return kf_crowd(restricted, states, rule=RULE_KFPLUS)


def top_n_subset(states: Mapping[str, ForecasterState], n: int) -> frozenset[str]:
    """The n forecasters with the highest estimated reliability.

    Ties break toward lower current MSE, then lexicographic id, so the
    subset is deterministic. Callers pass only the states of forecasters
    active and eligible in the current survey; if n covers them all, all
    of them are returned.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ranked = sorted(
        states.values(),
        key=lambda s: (-(s.p_hat.p if s.p_hat else 0.5), s.mse, s.forecaster_id),
    )
    return frozenset(s.forecaster_id for s in ranked[:n])
