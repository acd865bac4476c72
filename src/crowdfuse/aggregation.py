"""Crowd aggregation rules over rows of survey members.

Four ways to turn one survey's forecasts into a point estimate, in the
order of ``ALL_RULES``:

* EWM: the plain mean of the eligible forecasts.
* KF: inverse-variance fusion, each forecast weighted by 1 / min(MSE, v^2)
  for the MSE of the forecaster's past errors and the evidence unit v.
  Members at MSE 0 share the whole weight equally, whatever their forecasts.
  The estimate equals the recursive fold of ``fusion.fuse_sequence`` wherever
  that fold is defined; it is not where members at MSE 0 disagree, and the
  fold raises ``DegenerateFusionError``.
* CWM: a mean over the members whose running mean leave-one-out
  contribution is strictly positive, weighted by those contributions.
* KFplus: the KF weights within the CWM subset.

When no member has a positive contribution, CWM and KFplus fall back to
the equal-weight mean. A member's leave-one-out term for a realized
survey is the squared error of the equal-weight mean without them minus
the squared error with them, so a positive term means they moved the
crowd toward the realization; a survey with fewer than two members gives
no terms.

The kernels work on rows. A row is one member set of one survey; the
backtest makes one row per (horizon, eligible-set limit) of a survey.
Arrays are member-major: forecasters along the first axis, in sorted-id
order, and rows along the others, in any shape (the backtest's are
(survey, horizon) pairs by limits), with a boolean mask marking each
row's members. :func:`member_forecasts` masks the forecasts to each row's
members and sums them into the rows' EWM numerators, once for both of
their users:
:func:`rule_estimates` returns every row's four estimates and its CWM
fallback flag from them, and :func:`contribution_terms` gives realized
rows' leave-one-out terms, entry by entry, for the backtest to fold into
its running means; and
:func:`rank_by_reliability` ranks forecasters by MSE for the top-n
smaller-wiser-crowd runs. Each weight formula lives once, in a private
helper; every row's member count is checked against its mask, and every
weighted rule's weights are checked to sum to one on every row.

The results are exactly those of a straight-line loop over each row's
members: every sum runs over the member axis in ``_member_sums``, member
by member from the lowest id, in which non-members add exact zeros (the
order in which Python's ``sum()`` adds), and every square is written
``d * d``. numpy's ``np.add.reduce(axis=0)`` adds that way only when the
operand is C-contiguous and each member holds more than one entry; over
a fast (Fortran-ordered) axis, or over a single entry per member, it sums
pairwise from eight terms on. ``_member_sums`` keeps to the first case
and uses ``np.add.accumulate`` for the second.
"""

from __future__ import annotations

import numpy as np

RULE_EWM = "EWM"
RULE_KF = "KF"
RULE_CWM = "CWM"
RULE_KFPLUS = "KFplus"
ALL_RULES = (RULE_EWM, RULE_KF, RULE_CWM, RULE_KFPLUS)


class NoEligibleForecastersError(ValueError):
    """A row has no eligible forecaster to aggregate."""


def _member_sums(a: np.ndarray) -> np.ndarray:
    """Each row's sum over the member (first) axis, added member by member, left to right."""
    if a.size == a.shape[0]:  # one entry per member: reduce would sum pairwise
        return np.add.accumulate(a, axis=0)[-1]
    return np.add.reduce(np.ascontiguousarray(a), axis=0)


def _normalize(a: np.ndarray) -> np.ndarray:
    """``a``, nonnegative, over each row's total, in place; a row of zeros stays zero."""
    totals = _member_sums(a)
    a /= np.where(totals != 0.0, totals, 1.0)
    return a


def _inverse_variance_weights(noise: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Weights proportional to 1 / noise on each row's members.

    In a row with members at zero noise (MSE 0), those members share the
    whole weight equally. ``mask`` may stack several member sets over the
    same rows (members x sets x rows), with ``noise`` broadcast to it.
    """
    perfect = mask & (noise == 0.0)
    inverse = np.divide(1.0, noise, out=np.zeros(noise.shape), where=noise != 0.0)
    weights = _normalize(np.where(mask, inverse, 0.0))
    if perfect.any():
        n_perfect = perfect.sum(axis=0)
        shared = n_perfect > 0
        weights[:, shared] = np.where(perfect[:, shared], 1.0 / n_perfect[shared], 0.0)
    return weights


def _contribution_weights(scores: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Weights proportional to the positive contribution scores of the kept members."""
    return _normalize(np.where(keep, scores, 0.0))


def member_forecasts(V: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's forecasts on its members and 0 elsewhere, and their sums, the EWM numerators.

    ``V`` holds the forecasts and ``M`` marks each row's members, members
    x rows; ``V`` broadcasts to ``M``'s shape.
    """
    X = np.where(M, V, 0.0)
    return X, _member_sums(X)


def rule_estimates(
    X: np.ndarray, totals: np.ndarray, U: np.ndarray, C: np.ndarray, M: np.ndarray,
    n: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The EWM, KF, CWM and KFplus estimates of every row.

    ``X`` holds the forecasts on each row's members and 0 elsewhere, and
    ``totals`` their sums, as :func:`member_forecasts` gives them; ``U``
    holds each forecaster's noise, min(MSE, v^2) in the backtest (0 only
    for a perfect forecaster), and ``C`` their mean leave-one-out term;
    ``M`` marks each row's members, members x rows, ``U`` and ``C``
    broadcast to its shape, and ``n`` counts them, one per row. Entries of
    ``U`` and ``C`` outside ``M`` are never read, so they may hold anything.

    Returns the estimates (rows x 4, in the order of ``ALL_RULES``) and the
    CWM fallback flags (true where no member has a positive contribution,
    so that CWM and KFplus fall back to the equal-weight mean). Every
    row's ``n`` is checked against its mask, and the other rules' weights
    are checked to sum to one, on every row where the rule weighs.
    """
    if not (n > 0).all():
        raise NoEligibleForecastersError("nobody eligible")
    counted = np.count_nonzero(M, axis=0)
    if (counted != n).any():
        row = np.flatnonzero(counted != n)[0]  # in the rows' flat order
        raise ValueError(f"row {row} has {counted.flat[row]} members, but n counts {n.flat[row]}")
    invalid = M & ~(U >= 0.0)  # true for NaN, the noise of a forecaster without an estimate
    if invalid.any():
        noise = float(np.broadcast_to(U, M.shape)[invalid][0])
        raise ValueError(f"a member has no reliability estimate: noise {noise!r}")
    keep = M & (C > 0.0)
    fallback = ~keep.any(axis=0)
    fused = _inverse_variance_weights(U[:, None], np.stack((M, keep), axis=1))  # KF, KFplus
    scored = _contribution_weights(C, keep)
    sums = np.stack((*_member_sums(fused), _member_sums(scored)))
    off = np.abs(sums - 1.0) > 1e-9
    off[1:, fallback] = False  # KFplus and CWM weigh nothing where they fall back
    if off.any():
        raise ValueError(f"weights sum to {float(sums[off][0])!r}, expected 1")
    ew = totals / n
    fused *= X[:, None]  # the weighted forecasts, in place of the weights
    scored *= X
    kf, kp = _member_sums(fused)
    cw = _member_sums(scored)
    estimates = np.stack((ew, kf, np.where(fallback, ew, cw), np.where(fallback, ew, kp)), axis=-1)
    return estimates, fallback


def contribution_terms(
    values: np.ndarray, totals: np.ndarray, n: np.ndarray, realized: np.ndarray
) -> np.ndarray:
    """Each member entry's leave-one-out term for a realized row.

    The arrays align entry by entry: a member's forecast, their row's EWM
    numerator (as :func:`member_forecasts` gives it) and member count (at
    least two), and the row's realization. The term is the squared error of
    the row's mean without the member minus that of the mean with them.
    """
    d_all = totals / n - realized
    d = (totals - values) / (n - 1) - realized
    return d * d - d_all * d_all


def rank_by_reliability(groups: np.ndarray, ids: np.ndarray, mse: np.ndarray) -> np.ndarray:
    """Each entry's rank within its group, from the most reliable (0) down.

    ``groups`` labels each entry's group (in the backtest, its (survey,
    horizon)), ``mse`` its current MSE, and ``ids`` must order a group's
    entries as their forecasters' ids do, as the backtest's (horizon,
    forecaster) cells do. Entries rank by MSE, lowest first, then by the
    lower id, so the top n of each group is deterministic; p does not
    increase with the MSE, so this is also the order of descending p.
    """
    if np.isnan(mse).any():
        raise ValueError("a forecaster without a reliability estimate cannot be ranked")
    order = np.lexsort((ids, mse, groups))
    ordered = groups[order]
    ranks = np.empty(len(order), dtype=np.intp)
    ranks[order] = np.arange(len(order)) - np.searchsorted(ordered, ordered)
    return ranks
