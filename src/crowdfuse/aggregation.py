"""Crowd aggregation rules over rows of survey members.

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

The kernels work on rows. A row is one member set of one survey; the
backtest makes one row per (horizon, eligible-set limit) of a survey.
Arrays are rows x columns, the columns are forecasters in sorted-id order,
and a boolean mask marks each row's members. :func:`rule_estimates`
returns every row's four estimates, its CWM fallback flag and its EWM
numerator; :func:`fold_survey` folds realized rows' leave-one-out terms
into the running contribution means, reusing those numerators; and
:func:`rank_by_reliability` ranks forecasters for the top-n
smaller-wiser-crowd runs. Each weight formula lives once, in a private
helper, and every rule's weights are checked to sum to one on every row.

The results are exactly those of a straight-line loop over each row's
members: every sum is a left-to-right ``np.add.accumulate`` along the
member axis, in which non-members add exact zeros (the order in which
Python's ``sum()`` adds), and every square is written ``d * d``.
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


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right along the member (last) axis."""
    return np.add.accumulate(a, axis=-1)[..., -1]


def _divide_rows(a: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``a`` over each row's total; a row whose total is zero stays zero."""
    return np.divide(a, totals[..., None], out=np.zeros(a.shape), where=totals[..., None] != 0.0)


def _equal_weights(mask: np.ndarray, n: np.ndarray) -> np.ndarray:
    """1 / n on each row's members."""
    return np.where(mask, (1.0 / n)[:, None], 0.0)


def _inverse_variance_weights(noise: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Weights proportional to 1 / noise on each row's members.

    In a row with members at zero noise (p = 1), those members share the
    whole weight equally. ``mask`` may stack several member sets over the
    same rows (sets x rows x columns).
    """
    perfect = mask & (noise == 0.0)
    inverse = np.divide(1.0, noise, out=np.zeros(mask.shape), where=mask & ~perfect)
    weights = _divide_rows(inverse, _row_sums(inverse))
    n_perfect = perfect.sum(axis=-1)
    shared = n_perfect > 0
    if shared.any():
        weights[shared] = np.where(perfect[shared], (1.0 / n_perfect[shared])[:, None], 0.0)
    return weights


def _contribution_weights(scores: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Weights proportional to the positive contribution scores of the kept members."""
    kept = np.where(keep, scores, 0.0)
    return _divide_rows(kept, _row_sums(kept))


def rule_estimates(
    V: np.ndarray, U: np.ndarray, C: np.ndarray, M: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The EWM, KF, CWM and KFplus estimates of every row.

    ``V`` holds the forecasts, ``U`` each forecaster's noise (1 - p) p of
    their estimated reliability and ``C`` their mean leave-one-out term,
    all rows x columns; ``M`` marks each row's members and ``n`` counts
    them. Entries outside ``M`` are never read, so they may hold anything.

    Returns the estimates (rows x 4, in the order of ``ALL_RULES``), the
    CWM fallback flags (true where no member has a positive contribution,
    so that CWM and KFplus fall back to the equal-weight mean) and the EWM
    numerators, the sums of each row's forecasts. Every rule's weights are
    checked to sum to one, on every row where the rule weighs.
    """
    if not (n > 0).all():
        raise NoEligibleForecastersError("nobody eligible")
    noises = U[M]
    valid = noises >= 0.0  # false for NaN, the noise of a forecaster without an estimate
    if not valid.all():
        raise ValueError(
            f"a member has no reliability estimate: noise {float(noises[~valid][0])!r}"
        )
    X = np.where(M, V, 0.0)
    totals = _row_sums(X)
    keep = M & (C > 0.0)
    fallback = ~keep.any(axis=1)
    kf_weights, kp_weights = _inverse_variance_weights(U, np.stack((M, keep)))
    weights = np.stack(
        (_equal_weights(M, n), kf_weights, _contribution_weights(C, keep), kp_weights)
    )
    sums = _row_sums(weights)
    off = np.abs(sums - 1.0) > 1e-9
    off[2:, fallback] = False  # CWM and KFplus weigh nothing where they fall back
    if off.any():
        raise ValueError(f"weights sum to {float(sums[off][0])!r}, expected 1")
    ew = totals / n
    kf, cw, kp = _row_sums(weights[1:] * X)
    estimates = np.stack((ew, kf, np.where(fallback, ew, cw), np.where(fallback, ew, kp)), axis=1)
    return estimates, fallback, totals


def fold_survey(
    C: np.ndarray,
    K: np.ndarray,
    V: np.ndarray,
    M: np.ndarray,
    totals: np.ndarray,
    n: np.ndarray,
    realized: np.ndarray,
) -> None:
    """Fold realized rows' leave-one-out terms into the running means, in place.

    Each row is one realized survey's member set: ``M`` marks the members
    and ``V`` holds their forecasts (rows x columns); ``totals`` and ``n``
    are the row's EWM numerator and member count, as
    :func:`rule_estimates` gave them, and ``realized`` its realization.
    ``C`` holds each member's mean term over the ``K`` surveys that gave
    them one; a row with fewer than two members gives no terms.
    """
    fold = M & (n >= 2)[:, None]
    d_all = totals / n - realized
    err_all = d_all * d_all
    d = (totals[:, None] - V) / np.maximum(n - 1, 1)[:, None] - realized[:, None]
    terms = d * d - err_all[:, None]
    K += fold
    C[fold] += (terms[fold] - C[fold]) / K[fold]


def rank_by_reliability(
    groups: np.ndarray, ids: np.ndarray, p_hats: np.ndarray, mse: np.ndarray
) -> np.ndarray:
    """Each entry's rank within its group, from the most reliable (0) down.

    ``groups`` labels each entry's group (in the backtest, its horizon),
    ``ids`` its forecaster's position in sorted-id order, ``p_hats`` its
    estimated reliability p and ``mse`` its current MSE. Ties in p break
    toward lower MSE, then the lower id, so the top n of each group is
    deterministic.
    """
    if np.isnan(p_hats).any() or np.isnan(mse).any():
        raise ValueError("a forecaster without a reliability estimate cannot be ranked")
    order = np.lexsort((ids, mse, -p_hats, groups))
    ordered = groups[order]
    ranks = np.empty(len(order), dtype=np.intp)
    ranks[order] = np.arange(len(order)) - np.searchsorted(ordered, ordered)
    return ranks
