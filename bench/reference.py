"""Reference computations the benchmark checks the program's reports against.

Written from the method's description, apart from the program: this module
imports nothing from ``crowdfuse``. It covers

* first reports (the first vintage stamped strictly after the period ends)
  and the yearly percentage change across the first-report series;
* maturation: a realization counts at a survey once both of its first
  reports are stamped by the end of that survey's quarter; a forecaster is
  eligible after two matured errors;
* the reliability estimate p = 1/2 + sqrt(V (V - MSE)) / (2 V), V = v^2,
  under the count-1 calibration (v is the largest deviation of the
  first-report series from its mean), clamped at 1/2;
* EWM; CWM with its equal-weight fallback; KF with weights proportional to
  1 / ((1 - p) p), where members at p = 1 share the weight equally; KF+;
* top-n ranking by (-p, MSE, id) and the Diebold-Mariano statistic;
* the n = 2 expected gaps, by quadrature over the ratio of the two sample
  variances.

Sums over a survey's members run in id order, and the MSE sums errors in
the order they matured. A leave-one-out term that is zero in exact
arithmetic then gets the same rounding, hence the same sign, as in a
straightforward implementation of the method; its sign decides CWM
membership.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

RULES = ("EWM", "KF", "CWM", "KFplus")
UNTRANSFORMED = frozenset({"UNEMP"})
MIN_DM_LENGTH = 8


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def quarter_index(text: str) -> int:
    year, quarter = text.split("Q")
    return int(year) * 4 + int(quarter) - 1


def end_month(index: int) -> tuple[int, int]:
    return index // 4, (index % 4 + 1) * 3


def stamp_month(text: str) -> tuple[int, int]:
    if "Q" in text:
        year, quarter = text.split("Q")
        return int(year), 3 * int(quarter)
    year, month = text.split("-")[:2]
    return int(year), int(month)


def first_reports(rows) -> dict[int, tuple[tuple[int, int], float]]:
    """Per period: (stamp month, value) of the earliest stamp after the period ends."""
    best: dict[int, tuple[tuple[int, int], float]] = {}
    for stamp, period, value in rows:
        key = stamp_month(stamp)
        if key <= end_month(period):
            continue
        if period not in best or key < best[period][0]:
            best[period] = (key, value)
    return best


@dataclass
class PanelData:
    """One variable's panel as read from the three CSV files."""

    variable: str
    surveys: list[int]
    forecasts: dict[tuple[int, int], dict[str, float]]
    reports: dict[int, tuple[tuple[int, int], float]]
    unit: float
    horizons: list[int]

    def realized(self, target: int, known_by: tuple[int, int] | None = None) -> float | None:
        def level(period: int) -> float | None:
            entry = self.reports.get(period)
            if entry is None or (known_by is not None and entry[0] > known_by):
                return None
            return entry[1]

        if self.variable in UNTRANSFORMED:
            return level(target)
        x, base = level(target), level(target - 4)
        if x is None or base is None or base == 0.0:
            return None
        return 100.0 * (x / base - 1.0)


def _read(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [r for r in rows[1:] if r]


def load(directory: str) -> PanelData:
    """Read ``forecasts.csv``, ``realizations.csv`` and ``vintages.csv`` of one variable."""
    forecasts: dict[tuple[int, int], dict[str, float]] = {}
    variables = set()
    for survey, variable, horizon, fid, value in _read(f"{directory}/forecasts.csv"):
        variables.add(variable)
        forecasts.setdefault((quarter_index(survey), int(horizon)), {})[fid] = float(value)
    if len(variables) != 1:
        raise ValueError(f"{directory}: expected one variable, got {sorted(variables)}")
    variable = variables.pop()
    reports = first_reports(
        (stamp, quarter_index(target), float(value))
        for target, _, value, stamp in _read(f"{directory}/realizations.csv")
    )
    calib = first_reports(
        (stamp, quarter_index(period), float(level))
        for stamp, _, period, level in _read(f"{directory}/vintages.csv")
    )
    series = []
    for period in sorted(calib):
        if variable in UNTRANSFORMED:
            series.append(calib[period][1])
        elif period - 4 in calib and calib[period - 4][1] != 0.0:
            series.append(100.0 * (calib[period][1] / calib[period - 4][1] - 1.0))
    norm = sum(series) / len(series)
    unit = max(abs(x - norm) for x in series)
    return PanelData(
        variable=variable,
        surveys=sorted({s for s, _ in forecasts}),
        forecasts=forecasts,
        reports=reports,
        unit=unit,
        horizons=sorted({h for _, h in forecasts}),
    )


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def p_from_mse(mse: float, unit: float) -> float:
    cap = unit * unit
    if mse >= cap:
        return 0.5
    return min(0.5 + math.sqrt(cap * (cap - mse)) / (2.0 * cap), 1.0)


def equal_weight(members: list[str], fc: dict[str, float]) -> float:
    return sum(fc[j] for j in members) / len(members)


def kalman(members: list[str], fc: dict[str, float], p: dict[str, float]) -> float:
    noise = {j: (1.0 - p[j]) * p[j] for j in members}
    perfect = [j for j in members if noise[j] == 0.0]
    if perfect:
        return equal_weight(perfect, fc)
    inv = {j: 1.0 / noise[j] for j in members}
    total = sum(inv[j] for j in members)
    return sum(inv[j] / total * fc[j] for j in members)


def estimates(members, fc, p, contrib) -> tuple[dict[str, float], bool]:
    """Every rule's estimate, and whether CWM fell back to equal weights."""
    positive = [j for j in members if contrib.get(j, (0.0, 0))[1] > 0 and contrib[j][0] > 0.0]
    ew = equal_weight(members, fc)
    if positive:
        total = sum(contrib[j][0] for j in positive)
        cw = sum(contrib[j][0] / total * fc[j] for j in positive)
        kfp = kalman(positive, fc, p)
    else:
        cw = kfp = ew
    return {"EWM": ew, "KF": kalman(members, fc, p), "CWM": cw, "KFplus": kfp}, not positive


def add_contributions(members, fc, realized, contrib) -> None:
    """Fold one realized survey's leave-one-out terms into the running means."""
    if len(members) < 2:
        return
    values = [fc[j] for j in members]
    total = sum(values)
    n = len(values)
    err_all = (total / n - realized) ** 2
    for j, x in zip(members, values):
        term = ((total - x) / (n - 1) - realized) ** 2 - err_all
        mean, count = contrib.get(j, (0.0, 0))
        count += 1
        contrib[j] = (mean + (term - mean) / count, count)


# ---------------------------------------------------------------------------
# Rolling backtest
# ---------------------------------------------------------------------------

@dataclass
class Trail:
    """One cell's output under one eligibility limit (None: everyone eligible)."""

    errors: dict[str, list[tuple[int, float]]] = field(
        default_factory=lambda: {rule: [] for rule in RULES}
    )
    p_hats: list[float] = field(default_factory=list)
    fallbacks: int = 0
    skipped: int = 0


def run_cell(data: PanelData, horizon: int, limits) -> tuple[dict, int]:
    """Roll one horizon through the surveys for every top-n limit in ``limits``.

    The squared-error record does not depend on the limit, so one pass
    serves all limits. Returns the trails by limit and the largest eligible
    set seen.
    """
    errors: dict[str, list[float]] = {}
    mse: dict[str, float] = {}
    p: dict[str, float] = {}
    contrib = {n: {} for n in limits}
    trails = {n: Trail() for n in limits}
    pending: list[tuple[int, dict[str, float], dict]] = []
    largest = 0
    for idx, survey in enumerate(data.surveys):
        known_by = end_month(survey)
        waiting = []
        for target, fc, members_by_limit in pending:
            realized = data.realized(target, known_by)
            if realized is None:
                waiting.append((target, fc, members_by_limit))
                continue
            for n in limits:
                add_contributions(members_by_limit[n], fc, realized, contrib[n])
            for j in sorted(fc):
                history = errors.setdefault(j, [])
                history.append((fc[j] - realized) ** 2)
                mse[j] = sum(history) / len(history)
                p[j] = p_from_mse(mse[j], data.unit)
        pending = waiting

        fc = data.forecasts.get((survey, horizon))
        if not fc:
            continue
        eligible = sorted(j for j in fc if len(errors.get(j, ())) >= 2)
        largest = max(largest, len(eligible))
        ranked = sorted(eligible, key=lambda j: (-p[j], mse[j], j))
        target = survey + horizon - 1
        realized = data.realized(target)
        members_by_limit = {}
        for n in limits:
            members = eligible if n is None else sorted(ranked[:n])
            members_by_limit[n] = members
            trail = trails[n]
            trail.p_hats.extend(p[j] for j in members)
            if not members or realized is None:
                trail.skipped += 1
                continue
            values, fell_back = estimates(members, fc, p, contrib[n])
            trail.fallbacks += fell_back
            for rule in RULES:
                trail.errors[rule].append((idx, values[rule] - realized))
        pending.append((target, fc, members_by_limit))
    return trails, largest


def rmse(series: list[tuple[int, float]]) -> float:
    if not series:
        return math.nan
    return math.sqrt(sum(e * e for _, e in series) / len(series))


def dm_test(a: list[float], b: list[float], horizon: int) -> tuple[float, float]:
    """One-sided DM test on squared-error loss, rectangular kernel to lag h - 1."""
    t = len(a)
    d = [x * x - y * y for x, y in zip(a, b)]
    dbar = math.fsum(d) / t
    dc = [x - dbar for x in d]
    gamma0 = math.fsum(x * x for x in dc) / t
    lrv = gamma0
    for lag in range(1, min(horizon, t)):
        lrv += 2.0 * math.fsum(dc[i] * dc[i - lag] for i in range(lag, t)) / t
    if lrv <= 0.0:
        lrv = gamma0
    if lrv == 0.0:
        return 0.0, 0.5
    stat = dbar / math.sqrt(lrv / t)
    return stat, 0.5 * math.erfc(-stat / math.sqrt(2.0))


@dataclass
class BacktestResult:
    rmse: dict[tuple[int, str], tuple[float, int]]
    dm: dict[tuple[int, str], tuple[float, float]]
    diagnostics: dict[int, tuple[float, int, int]]
    largest_eligible: dict[int, int]


def _summarize(trail: Trail, horizon: int, result: BacktestResult) -> None:
    for rule in RULES:
        series = trail.errors[rule]
        result.rmse[(horizon, rule)] = (rmse(series), len(series))
    base = dict(trail.errors["CWM"])
    for rule in RULES:
        if rule == "CWM":
            continue
        own = dict(trail.errors[rule])
        shared = [i for i, _ in trail.errors[rule] if i in base]
        if len(shared) >= MIN_DM_LENGTH:
            result.dm[(horizon, rule)] = dm_test(
                [own[i] for i in shared], [base[i] for i in shared], horizon
            )
    median = statistics.median(trail.p_hats) if trail.p_hats else math.nan
    result.diagnostics[horizon] = (median, trail.fallbacks, trail.skipped)


def backtest(data: PanelData) -> BacktestResult:
    result = BacktestResult({}, {}, {}, {})
    for h in data.horizons:
        trails, largest = run_cell(data, h, [None])
        result.largest_eligible[h] = largest
        _summarize(trails[None], h, result)
    return result


def sweep(data: PanelData, sizes, plain: BacktestResult) -> dict[tuple[int, str, int], float]:
    """RMSE per (horizon, rule, n); limits at or above the largest eligible set reuse ``plain``."""
    out = {}
    for h in data.horizons:
        largest = plain.largest_eligible[h]
        limits = sorted({n for n in sizes if n < largest})
        trails, _ = run_cell(data, h, limits) if limits else ({}, largest)
        for n in sizes:
            for rule in RULES:
                if n < largest:
                    series = trails[n].errors[rule]
                    value = rmse(series) if series else None
                else:
                    value, count = plain.rmse[(h, rule)]
                    value = value if count else None
                if value is not None:
                    out[(h, rule, n)] = value
    return out


# ---------------------------------------------------------------------------
# Expected gaps
# ---------------------------------------------------------------------------

GAP_KINDS = ("kfu-kfc", "ew-kfu", "sr-kfu")


def expected_gap(kind: str, a: np.ndarray, b: np.ndarray, nodes: int = 4096) -> np.ndarray:
    """E[gap] for weights estimated from two observations per source.

    Each sample variance is its true variance times chi2_1 / 2, so their
    ratio s1 / s2 is (a / b) tan^2(theta) with theta uniform on (0, pi),
    and the estimated weight s2 / (s1 + s2) is
    cos^2 / (cos^2 + (a / b) sin^2). The integrand is smooth and periodic
    in theta, so the midpoint rule converges geometrically.
    """
    theta = (np.arange(nodes) + 0.5) * (math.pi / nodes)
    c2 = np.cos(theta) ** 2
    s2 = 1.0 - c2
    a = np.asarray(a, dtype=np.float64)[..., None]
    b = np.asarray(b, dtype=np.float64)[..., None]
    w = c2 / (c2 + (a / b) * s2)
    fused = (a * w**2 + b * (1.0 - w) ** 2).mean(axis=-1)
    a, b = a[..., 0], b[..., 0]
    if kind == "kfu-kfc":
        w_star = b / (a + b)
        return fused - (a * w_star**2 + b * (1.0 - w_star) ** 2)
    if kind == "ew-kfu":
        return (a + b) / 4.0 - fused
    if kind == "sr-kfu":
        return a - fused
    raise ValueError(f"unknown gap kind {kind!r}")
