"""Checks of the program's report files against the reference and against properties.

Each check returns a list of problems; an empty list means the report passed.

Numbers are compared within ``ABS_TOL + REL_TOL * |reference|``. The panel
reports print six decimals, so ``ABS_TOL`` allows the rounding of the last
printed digit; ``REL_TOL`` allows a different summation order or fold in
the program. A change that moves a printed value by one unit in its sixth
decimal beyond that still fails.
"""

from __future__ import annotations

import csv
import math

import numpy as np

import reference as ref

ABS_TOL = 6e-7
REL_TOL = 1e-9
GAP_TOL = 1e-8       # of b, for closed-form grid cells
GAP_MC_SE = 5.0      # standard errors allowed for a Monte Carlo grid cell
GRID_P_LO, GRID_P_HI = 0.51, 0.995

RMSE_HEADER = ["variable", "horizon", "rule", "rmse", "n_surveys"]
DM_HEADER = ["variable", "horizon", "rule", "stat", "p_value"]
DIAG_HEADER = ["variable", "horizon", "median_p_hat", "cwm_fallback_surveys", "skipped_surveys"]
SWEEP_HEADER = ["horizon", "rule", "n_included", "rmse"]
GRID_HEADER = ["p1", "p2", "analytic", "mc_mean", "mc_stderr", "trials"]


class ReportError(Exception):
    """A report is missing or has the wrong header."""


def read_report(path: str, header: list[str]) -> list[list[str]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ReportError(f"{path}: {exc}") from exc
    if not rows or rows[0] != header:
        raise ReportError(f"{path}: header {rows[0] if rows else None} is not {header}")
    return rows[1:]


def close(text: str, expected: float) -> bool:
    if math.isnan(expected):
        return text == ""
    try:
        value = float(text)
    except ValueError:
        return False
    return abs(value - expected) <= ABS_TOL + REL_TOL * abs(expected)


def _rule_order(rule: str) -> int:
    return ref.RULES.index(rule)


def check_backtest(out_dir: str, data: ref.PanelData, expected: ref.BacktestResult) -> list[str]:
    """rmse.csv, dm.csv and diagnostics.csv of one backtest against the reference."""
    problems: list[str] = []
    v = data.variable
    try:
        rmse_rows = read_report(f"{out_dir}/rmse.csv", RMSE_HEADER)
        dm_rows = read_report(f"{out_dir}/dm.csv", DM_HEADER)
        diag_rows = read_report(f"{out_dir}/diagnostics.csv", DIAG_HEADER)
    except ReportError as exc:
        return [str(exc)]

    want = [(v, str(h), rule) for h in data.horizons for rule in ref.RULES]
    got = [tuple(r[:3]) for r in rmse_rows]
    if got != want:
        return [f"rmse.csv rows {got[:3]}... are not {want[:3]}..."]
    printed: dict[tuple[int, str], float] = {}
    counts: dict[int, set[str]] = {}
    for variable, h, rule, value, n in rmse_rows:
        value_ref, n_ref = expected.rmse[(int(h), rule)]
        if n != str(n_ref) or not close(value, value_ref):
            problems.append(f"rmse.csv {v} h={h} {rule}: {value},{n} != {value_ref!r},{n_ref}")
        counts.setdefault(int(h), set()).add(n)
        printed[(int(h), rule)] = float(value) if value else math.nan
    for h, seen in counts.items():
        if len(seen) != 1:
            problems.append(f"rmse.csv {v} h={h}: n_surveys differs across rules: {sorted(seen)}")

    want_dm = sorted(expected.dm, key=lambda k: (k[0], _rule_order(k[1])))
    got_dm = [(int(r[1]), r[2]) for r in dm_rows if r[0] == v]
    if got_dm != want_dm or len(dm_rows) != len(want_dm):
        return problems + [f"dm.csv rows {got_dm} are not {want_dm}"]
    for _, h, rule, stat, p_value in dm_rows:
        stat_ref, p_ref = expected.dm[(int(h), rule)]
        if not (close(stat, stat_ref) and close(p_value, p_ref)):
            problems.append(f"dm.csv {v} h={h} {rule}: {stat},{p_value} != {stat_ref!r},{p_ref!r}")
        if not 0.0 <= float(p_value) <= 1.0:
            problems.append(f"dm.csv {v} h={h} {rule}: p-value {p_value} outside [0, 1]")
        gap = printed[(int(h), rule)] ** 2 - printed[(int(h), "CWM")] ** 2
        if gap != 0.0 and float(stat) != 0.0 and (gap > 0.0) != (float(stat) > 0.0):
            problems.append(
                f"dm.csv {v} h={h} {rule}: stat {stat} has another sign than "
                f"RMSE^2({rule}) - RMSE^2(CWM) = {gap!r}"
            )

    want_diag = [(v, str(h)) for h in data.horizons]
    if [tuple(r[:2]) for r in diag_rows] != want_diag:
        return problems + [f"diagnostics.csv rows are not {want_diag}"]
    for _, h, median, fallbacks, skipped in diag_rows:
        m_ref, f_ref, s_ref = expected.diagnostics[int(h)]
        if not close(median, m_ref) or fallbacks != str(f_ref) or skipped != str(s_ref):
            problems.append(
                f"diagnostics.csv {v} h={h}: {median},{fallbacks},{skipped} != "
                f"{m_ref!r},{f_ref},{s_ref}"
            )
    return problems


def check_sweep(out_dir: str, expected: dict[tuple[int, str, int], float]) -> list[str]:
    """sweep.csv against the reference sweep.

    For every n at or above a cell's largest eligible set the reference takes
    the plain backtest's RMSE, so these rows are held to the plain backtest.
    """
    try:
        rows = read_report(f"{out_dir}/sweep.csv", SWEEP_HEADER)
    except ReportError as exc:
        return [str(exc)]
    want = sorted(expected, key=lambda k: (k[0], _rule_order(k[1]), k[2]))
    got = [(int(r[0]), r[1], int(r[2])) for r in rows]
    if got != want:
        return [f"sweep.csv rows {got[:3]}... are not {want[:3]}..."]
    problems = []
    for h, rule, n, value in rows:
        key = (int(h), rule, int(n))
        if not close(value, expected[key]):
            problems.append(f"sweep.csv h={h} {rule} n={n}: {value} != {expected[key]!r}")
    return problems


def check_grid(path: str, kind: str, resolution: int) -> tuple[list[str], float]:
    """A theory grid against the quadrature reference; also returns the closed-form share."""
    try:
        rows = read_report(path, GRID_HEADER)
    except ReportError as exc:
        return [str(exc)], math.nan
    if len(rows) != resolution * resolution:
        return [f"{path}: {len(rows)} cells, expected {resolution ** 2}"], math.nan
    axis = np.linspace(GRID_P_LO, GRID_P_HI, resolution)
    p1 = np.array([float(r[0]) for r in rows])
    p2 = np.array([float(r[1]) for r in rows])
    if not (np.allclose(p1, np.repeat(axis, resolution), rtol=0, atol=1e-12)
            and np.allclose(p2, np.tile(axis, resolution), rtol=0, atol=1e-12)):
        return [f"{path}: grid axes are not {resolution} points in [{GRID_P_LO}, {GRID_P_HI}]"], math.nan
    a = 4.0 * (1.0 - p1) * p1
    b = 4.0 * (1.0 - p2) * p2
    truth = ref.expected_gap(kind, a, b)
    problems = []
    closed = 0
    for i, (_, _, analytic, mc_mean, mc_se, trials) in enumerate(rows):
        where = f"{path} p1={rows[i][0]} p2={rows[i][1]}"
        if not analytic and not mc_mean:
            problems.append(f"{where}: no value")
        if analytic:
            closed += 1
            if not abs(float(analytic) - truth[i]) <= GAP_TOL * b[i]:
                problems.append(f"{where}: closed form {analytic} != {truth[i]!r}")
        if mc_mean:
            se = float(mc_se) if mc_se else math.nan
            if not (int(trials) > 0 and se > 0.0 and abs(float(mc_mean) - truth[i]) <= GAP_MC_SE * se):
                problems.append(
                    f"{where}: Monte Carlo {mc_mean} (se {mc_se}, {trials} trials) is not within "
                    f"{GAP_MC_SE} se of {truth[i]!r}"
                )
        if len(problems) > 20:
            break
    return problems, closed / len(rows)
