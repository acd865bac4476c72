"""Seeded generator of the benchmark's inputs: SPF-shaped panel files.

Each variable gets its own file set (``forecasts.csv``, ``realizations.csv``,
``vintages.csv``) in the schemas the ``crowdfuse`` command line reads:

* five growth series (EMP, INDPROD, NGDP, PGDP, RGDP) given as vintage
  levels, forecast as yearly percentage changes;
* UNEMP in percent, on the 0.1 grid like the forecasts, so forecasters can
  hit the first report exactly.

The roster holds ``roster`` forecasters at any time, with turnover and
skipped surveys. Horizons run 1..5. Forecasts are rounded to one decimal.
Vintage stamps mix ``YYYYQn`` and ``YYYY-MM-DD`` forms; every period has a
first release after its end (sometimes one quarter late), later revisions,
and now and then a flash estimate stamped inside the period, which the
first-report rule must ignore. Two periods, a third and two thirds of the
way through the surveys, have no release at all.

The growth series draw from ``numpy.random.SeedSequence([seed, index])``.
UNEMP draws from a fixed seed that does not depend on the benchmark seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

GROWTH_VARIABLES = ("EMP", "INDPROD", "NGDP", "PGDP", "RGDP")
VARIABLES = GROWTH_VARIABLES + ("UNEMP",)
UNEMP_SEED = 190108133
SWEEP_VARIABLE = "NGDP"

FORECAST_HEADER = "survey,variable,horizon,forecaster_id,value"
REALIZATION_HEADER = "target,variable,value,vintage"
VINTAGE_HEADER = "asof,variable,period,level"

# base level, mean yearly growth, quarterly volatility of the log growth
_GROWTH_PARAMS = {
    "EMP": (70000.0, 0.015, 0.004),
    "INDPROD": (40.0, 0.025, 0.012),
    "NGDP": (1000.0, 0.060, 0.006),
    "PGDP": (20.0, 0.035, 0.003),
    "RGDP": (4500.0, 0.028, 0.006),
}


@dataclass(frozen=True)
class Shape:
    """Size of one generated panel."""

    roster: int
    surveys: int
    history: int = 16          # quarters of data before the first survey
    horizons: int = 5
    participation: float = 0.85
    exit_prob: float = 0.03    # per survey, about 0.11 a year
    first_survey: int = 1968 * 4 + 3   # 1968Q4 as a quarter index


FULL = Shape(roster=40, surveys=200)
TOY = Shape(roster=40, surveys=30)


def period(index: int) -> str:
    return f"{index // 4:04d}Q{index % 4 + 1}"


def _month_stamp(index: int, months_after_end: int, day: int) -> str:
    """A YYYY-MM-DD stamp ``months_after_end`` months after quarter ``index`` ends."""
    month0 = index // 4 * 12 + (index % 4 + 1) * 3 - 1 + months_after_end
    return f"{month0 // 12:04d}-{month0 % 12 + 1:02d}-{day:02d}"


@dataclass
class VariableData:
    """One variable's generated files, as the lines written to disk."""

    variable: str
    forecast_lines: list[str]
    record_lines: list[tuple[str, str, str]]   # (stamp, period, level text)

    @property
    def rows(self) -> int:
        return len(self.forecast_lines)


def _levels(variable: str, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Latent levels and latent analysis-unit values for ``n`` quarters."""
    if variable == "UNEMP":
        u = np.empty(n)
        x = 5.8
        for t in range(n):
            x = min(11.0, max(3.0, x + 0.15 * (5.8 - x) + 0.25 * rng.standard_normal()))
            x = round(x, 1)
            u[t] = x
        return u, u
    base, growth, vol = _GROWTH_PARAMS[variable]
    mean = math.log1p(growth) / 4.0
    g = mean
    logs = np.empty(n)
    level = math.log(base)
    for t in range(n):
        g = mean + 0.5 * (g - mean) + vol * rng.standard_normal()
        level += g
        logs[t] = level
    levels = np.exp(logs)
    yoy = np.full(n, math.nan)
    yoy[4:] = 100.0 * (levels[4:] / levels[:-4] - 1.0)
    return levels, yoy


def _fmt_level(variable: str, x: float) -> str:
    return f"{x:.1f}" if variable == "UNEMP" else repr(round(float(x), 3))


def _records(variable: str, first: int, levels: np.ndarray, missing, rng: np.random.Generator):
    """Vintage records (stamp, period, level) for every period not in ``missing``."""
    out = []
    unemp = variable == "UNEMP"
    for t, latent in enumerate(levels):
        index = first + t
        if index in missing:
            continue
        if rng.random() < 0.05:   # flash estimate inside the period: not a first report
            flash = latent + 0.2 if unemp else latent * (1.0 + 0.004 * rng.standard_normal())
            out.append((_month_stamp(index, 0, 15), period(index), _fmt_level(variable, flash)))
        release = latent if unemp else latent * (1.0 + 0.002 * rng.standard_normal())
        kind = rng.random()
        if kind < 0.45:
            stamp = _month_stamp(index, 1, 28)
        elif kind < 0.75:
            stamp = period(index + 1)
        elif kind < 0.9:
            stamp = _month_stamp(index, 2, 3)
        else:
            stamp = period(index + 2)   # late release: matures a survey later
        out.append((stamp, period(index), _fmt_level(variable, release)))
        for lag in (4, 8):
            if unemp:
                revised = latent + (0.1 if rng.random() < 0.2 else 0.0)
            else:
                revised = latent * (1.0 + 0.0005 * rng.standard_normal())
            out.append((period(index + lag), period(index), _fmt_level(variable, revised)))
    return out


def generate_variable(variable: str, seed: int, shape: Shape) -> VariableData:
    """One variable's panel; the same (variable, seed, shape) gives the same files."""
    if variable == "UNEMP":
        rng = np.random.default_rng(UNEMP_SEED)
    else:
        rng = np.random.default_rng(np.random.SeedSequence([seed, VARIABLES.index(variable)]))
    first = shape.first_survey - shape.history
    last_survey = shape.first_survey + shape.surveys - 1
    n = last_survey + shape.horizons - first   # latent quarters up to the last target
    levels, truth = _levels(variable, n, rng)
    # Releases exist up to the last survey quarter; later targets stay unrealized.
    # Two periods never get a release. Their targets never mature, and the cost
    # of that depends on how many there are and when, so both are fixed.
    missing = {shape.first_survey + shape.surveys // 3, shape.first_survey + 2 * shape.surveys // 3}
    records = _records(variable, first, levels[: last_survey + 1 - first], missing, rng)

    unemp = variable == "UNEMP"
    spread = (0.05, 0.4) if unemp else (0.3, 1.5)
    next_id = 0

    def entrant() -> tuple[str, float, float]:
        nonlocal next_id
        next_id += 1
        skill = rng.uniform(*spread)
        bias = (0.05 if unemp else 0.2) * rng.standard_normal()
        return f"F{next_id:04d}", skill, bias

    roster = [entrant() for _ in range(shape.roster)]
    lines = []
    for i in range(shape.surveys):
        survey = shape.first_survey + i
        if i > 0:
            roster = [m if rng.random() >= shape.exit_prob else entrant() for m in roster]
        common = rng.standard_normal(shape.horizons)
        for fid, skill, bias in sorted(roster):
            if rng.random() >= shape.participation:
                continue
            for h in range(1, shape.horizons + 1):
                if rng.random() < 0.02:
                    continue
                grow = 1.0 + (0.5 if unemp else 0.4) * (h - 1)
                target = survey + h - 1 - first
                noise = skill * grow * rng.standard_normal() + 0.3 * skill * grow * common[h - 1]
                value = truth[target] + bias + noise
                lines.append(f"{period(survey)},{variable},{h},{fid},{value:.1f}")
    return VariableData(variable, lines, records)


def write_variable(data: VariableData, directory: str) -> dict[str, str]:
    """Write the three CSV files; returns their paths by role."""
    os.makedirs(directory, exist_ok=True)
    paths = {
        role: os.path.join(directory, f"{role}.csv")
        for role in ("forecasts", "realizations", "vintages")
    }
    v = data.variable
    with open(paths["forecasts"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(FORECAST_HEADER + "\n")
        fh.write("\n".join(data.forecast_lines) + "\n")
    with open(paths["realizations"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(REALIZATION_HEADER + "\n")
        for stamp, per, level in data.record_lines:
            fh.write(f"{per},{v},{level},{stamp}\n")
    with open(paths["vintages"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(VINTAGE_HEADER + "\n")
        for stamp, per, level in data.record_lines:
            fh.write(f"{stamp},{v},{per},{level}\n")
    return paths
