"""Forecast tables as plain rows, and panels written back to their three files.

The library builds a :class:`ForecastTable` only from codes (``load_panel``
and ``synth_panel``); tests state tables as (survey, variable, horizon,
forecaster id, value) rows, compare them row by row and write panels out
to check that loading reads back what was written.
"""

from __future__ import annotations

from typing import Sequence

from crowdfuse.panel import (
    FORECAST_HEADER,
    REALIZATION_HEADER,
    VINTAGE_HEADER,
    ForecastTable,
    Panel,
    write_csv,
)


def table_of(rows: Sequence[tuple[str, str, int, str, float]]) -> ForecastTable:
    """The table of (survey, variable, horizon, forecaster id, value) rows."""
    survey, variable, horizon, forecaster, value = zip(*rows) if rows else [()] * 5
    columns = (survey, variable, forecaster)
    codes = [{name: i for i, name in enumerate(dict.fromkeys(column))} for column in columns]
    s, v, f = ([at[x] for x in column] for at, column in zip(codes, columns))
    return ForecastTable.from_codes(*map(tuple, codes), s, v, horizon, f, value)


def rows_of(table: ForecastTable) -> list[tuple[str, str, int, str, float]]:
    """Each entry as a (survey, variable, horizon, forecaster id, value) row, in table order."""
    return list(zip(
        map(table.surveys.__getitem__, table.survey.tolist()),
        map(table.variables.__getitem__, table.variable.tolist()),
        table.horizon.tolist(),
        map(table.forecasters.__getitem__, table.forecaster.tolist()),
        table.value.tolist(),
    ))


def same_panel(a: Panel, b: Panel) -> bool:
    """Whether two panels agree field by field, their forecast tables row by row."""
    def fields(panel: Panel) -> tuple:
        return (rows_of(panel.forecasts), panel.realizations, panel.vintages, panel.transform,
                panel.surveys, panel.variables)
    return fields(a) == fields(b)


def write_panel(
    panel: Panel, forecast_path: str, realization_path: str, vintage_path: str
) -> None:
    """Write the three files in canonical form, with repr floats.

    Forecasts are written in table order, by (variable, survey, horizon,
    forecaster id); realizations and vintages in their row order.
    """
    write_csv(forecast_path, FORECAST_HEADER, rows_of(panel.forecasts))
    write_csv(realization_path, REALIZATION_HEADER,
              ((r.period, r.variable, r.value, r.stamp) for r in panel.realizations))
    write_csv(vintage_path, VINTAGE_HEADER,
              ((v.stamp, v.variable, v.period, v.value) for v in panel.vintages))
