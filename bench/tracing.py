"""Spans around the program's public functions, recorded from outside the program.

``install`` replaces each traced function at every module binding through
which the program calls it (and on the class, for ``Panel`` methods) with
a wrapper that records a span: name, start, end and the enclosing span.
Spans live in flat arrays in memory and are written out once, by ``dump``,
when the worker ends. Counts that are not spans (items fused, Monte Carlo
trials, bytes written, warning records, calls of the innermost fusion step)
go into ``counts``. Functions a later version of the program no longer has
are skipped, and their metrics then read 0.
"""

from __future__ import annotations

import functools
import logging
import os
import time
from array import array

import numpy as np

from crowdfuse import aggregation, backtest, cli, fusion, gaps, panel, quincunx

MODULES = (aggregation, backtest, cli, fusion, gaps, panel, quincunx)

AGGREGATION_SPANS = (
    "update_state", "add_contribution", "slice_contribution_terms", "ewm", "kf_crowd",
    "cwm", "kf_plus", "positive_contribution_subset", "top_n_subset",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, measure=None):
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure is not None:
                measure(counts, args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _add(key: str, amount):
    def measure(counts, args, kwargs, result):
        counts[key] = counts.get(key, 0) + amount(args, kwargs, result)
    return measure


def _written_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path)


class _WarningCounter(logging.Filter):
    def __init__(self, counts: dict[str, float]) -> None:
        super().__init__()
        self.counts = counts
        counts.setdefault("cli.log_warnings", 0)

    def filter(self, record: logging.LogRecord) -> bool:
        if record.levelno >= logging.WARNING:
            self.counts["cli.log_warnings"] += 1
        return True


def _rebind(owner, name: str, wrap) -> None:
    """Replace function ``name`` of ``owner`` at every binding that holds it."""
    original = getattr(owner, name, None)
    if original is None:
        return
    wrapped = wrap(original)
    for holder in MODULES + (panel.Panel,):
        for attr, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, attr, wrapped)


def install() -> Tracer:
    tracer = Tracer()
    span = tracer.span
    rows = _add("panel.load_panel.rows", lambda a, k, r: len(r.forecasts))
    items = _add("fusion.fuse_sequence.items", lambda a, k, r: len(a[0]))
    trials = _add("gaps.monte_carlo_gap.trials", lambda a, k, r: r.trials)
    written = _add("backtest.write.bytes", _written_bytes)

    _rebind(cli, "main", lambda f: span("cli.main", f))
    _rebind(panel, "load_panel", lambda f: span("panel.load_panel", f, rows))
    _rebind(panel, "calibration_series", lambda f: span("panel.calibrate", f))
    _rebind(panel, "calibrate_v", lambda f: span("panel.calibrate", f))
    _rebind(panel.Panel, "realized_value", lambda f: span("panel.realized_value", f))
    _rebind(panel.Panel, "forecasts_at", lambda f: span("panel.forecasts_at", f))
    for name in AGGREGATION_SPANS:
        _rebind(aggregation, name, lambda f, n=name: span(f"aggregation.{n}", f))
    _rebind(quincunx, "p_from_mse", lambda f: span("quincunx.p_from_mse", f))
    _rebind(quincunx, "fuse_p", lambda f: tracer.counter("quincunx.fuse_p.calls", f))
    _rebind(fusion, "fuse_sequence", lambda f: span("fusion.fuse_sequence", f, items))
    for name in ("run_backtest", "subset_sweep", "dm_test"):
        _rebind(backtest, name, lambda f, n=name: span(f"backtest.{n}", f))
    for name in ("write_rmse_csv", "write_dm_csv", "write_diagnostics_csv", "write_sweep_csv"):
        _rebind(backtest, name, lambda f: span("backtest.write", f, written))
    for name in ("figure_grid", "expected_gap_analytic", "write_grid_csv"):
        _rebind(gaps, name, lambda f, n=name: span(f"gaps.{n}", f))
    _rebind(gaps, "monte_carlo_gap", lambda f: span("gaps.monte_carlo_gap", f, trials))

    counter = _WarningCounter(tracer.counts)
    for name, logger in list(logging.root.manager.loggerDict.items()):
        if name.split(".")[0] == "crowdfuse" and isinstance(logger, logging.Logger):
            logger.addFilter(counter)
    return tracer
