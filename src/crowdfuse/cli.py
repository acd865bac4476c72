"""Batch command-line front end.

Four subcommands wire the library into reproducible experiments:

* ``simulate``: draw walk estimates and compare sample to analytic moments.
* ``theory``: write one closed-form expected-gap grid.
* ``backtest``: run the aggregation rules over a panel (files or synthetic).
* ``sweep``: RMSE over shrinking top-n subsets, one rolling pass per
  variable for all horizons and sizes.

Exit codes: 0 success, 1 runtime or IO failure, 2 usage error. Commands
with identical flags and seed are byte-reproducible; outputs are never
overwritten without ``--force``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import backtest as bt
from . import gaps
from .aggregation import ALL_RULES
from .panel import (
    Calibration,
    MissingSeedError,
    Panel,
    PanelError,
    calibrate_v,
    calibration_series,
    load_panel,
    load_synth_config,
    synth_panel,
    write_csv,
)
from .quincunx import Environment, Judge, moments, sample_estimates

_RULE_FLAGS = {rule.lower(): rule for rule in ALL_RULES}

SIMULATE_CSV_HEADER = ("moment", "analytic", "sample", "abs_error", "tolerance")


def _check_output(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")


def _sample_moment(centered: np.ndarray, sample_var: float, k: int) -> float | None:
    """The k-th standardized sample moment, or None where it has no value in doubles.

    That is a sample with zero variance (all draws agree), or one whose
    powers underflow to zero or overflow.
    """
    try:
        return float((centered**k).mean()) / sample_var ** (k / 2)
    except ArithmeticError:
        return None


def _cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _check_output(args.out, args.force)
    judge = Judge(args.p)
    env = Environment(norm=args.norm, count=args.C, unit=args.v, deviation=args.t)
    rng = np.random.default_rng(args.seed)
    draws = sample_estimates(judge, env, args.samples, rng)
    m = moments(judge, env)
    n = args.samples

    centered = draws - draws.mean()
    if draws.min() == draws.max():
        centered[:] = 0.0  # draws that all agree have no spread, whatever the mean's rounding
    sample_mean = float(draws.mean())
    sample_var = float((centered**2).mean())
    rows = [
        ("mean", env.norm + m.mean, sample_mean, 4.0 * math.sqrt(m.variance / n)),
    ]
    if m.kurtosis is None:
        rows.append(("variance", m.variance, sample_var, 0.0))
    else:
        var_stderr = m.variance * math.sqrt(max(m.kurtosis - 1.0, 0.0) / n)
        rows.append(("variance", m.variance, sample_var, 4.0 * var_stderr))
        rows.append(
            ("skewness", m.skewness, _sample_moment(centered, sample_var, 3),
             max(0.1 * abs(m.skewness), 5.0 * math.sqrt(6.0 / n)))
        )
        rows.append(
            ("kurtosis", m.kurtosis, _sample_moment(centered, sample_var, 4),
             max(0.1 * m.kurtosis, 5.0 * math.sqrt(24.0 / n)))
        )

    # a moment the sample cannot give leaves its sample and abs_error fields empty
    write_csv(args.out, SIMULATE_CSV_HEADER, (
        (name, analytic, sample, None if sample is None else abs(sample - analytic), tolerance)
        for name, analytic, sample, tolerance in rows
    ))
    return 0


def _cmd_theory(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _check_output(args.out, args.force)
    gaps.write_grid_csv(gaps.figure_grid(gaps.GapKind(args.kind), args.resolution), args.out)
    return 0


def _check_inputs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Reject input flags that conflict or would be ignored, before any work."""
    files = (args.forecasts, args.realizations, args.vintages)
    if args.synthetic:
        if any(files):
            parser.error("--synthetic cannot be combined with --forecasts/--realizations/--vintages")
    elif not all(files):
        parser.error("either --synthetic or all of --forecasts/--realizations/--vintages")
    elif args.seed is not None:
        parser.error("--seed seeds the generator and needs --synthetic")


def _load_inputs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> tuple[Panel, Calibration]:
    if args.synthetic:
        try:
            config = load_synth_config(args.synthetic, seed_override=args.seed)
        except MissingSeedError as exc:
            parser.error(str(exc))
        panel = synth_panel(config)
    else:
        panel = load_panel(args.forecasts, args.realizations, args.vintages)
    series = calibration_series(panel)
    missing = sorted(panel.variables - set(series))
    if missing:
        raise PanelError(f"no vintage data to calibrate variables: {missing}")
    return panel, calibrate_v({v: series[v] for v in sorted(panel.variables)})


def _parse_rules(text: str, parser: argparse.ArgumentParser) -> tuple[str, ...]:
    rules = []
    for token in text.split(","):
        token = token.strip().lower()
        if token not in _RULE_FLAGS:
            parser.error(f"unknown rule {token!r}, expected subset of {','.join(_RULE_FLAGS)}")
        rules.append(_RULE_FLAGS[token])
    return tuple(dict.fromkeys(rules))


def _cmd_backtest(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _check_inputs(args, parser)
    rules = _parse_rules(args.rules, parser)
    out_paths = {
        name: os.path.join(args.out_dir, name)
        for name in ("rmse.csv", "dm.csv", "diagnostics.csv")
    }
    os.makedirs(args.out_dir, exist_ok=True)
    for path in out_paths.values():
        _check_output(path, args.force)
    panel, calib = _load_inputs(args, parser)
    report = bt.run_backtest(panel, rules, calib, window=args.window, hln=args.hln)
    bt.write_report(out_paths["rmse.csv"], bt.RmseCell, report.cells)
    bt.write_report(out_paths["dm.csv"], bt.DmCell, report.dm)
    bt.write_report(out_paths["diagnostics.csv"], bt.CellDiagnostics, report.diagnostics)
    return 0


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.n_min < 1 or args.n_max < args.n_min:
        parser.error(f"invalid subset range {args.n_min}..{args.n_max}")
    _check_inputs(args, parser)
    rules = _parse_rules(args.rules, parser)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, "sweep.csv")
    _check_output(out_path, args.force)
    panel, calib = _load_inputs(args, parser)
    held = sorted({h for variable in panel.variables for h in panel.horizons(variable)})
    horizons = tuple(held)
    if args.horizons is not None:
        try:
            horizons = tuple(int(h) for h in args.horizons.split(","))
        except ValueError:
            horizons = ()
        if not horizons or not set(horizons) <= set(held):
            parser.error(
                f"--horizons {args.horizons!r}: expected a comma-separated subset of "
                f"the panel's horizons {','.join(map(str, held))}"
            )
    points = bt.subset_sweep(
        panel,
        horizons,
        range(args.n_min, args.n_max + 1),
        calib,
        rules=rules,
        aggregate=args.aggregate,
        window=args.window,
    )
    bt.write_report(out_path, bt.SweepPoint, points)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_backtest_inputs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--forecasts", help="forecast CSV (survey,variable,horizon,forecaster_id,value)")
    sub.add_argument("--realizations", help="realization CSV (target,variable,value,vintage)")
    sub.add_argument("--vintages", help="vintage CSV (asof,variable,period,level)")
    sub.add_argument("--synthetic", help="flat key = value generator config file")
    sub.add_argument("--seed", type=int, help="generator seed (required with --synthetic unless the config has one)")
    sub.add_argument("--rules", default=",".join(_RULE_FLAGS), help="comma-separated rules to run")
    sub.add_argument("--out-dir", required=True, help="directory for the report CSVs")
    sub.add_argument("--window", type=_positive_int, default=None, help="restrict reliability MSE to the last N >= 1 errors")
    sub.add_argument("--force", action="store_true", help="overwrite existing outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdfuse",
        description="Fusion experiments on crowd forecasts: simulation, theory grids, and panel backtests.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="compare sample and analytic walk moments")
    sim.add_argument("--p", type=float, required=True, help="detection reliability in [0.5, 1]")
    sim.add_argument("--C", type=int, required=True, help="element count")
    sim.add_argument("--v", type=float, required=True, help="evidence unit per element")
    sim.add_argument("--t", type=int, required=True, help="net signed deviation")
    sim.add_argument("--norm", type=float, default=0.0, help="category norm (default 0)")
    sim.add_argument("--samples", type=_positive_int, required=True, help="number of draws (>= 1)")
    sim.add_argument("--seed", type=int, required=True, help="random seed")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--force", action="store_true", help="overwrite an existing output")

    theory = commands.add_parser("theory", help="write one expected-gap grid as CSV")
    theory.add_argument("--kind", choices=sorted(kind.value for kind in gaps.GapKind), required=True, help="which gap surface")
    theory.add_argument("--resolution", type=int, default=50, help="grid points per axis (>= 10)")
    theory.add_argument("--seed", type=int, help="ignored: the grid is closed-form and does not depend on a seed")
    theory.add_argument("--out", required=True, help="output CSV path")
    theory.add_argument("--force", action="store_true", help="overwrite an existing output")

    run = commands.add_parser("backtest", help="run aggregation rules over a panel")
    _add_backtest_inputs(run)
    run.add_argument("--hln", action="store_true", help="apply the small-sample DM correction")

    sweep = commands.add_parser("sweep", help="backtest over shrinking top-n subsets")
    _add_backtest_inputs(sweep)
    sweep.add_argument("--n-min", type=int, required=True, help="smallest subset size")
    sweep.add_argument("--n-max", type=int, required=True, help="largest subset size")
    sweep.add_argument("--horizons", help="comma-separated horizons (default: all in the panel)")
    sweep.add_argument("--aggregate", choices=("mean", "pooled"), default="mean",
                       help="combine variables by mean of RMSEs or pooled errors")
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "theory": _cmd_theory,
    "backtest": _cmd_backtest,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except (PanelError, ValueError) as exc:
        print(f"crowdfuse: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"crowdfuse: io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
