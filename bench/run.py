"""Benchmark of the crowdfuse command line: backtest, sweep and theory.

Usage (from the root of a checkout):

    python3 bench/run.py --workload spf_backtest --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

* ``spf_backtest``: ``crowdfuse backtest`` with all four rules, one
  operation per variable of a generated SPF-shaped panel;
* ``spf_sweep``: ``crowdfuse sweep --n-min 2 --n-max 40`` on one growth
  variable of the same generator;
* ``theory_grids``: ``crowdfuse theory`` for the three gap kinds at
  resolution 50 with the default trials.

Every operation runs in a fresh worker process (``worker.py``), one at a
time, with numeric thread pools at one thread and a fixed hash seed. A run
is a fixed number of whole rounds of the workload's operations, set from
``--seconds`` and the round's nominal duration. Every completed
operation's reports are checked against ``reference.py``; an operation
that exits non-zero counts as failed, and makes the run incorrect unless it
is the known failure listed in ``EXPECTED_FAILURES``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
from spans recorded around the program's functions (``tracing.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import generate
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spf_backtest", "spf_sweep", "theory_grids")
# nominal seconds of one round, worker start-ups included, on the machine of README.md
ROUND_S = {"spf_backtest": 6.5, "spf_sweep": 16.0, "theory_grids": 10.5}
# operations that fail on every run today, with the exception that escapes them
EXPECTED_FAILURES = {"backtest UNEMP": "DegenerateFusionError"}
PROBES = 3                 # import-only workers per run, for the set-up median
WORKER_TIMEOUT_S = 160.0
RULES = "ewm,kf,cwm,kfplus"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Sizes:
    shape: generate.Shape
    n_max: int
    resolution: int


FULL = Sizes(generate.FULL, n_max=40, resolution=50)
TOY = Sizes(generate.TOY, n_max=8, resolution=10)   # for selftest.py only


class BenchmarkError(Exception):
    """The benchmark itself could not run or measure."""


@dataclass
class Op:
    """One command of a round: its arguments, input size and report check."""

    name: str
    command: list[str]          # crowdfuse arguments, "{out}" marks the output place
    rows: int
    check: Callable[[str], tuple[list[str], float | None]]   # out dir -> (problems, closed share)

    def argv(self, out_dir: str) -> list[str]:
        return [a.replace("{out}", out_dir) for a in self.command]


@dataclass
class Record:
    """What one worker reported."""

    op: Op | None
    round: int
    out_dir: str
    setup_cpu_s: float
    import_wall_s: float
    peak_rss_kb: int
    main_cpu_s: float = 0.0
    exit_code: object = None
    error: str | None = None
    counts: dict = field(default_factory=dict)
    span_names: list = field(default_factory=list)
    gaps_import_s: float = 0.0

    @property
    def completed(self) -> bool:
        return self.exit_code == 0


def _panel_ops(workload: str, seed: int, sizes: Sizes, inputs: str) -> list[Op]:
    variables = generate.VARIABLES if workload == "spf_backtest" else (generate.SWEEP_VARIABLE,)
    ops = []
    for variable in variables:
        data = generate.generate_variable(variable, seed, sizes.shape)
        directory = os.path.join(inputs, variable)
        paths = generate.write_variable(data, directory)
        files = [
            "--forecasts", paths["forecasts"], "--realizations", paths["realizations"],
            "--vintages", paths["vintages"], "--rules", RULES, "--out-dir", "{out}",
        ]
        ref_panel = reference.load(directory)
        plain = reference.backtest(ref_panel)
        if workload == "spf_backtest":
            ops.append(Op(
                f"backtest {variable}", ["backtest"] + files, data.rows,
                lambda out, d=ref_panel, e=plain: (checks.check_backtest(out, d, e), None),
            ))
        else:
            sizes_n = range(2, sizes.n_max + 1)
            expected = reference.sweep(ref_panel, sizes_n, plain)
            ops.append(Op(
                f"sweep {variable}",
                ["sweep"] + files + ["--n-min", "2", "--n-max", str(sizes.n_max)],
                data.rows,
                lambda out, e=expected: (checks.check_sweep(out, e), None),
            ))
    return ops


def _theory_ops(seed: int, sizes: Sizes) -> list[Op]:
    ops = []
    for kind in reference.GAP_KINDS:
        ops.append(Op(
            f"theory {kind}",
            ["theory", "--kind", kind, "--resolution", str(sizes.resolution),
             "--seed", str(seed), "--out", "{out}/grid.csv"],
            sizes.resolution ** 2,
            lambda out, k=kind: checks.check_grid(f"{out}/grid.csv", k, sizes.resolution),
        ))
    return ops


def worker_env(root: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({name: "1" for name in THREAD_VARS})
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    return env


def _importtime(stderr_path: str, module: str) -> float:
    """Cumulative import seconds of ``module`` from ``-X importtime`` output."""
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if line.startswith("import time:"):
                parts = line[len("import time:"):].split("|")
                if len(parts) == 3 and parts[2].strip() == module:
                    return int(parts[1]) / 1e6
    return 0.0


def run_worker(root: str, op: Op | None, round_: int, place: str, trace: bool) -> Record:
    os.makedirs(place)
    spec = {
        "argv": op.argv(os.path.join(place, "out")) if op else None,
        "trace": trace,
        "result": os.path.join(place, "result.json"),
        "spans": os.path.join(place, "spans.npz"),
    }
    if op:
        os.makedirs(os.path.join(place, "out"))
    with open(os.path.join(place, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    argv = [sys.executable] + (["-X", "importtime"] if trace else [])
    argv += [os.path.join(HERE, "worker.py"), os.path.join(place, "spec.json")]
    stderr_path = os.path.join(place, "stderr.txt")
    with open(os.path.join(place, "stdout.txt"), "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=root, env=worker_env(root), stdout=out, stderr=err)
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except BaseException as exc:
        proc.kill()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchmarkError(f"worker for {op.name if op else 'probe'} ran past "
                                 f"{WORKER_TIMEOUT_S:.0f} s and was killed") from exc
        raise
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        raise BenchmarkError(f"worker for {op.name if op else 'probe'} ended with "
                             f"{proc.returncode}; see {stderr_path}")
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    expected_src = os.path.join(root, "src", "crowdfuse")
    if os.path.dirname(os.path.realpath(result["module"])) != os.path.realpath(expected_src):
        raise BenchmarkError(f"worker imported {result['module']}, not {expected_src}")
    record = Record(
        op=op, round=round_, out_dir=os.path.join(place, "out"),
        setup_cpu_s=result["setup_cpu_s"], import_wall_s=result["import_wall_s"],
        peak_rss_kb=result["peak_rss_kb"],
    )
    if op:
        record.main_cpu_s = result["main_cpu_s"]
        record.exit_code = result["exit_code"]
        record.error = result["error"]
        record.counts = result.get("counts", {})
        record.span_names = result.get("span_names", [])
    if trace:
        record.gaps_import_s = _importtime(stderr_path, "crowdfuse.gaps")
    return record


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(records: list[Record], rounds: int) -> dict:
    rates = []
    for r in range(rounds):
        done = [x for x in records if x.op and x.round == r and x.completed]
        if done:
            rates.append(sum(x.op.rows for x in done) / sum(x.main_cpu_s for x in done))
    if not rates:
        raise BenchmarkError("no operation completed, so no rate can be measured")
    return {
        "rows_per_cpu_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {"value": statistics.median(x.setup_cpu_s for x in records), "unit": "s"},
        "peak_rss_mb": {"value": max(x.peak_rss_kb for x in records) / 1024.0, "unit": "MB"},
    }


AGG_SELF = (
    "update_state", "add_contribution", "slice_contribution_terms", "ewm", "kf_crowd",
    "cwm", "kf_plus", "positive_contribution_subset",
)

# (metric, unit, (kind, key)): "calls", "s" or "self_s" of span key, "count" of counter
# key, or one of the derived values computed in per_layer
PER_LAYER = (
    [
        ("cli.main.s", "s", ("s", "cli.main")),
        ("cli.import.s", "s", ("import", None)),
        ("gaps.import.s", "s", ("gaps_import", None)),
        ("cli.log_warnings", "count", ("count", "cli.log_warnings")),
        ("panel.load_panel.s", "s", ("s", "panel.load_panel")),
        ("panel.load_panel.rows", "count", ("count", "panel.load_panel.rows")),
        ("panel.calibrate.s", "s", ("s", "panel.calibrate")),
        ("panel.realized_value.calls", "count", ("calls", "panel.realized_value")),
        ("panel.realized_value.s", "s", ("s", "panel.realized_value")),
        ("panel.forecasts_at.calls", "count", ("calls", "panel.forecasts_at")),
        ("panel.forecasts_at.s", "s", ("s", "panel.forecasts_at")),
    ]
    + [
        (f"aggregation.{f}.{stat}", unit, (stat, f"aggregation.{f}"))
        for f in AGG_SELF for stat, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("aggregation.top_n_subset.calls", "count", ("calls", "aggregation.top_n_subset")),
        ("aggregation.top_n_subset.s", "s", ("s", "aggregation.top_n_subset")),
        ("aggregation.updates_per_row", "calls/row", ("updates_per_row", None)),
        ("fusion.fuse_sequence.calls", "count", ("calls", "fusion.fuse_sequence")),
        ("fusion.fuse_sequence.items", "count", ("count", "fusion.fuse_sequence.items")),
        ("fusion.fuse_sequence.s", "s", ("s", "fusion.fuse_sequence")),
        ("quincunx.p_from_mse.calls", "count", ("calls", "quincunx.p_from_mse")),
        ("quincunx.p_from_mse.s", "s", ("s", "quincunx.p_from_mse")),
        ("quincunx.fuse_p.calls", "count", ("count", "quincunx.fuse_p.calls")),
        ("backtest.run_backtest.calls", "count", ("calls", "backtest.run_backtest")),
        ("backtest.run_backtest.self_s", "s", ("self_s", "backtest.run_backtest")),
        ("backtest.subset_sweep.self_s", "s", ("self_s", "backtest.subset_sweep")),
        ("backtest.dm_test.calls", "count", ("calls", "backtest.dm_test")),
        ("backtest.dm_test.s", "s", ("s", "backtest.dm_test")),
        ("backtest.write.s", "s", ("s", "backtest.write")),
        ("backtest.write.bytes", "bytes", ("count", "backtest.write.bytes")),
        ("gaps.figure_grid.self_s", "s", ("self_s", "gaps.figure_grid")),
        ("gaps.expected_gap_analytic.calls", "count", ("calls", "gaps.expected_gap_analytic")),
        ("gaps.expected_gap_analytic.s", "s", ("s", "gaps.expected_gap_analytic")),
        ("gaps.monte_carlo_gap.calls", "count", ("calls", "gaps.monte_carlo_gap")),
        ("gaps.monte_carlo_gap.trials", "count", ("count", "gaps.monte_carlo_gap.trials")),
        ("gaps.monte_carlo_gap.s", "s", ("s", "gaps.monte_carlo_gap")),
        ("gaps.closed_form_share", "share", ("closed_share", None)),
        ("gaps.write_grid_csv.s", "s", ("s", "gaps.write_grid_csv")),
    ]
)


def span_totals(spans_path: str, names: list[str]) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name."""
    with np.load(spans_path) as z:
        name, parent, start, end = z["name"], z["parent"], z["start"], z["end"]
    duration = end - start
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
    own = duration - children
    k = len(names)
    calls = np.bincount(name, minlength=k)
    inclusive = np.bincount(name, weights=duration, minlength=k)
    self_s = np.bincount(name, weights=own, minlength=k)
    return {
        n: {"calls": float(calls[i]), "s": float(inclusive[i]), "self_s": float(self_s[i])}
        for i, n in enumerate(names)
    }


def per_layer(records: list[Record], rounds: int, closed_share: float) -> dict:
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    for rec in records:
        if not rec.op:
            continue
        path = os.path.join(os.path.dirname(rec.out_dir), "spans.npz")
        for n, stats in span_totals(path, rec.span_names).items():
            total = spans.setdefault(n, {"calls": 0.0, "s": 0.0, "self_s": 0.0})
            for key, value in stats.items():
                total[key] += value
        for key, value in rec.counts.items():
            counts[key] = counts.get(key, 0) + value
    rows = counts.get("panel.load_panel.rows", 0)
    updates = spans.get("aggregation.update_state", {}).get("calls", 0.0)
    special = {
        "import": statistics.median(r.import_wall_s for r in records),
        "gaps_import": statistics.median(r.gaps_import_s for r in records),
        "updates_per_row": updates / rows if rows else 0.0,
        "closed_share": closed_share,
    }
    metrics = {}
    for metric, unit, (kind, key) in PER_LAYER:
        if kind in special:
            value = special[kind]
        elif kind == "count":
            value = counts.get(key, 0) / rounds
        else:
            value = spans.get(key, {}).get(kind, 0.0) / rounds
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

@dataclass
class Run:
    workload: str
    rounds: int
    records: list[Record]
    work: str
    problems: list[str] = field(default_factory=list)
    closed_share: float = 0.0
    round_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(1 for r in self.records if r.op)

    @property
    def failed(self) -> list[Record]:
        return [r for r in self.records if r.op and not r.completed]


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def check_records(run: Run) -> None:
    """Check every completed operation's reports; fills ``problems`` and ``closed_share``.

    A failed operation is a problem too, unless it is the known failure in
    ``EXPECTED_FAILURES`` with the same exception.
    """
    run.problems = []
    closed, grids = 0.0, 0
    for rec in run.records:
        if not rec.op:
            continue
        if not rec.completed:
            if EXPECTED_FAILURES.get(rec.op.name) != rec.error:
                run.problems.append(f"{rec.op.name}, round {rec.round}: unexpected failure "
                                    f"(exit {rec.exit_code}, {rec.error})")
            continue
        problems, share = rec.op.check(rec.out_dir)
        run.problems += [f"{rec.op.name}, round {rec.round}: {p}" for p in problems]
        if share is not None:
            closed += share
            grids += 1
    run.closed_share = closed / grids if grids else 0.0


def execute(root: str, workload: str, seed: int, seconds: int, trace: bool, sizes: Sizes) -> Run:
    work = os.path.join(HERE, "work", f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    if workload == "theory_grids":
        ops = _theory_ops(seed, sizes)
    else:
        ops = _panel_ops(workload, seed, sizes, inputs)
    run = Run(workload, rounds_for(workload, seconds), [], work)
    for i in range(PROBES):
        run.records.append(run_worker(root, None, -1, os.path.join(work, f"probe{i}"), trace))
    started = time.perf_counter()
    for r in range(run.rounds):
        for k, op in enumerate(ops):
            place = os.path.join(work, f"round{r}-op{k}")
            run.records.append(run_worker(root, op, r, place, trace))
    run.round_s = (time.perf_counter() - started) / run.rounds
    check_records(run)
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # so the worker is stopped too

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "crowdfuse", "cli.py")):
        print(f"bench: no src/crowdfuse/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        run = execute(root, args.workload, args.seed, args.seconds, bool(args.trace), FULL)
        if args.trace:
            metrics = per_layer(run.records, run.rounds, run.closed_share)
        else:
            metrics = end_to_end(run.records, run.rounds)
    except BenchmarkError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    print(f"bench: {run.workload}: {run.rounds} round(s) of {run.round_s:.1f} s", file=sys.stderr)
    for rec in run.failed:
        print(f"bench: {rec.op.name} failed (exit {rec.exit_code}, {rec.error})", file=sys.stderr)
    for problem in run.problems[:50]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    if not run.problems:
        shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
