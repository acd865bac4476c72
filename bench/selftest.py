"""Self-test of the benchmark at toy sizes.

Usage (from the repository root): ``python3 bench/selftest.py``. It exits 0
when every check below holds, and 1 otherwise, naming what failed.

* Every workload runs untraced and traced at toy sizes, and passes its
  report checks; two traced runs give identical per-layer counts.
* A perturbed report of each kind (rmse, dm, diagnostics, sweep, theory
  grid) fails the checks.
* The UNEMP backtest, which today's KF rule cannot finish, is reported as
  a failed operation with ``DegenerateFusionError``, not as an error of the
  benchmark. When the KF rule is fixed, this expectation goes. A failure of
  any other operation makes the run incorrect.
* In a directory without the program, the benchmark exits non-zero
  without printing a result.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import run

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
COUNT_UNITS = {"count", "bytes", "calls/row", "share"}
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def perturb(path: str, row: int, column: int, change) -> str:
    """Rewrite one field of a CSV report; returns the original text."""
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    lines = original.splitlines()
    fields = lines[row].split(",")
    fields[column] = change(fields[column])
    lines[row] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return original


def fails_when(rec: run.Record, report: str, row: int, column: int, change, what: str) -> None:
    path = os.path.join(rec.out_dir, report)
    original = perturb(path, row, column, change)
    try:
        problems, _ = rec.op.check(rec.out_dir)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)
    expect(bool(problems), f"{rec.op.name}: {what} is caught")


def plus(delta: float):
    return lambda text: repr(float(text) + delta)


def check_workload(workload: str) -> None:
    plain = run.execute(ROOT, workload, 1, 1, False, run.TOY)
    expect(not plain.problems, f"{workload}: untraced run passes its checks {plain.problems[:3]}")
    metrics = run.end_to_end(plain.records, plain.rounds)
    expect(all(m["value"] > 0 for m in metrics.values()), f"{workload}: end-to-end metrics are positive")
    failed = [(r.op.name, r.error) for r in plain.failed]
    if workload == "spf_backtest":
        expect(failed == [("backtest UNEMP", "DegenerateFusionError")],
               f"{workload}: only UNEMP fails, with DegenerateFusionError (got {failed})")
    else:
        expect(not failed, f"{workload}: no operation fails (got {failed})")

    done = [r for r in plain.records if r.op and r.completed]
    first = done[0]
    first.exit_code, first.error = 1, "ValueError"
    run.check_records(plain)
    expect(any("unexpected failure" in p for p in plain.problems),
           f"{workload}: a failure of {first.op.name} makes the run incorrect")
    first.exit_code, first.error = 0, None
    if workload == "spf_backtest":
        fails_when(first, "rmse.csv", 1, 3, plus(2e-6), "an RMSE off by 2e-6")
        fails_when(first, "rmse.csv", 1, 4, lambda t: str(int(t) + 1), "a changed n_surveys")
        fails_when(first, "dm.csv", 1, 3, plus(2e-6), "a DM statistic off by 2e-6")
        fails_when(first, "dm.csv", 1, 4, lambda t: "1.5", "a p-value above 1")
        fails_when(first, "diagnostics.csv", 1, 2, plus(2e-6), "a median p-hat off by 2e-6")
        fails_when(first, "diagnostics.csv", 1, 3, lambda t: str(int(t) + 1), "a changed fallback count")
    elif workload == "spf_sweep":
        fails_when(first, "sweep.csv", 1, 3, plus(2e-6), "a sweep RMSE off by 2e-6")
        fails_when(first, "sweep.csv", 2, 2, lambda t: str(int(t) + 1), "a shifted subset size")
    else:
        with open(os.path.join(first.out_dir, "grid.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        closed = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[2])
        fails_when(first, "grid.csv", closed, 2, lambda t: repr(float(t) * (1 + 1e-6)),
                   "a closed-form cell off by 1e-6 relative")
        mc = [i for i, line in enumerate(lines[1:], 1) if line.split(",")[3]]
        if mc:
            se = float(lines[mc[0]].split(",")[4])
            fails_when(first, "grid.csv", mc[0], 3, plus(10 * se), "a Monte Carlo cell off by 10 se")
    shutil.rmtree(plain.work, ignore_errors=True)

    counts = []
    for _ in range(2):
        traced = run.execute(ROOT, workload, 1, 1, True, run.TOY)
        expect(not traced.problems, f"{workload}: traced run passes its checks")
        layer = run.per_layer(traced.records, traced.rounds, traced.closed_share)
        counts.append({k: m["value"] for k, m in layer.items() if m["unit"] in COUNT_UNITS})
        shutil.rmtree(traced.work, ignore_errors=True)
    expect(counts[0] == counts[1], f"{workload}: two traced runs give identical counts")
    expect(any(v > 0 for v in counts[0].values()), f"{workload}: traced counts are not all zero")


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spf_backtest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the program the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for workload in run.WORKLOADS:
        check_workload(workload)
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
