"""Smoke tests: the experiment scripts run at a toy size and write their files."""

import os
import subprocess
import sys
from pathlib import Path

from crowdfuse.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_synthetic_backtest(tmp_path):
    done = run_script(
        "run_synthetic_backtest.py",
        "--out-dir", str(tmp_path), "--forecasters", "4", "--surveys", "12",
    )
    assert done.returncode == 0, done.stderr
    for name in ("homogeneous", "diverse"):
        assert (tmp_path / f"rmse_{name}.csv").read_text().startswith("variable,horizon,rule,rmse,")
        assert (tmp_path / f"dm_{name}.csv").read_text().startswith("variable,horizon,rule,stat,")
    sweep = (tmp_path / "sweep_diverse.csv").read_text().splitlines()
    assert sweep[0] == "horizon,rule,n_included,rmse"
    assert len(sweep) > 1


def test_theory_grids(tmp_path):
    done = run_script("run_theory_grids.py", "--out-dir", str(tmp_path), "--resolution", "10")
    assert done.returncode == 0, done.stderr
    for kind in ("kfu-kfc", "ew-kfu", "sr-kfu"):
        rows = (tmp_path / f"grid_{kind}.csv").read_text().splitlines()
        assert rows[0].startswith("p1,p2,")
        assert len(rows) == 1 + 10 * 10
        # the script and `crowdfuse theory` write the same grid file
        theory = tmp_path / f"theory_{kind}.csv"
        assert main(["theory", "--kind", kind, "--resolution", "10", "--out", str(theory)]) == 0
        assert (tmp_path / f"grid_{kind}.csv").read_bytes() == theory.read_bytes()
    assert (tmp_path / "gaussian_limit.csv").read_text().strip()
