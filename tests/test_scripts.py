"""Smoke tests: the experiment scripts run at a toy size and write their files, and the
README's library example and generator-config commands run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_readme_library_example(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library in five lines\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    # the moments the example's comment states are the ones it prints
    stated = re.search(r"# mean ([-\d.]+), variance ([-\d.]+)", block).groups()
    shown = re.search(r"mean=([^,]+), variance=([^,]+),", printed).groups()
    assert [float(x) for x in shown] == pytest.approx([float(x) for x in stated])
    assert [float(x) for x in stated] == [2.4, 12.8]


def test_readme_generator_config(tmp_path, monkeypatch):
    # the README's config block, saved as the examples.cfg its commands name
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    config = re.search(r"save the block below as `examples\.cfg`.*?\n```\n(.*?)```",
                       readme, re.S).group(1)
    (tmp_path / "examples.cfg").write_text(config, encoding="utf-8")
    commands = re.findall(r"^crowdfuse (\w+ --synthetic examples\.cfg .*)$", readme, re.M)
    assert len(commands) == 2
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)) == 0, command
    reports = tmp_path / "reports"
    assert sorted(os.listdir(reports)) == ["diagnostics.csv", "dm.csv", "rmse.csv", "sweep.csv"]
    assert (reports / "sweep.csv").read_text().startswith("horizon,rule,n_included,rmse\n")
