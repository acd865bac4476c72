"""Smoke tests: the theory-grid script runs at a toy size and writes its files, and the
README's library example, generator-config commands and experiment commands run as written."""

import csv
import os
import re
import shlex
import shutil
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


def test_readme_experiment_commands(tmp_path, monkeypatch):
    # the README's commands on the committed configs, run from a copy of scripts/
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"## Experiment scripts\n(.*?)\n## ", readme, re.S).group(1)
    commands = re.findall(r"^crowdfuse (\w+ --synthetic scripts/\w+\.cfg .*)$", section, re.M)
    assert len(commands) == 3
    (tmp_path / "scripts").mkdir()
    for config in ("homogeneous.cfg", "diverse.cfg"):
        shutil.copy(ROOT / "scripts" / config, tmp_path / "scripts")
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)) == 0, command

    def rmse(panel):
        with open(tmp_path / "results" / panel / "rmse.csv", encoding="utf-8") as fh:
            return {row["rule"]: float(row["rmse"]) for row in csv.DictReader(fh)}

    # the predictions the README states, at the configs' seed
    homogeneous, diverse = rmse("homogeneous"), rmse("diverse")
    assert homogeneous["EWM"] <= homogeneous["KF"] < 1.02 * homogeneous["EWM"]
    assert diverse["KF"] < 0.95 * diverse["EWM"]
    assert diverse["KFplus"] <= diverse["CWM"]
    sweep = (tmp_path / "results" / "diverse" / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "horizon,rule,n_included,rmse"
    assert {int(line.split(",")[2]) for line in sweep[1:]} == set(range(2, 17))
