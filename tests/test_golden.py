"""Reports of fixed runs, compared byte for byte with stored copies.

The stored reports under ``tests/data/golden/<case>/`` pin the output of
the rolling engine on a small synthetic panel (turnover, three horizons)
and on a hand-written file panel in which one period of each variable has
no release and another is stamped late, so some targets never mature.
They also pin the closed-form ``theory`` grids and two ``simulate`` runs,
one of them on the degenerate p = 1 walk.
Regenerate them with ``python tests/test_golden.py`` only when a report
change is intended, and record it as a contract change.
"""

import os
import sys

import pytest

from crowdfuse.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
PANEL = os.path.join(GOLDEN, "files")
FILES = [
    "--forecasts", os.path.join(PANEL, "forecasts.csv"),
    "--realizations", os.path.join(PANEL, "realizations.csv"),
    "--vintages", os.path.join(PANEL, "vintages.csv"),
]
SYNTH = ["--synthetic", os.path.join(GOLDEN, "synth.cfg")]

CASES = {
    "panel": ["backtest"] + FILES,
    "panel_window_hln": ["backtest"] + FILES + ["--window", "2", "--hln"],
    "panel_sweep": ["sweep"] + FILES + ["--n-min", "1", "--n-max", "6"],
    "panel_sweep_pooled": ["sweep"] + FILES + [
        "--n-min", "1", "--n-max", "6", "--aggregate", "pooled", "--window", "3",
    ],
    "synth_hln": ["backtest"] + SYNTH + ["--hln"],
    "synth_window": ["backtest"] + SYNTH + ["--window", "4"],
    "synth_sweep": ["sweep"] + SYNTH + ["--n-min", "1", "--n-max", "8"],
    "synth_sweep_pooled": ["sweep"] + SYNTH + [
        "--n-min", "1", "--n-max", "8", "--aggregate", "pooled", "--horizons", "1,3",
    ],
    "theory_kfu_kfc": ["theory", "--kind", "kfu-kfc", "--resolution", "10"],
    "theory_ew_kfu": ["theory", "--kind", "ew-kfu", "--resolution", "10"],
    "theory_sr_kfu": ["theory", "--kind", "sr-kfu", "--resolution", "10"],
    "simulate": [
        "simulate", "--p", "0.8", "--C", "20", "--v", "1", "--t", "4",
        "--samples", "20000", "--seed", "7",
    ],
    "simulate_perfect": [
        "simulate", "--p", "1.0", "--C", "7", "--v", "0.5", "--t", "3", "--norm", "100",
        "--samples", "20000", "--seed", "7",
    ],
}
# Commands that write one file take ``--out``; the file goes in the case directory.
OUT_FILES = {"theory": "grid.csv", "simulate": "moments.csv"}


def run_case(name, out_dir):
    argv = CASES[name]
    if argv[0] in OUT_FILES:
        out = ["--out", os.path.join(out_dir, OUT_FILES[argv[0]])]
    else:
        out = ["--out-dir", str(out_dir)]
    assert main(argv + out + ["--force"]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden(name, tmp_path):
    run_case(name, tmp_path)
    expected = sorted(os.listdir(os.path.join(GOLDEN, name)))
    assert sorted(os.listdir(tmp_path)) == expected
    for report in expected:
        with open(os.path.join(GOLDEN, name, report), "rb") as fh:
            assert (tmp_path / report).read_bytes() == fh.read(), (name, report)


if __name__ == "__main__":
    for case in sys.argv[1:] or sorted(CASES):
        os.makedirs(os.path.join(GOLDEN, case), exist_ok=True)
        run_case(case, os.path.join(GOLDEN, case))
