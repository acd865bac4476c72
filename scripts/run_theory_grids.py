#!/usr/bin/env python3
"""Produce the three expected-gap surfaces and the Gaussian-limit curve.

Writes plot-ready CSVs for each rule comparison (estimated-weight fusion vs
true-weight fusion, equal weighting vs fusion, subset rule vs fusion) plus
the KS convergence of the standardized detection walk.

Usage:
    python scripts/run_theory_grids.py --out-dir results/theory --seed 7
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from crowdfuse.gaps import (
    GapKind,
    figure_grid,
    gaussian_limit_check,
    write_convergence_csv,
    write_grid_csv,
)
from crowdfuse.quincunx import Judge


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results/theory")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--resolution", type=int, default=50)
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for kind in GapKind:
        grid = figure_grid(kind, args.resolution)
        path = os.path.join(args.out_dir, f"grid_{kind.value}.csv")
        write_grid_csv(grid, path)
        print(f"wrote {path} ({grid.values.size} cells)")

    rng = np.random.default_rng(args.seed)
    points = gaussian_limit_check(Judge(0.75), [4, 16, 64, 256], 100_000, rng)
    path = os.path.join(args.out_dir, "gaussian_limit.csv")
    write_convergence_csv(points, path)
    print(f"wrote {path}: " + ", ".join(f"C={c}: {d:.4f}" for c, d in points))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
