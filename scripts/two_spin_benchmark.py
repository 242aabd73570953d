#!/usr/bin/env python3
"""Short-horizon two-spin benchmark: stochastic ensemble vs exact propagation.

Runs the shipped two-spin exchange system over a horizon where the
unraveling's statistics are healthy, prints a per-time comparison table,
and writes the full output set (CSV + binary + manifest) through the CLI
(``snbd compare``), whose errors and exit codes it passes on.

    python scripts/two_spin_benchmark.py [--m 2000] [--t-final 0.5] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from snbd.cli import main as snbd_main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "two_spin_heisenberg.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=2000)
    parser.add_argument("--t-final", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=20250808)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="out/two_spin_benchmark")
    args = parser.parse_args(argv)

    status = snbd_main([
        "compare", "--config", str(CONFIG), "--seed", str(args.seed),
        "--workers", str(args.workers), "--out", args.out,
        f"--ensemble.M={args.m}", f"--time.t_final={args.t_final!r}",
        "--verbose"])
    if status != 0:
        return status
    table = np.genfromtxt(Path(args.out) / "compare.csv", delimiter=",",
                          names=True)
    print(f"\n{'t':>6} {'trace_dist':>11} {'5*SE':>9} {'fidelity':>9}")
    for row in np.atleast_1d(table):
        print(f"{row['t']:6.2f} {row['trace_distance']:11.5f} "
              f"{5 * row['trace_distance_se']:9.5f} {row['fidelity']:9.5f}")
    print(f"\noutputs in {args.out}/ (see manifest.json)")
    return status


if __name__ == "__main__":
    sys.exit(main())
