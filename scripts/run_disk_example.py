#!/usr/bin/env python3
"""Run the disk experiment end to end and print a compact table.

Equivalent to `hypersub reproduce-example` plus a per-decade view of the
iterate radius against the step size, handy when eyeballing the contraction
d(x_{k+1}, 0) <= max(lambda_k, d(x_k, 0)).
"""

import argparse
import sys
from pathlib import Path

from hypersub.cli import EXIT_CONFIG, main as cli_main
from hypersub.solver import load_trace


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=10_000)
    parser.add_argument("--x0", default="0.0+0.9i")
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args(argv)

    code = cli_main(
        ["reproduce-example", "--steps", str(args.steps), "--x0", args.x0,
         "--out-dir", args.out_dir]
    )
    if code == EXIT_CONFIG:  # nothing was run, so there is no trace to show
        return code
    trace = load_trace(Path(args.out_dir) / "disk_example.trace.json")
    print()
    print("   k        d(x_k, 0)      lambda_k")
    k_shown = 1
    for rec in trace.records:
        if rec.k in (0, trace.records[-1].k) or rec.k == k_shown:
            print(f"{rec.k:>6}   {rec.dist_to_s:.6e}   {rec.lambda_k:.6e}")
            k_shown = max(k_shown * 10, 1)
    return code


if __name__ == "__main__":
    sys.exit(run())
