#!/usr/bin/env python3
"""Run the benchmark in interleaved pairs: a parent revision against this checkout.

    python3 scripts/pairs.py --parent HEAD~1 --workload fw-budget --pairs 10

The parent's tree is exported with ``git archive`` into a temporary directory,
and this checkout's working tree (its tracked files, and its untracked files
that are not ignored) is copied beside it, so the repository is only read and
both sides run from fresh directories of the same kind. Pair i (i = 1..N) runs

    perfbench/run.py --workload W --seed i --seconds S --trace 0

in the parent's copy and in the checkout's, one process at a time, with S the
``run_seconds`` of BENCHMARK.json; the parent runs first in odd pairs and the
checkout first in even ones. For each end-to-end metric of BENCHMARK.json the
script prints every pair, each side's median and quartiles, and in how many
pairs the checkout is better (a tie counts for neither side). It says
whether a gain may be claimed: the checkout is better in at least nine tenths
of the pairs, and the medians differ in its favour by more than the distance
between the parent's quartiles. And it gives one of three verdicts against
the metric's ``bound`` (a share of the parent's median):

* ``regression``: the checkout's median is worse by more than the bound;
* ``unresolved``: the parent's quartile spread is wider than the bound, and
  not every checkout run beats every parent run, so the runs cannot show
  that the metric held;
* ``within bound``: otherwise.

With fewer than MIN_PAIRS pairs it warns that the verdicts rest on too few.
The last line of stdout is every run's one-line result, as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9  # share of the pairs the checkout must win for a gain
MIN_PAIRS = 10  # the fewest pairs a gain or a no-regression verdict rests on


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` under ``dest``; return its commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def export_worktree(dest: Path) -> None:
    """Copy this checkout's working tree under ``dest``: tracked files, and
    untracked files that are not ignored. A tracked file deleted from the
    working tree is left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in set(listed.decode().split("\0")) - {""}:
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(ROOT / name, dest / name)


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The one-line result of one benchmark run in ``tree``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), by the method perfbench/run.py summarizes with."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, parent: list[float], checkout: list[float]) -> list[str]:
    """The report lines of one end-to-end metric over the pairs."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, checkout))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(checkout)
    gain = sign * (cm - pm)
    holds = wins >= WIN_SHARE * len(parent) and gain > p3 - p1
    bound = metric["bound"]
    if -gain > bound * abs(pm):
        bounded = "regression"
    elif p3 - p1 > bound * abs(pm) and not all(sign * (c - p) > 0.0 for c in checkout for p in parent):
        bounded = "unresolved"
    else:
        bounded = "within bound"
    return [
        f"  parent   median {pm:.6g} (quartiles {p1:.6g}-{p3:.6g})",
        f"  checkout median {cm:.6g} (quartiles {c1:.6g}-{c3:.6g}), {cm / pm - 1.0:+.1%} of the parent's",
        f"  checkout better in {wins} of {len(parent)} pairs; medians differ by {abs(cm - pm):.6g}"
        f" {'in its favour' if gain > 0.0 else 'against it'}, parent quartile spread {p3 - p1:.6g}:"
        f" gain {'holds' if holds else 'not shown'}",
        f"  against a bound of {bound:.0%} of the parent's median: {bounded}",
    ]


def report(spec: dict, runs: list[dict]) -> list[str]:
    """The report lines of ``runs`` for each end-to-end metric of ``spec``,
    the parsed BENCHMARK.json, and the failed operations of each side."""
    lines = []
    if len(runs) < MIN_PAIRS:
        lines.append(f"warning: {len(runs)} pairs, below the {MIN_PAIRS} that a gain or a"
                     " no-regression verdict needs")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        checkout = [r["checkout"]["metrics"][name]["value"] for r in runs]
        lines.append(f"{name} ({runs[0]['parent']['metrics'][name]['unit']}, {metric['better']} is better)")
        lines.append("  pair  seed  first     parent        checkout")
        for r, p, c in zip(runs, parent, checkout):
            lines.append(f"  {r['pair']:<4}  {r['seed']:<4}  {r['first']:<8}  {p:<12.6g}  {c:.6g}")
        lines += verdict(metric, parent, checkout)
    failed = {side: sum(r[side]["failed"] for r in runs) for side in ("parent", "checkout")}
    attempted = {side: sum(r[side]["attempted"] for r in runs) for side in ("parent", "checkout")}
    lines.append(f"failed operations: parent {failed['parent']} of {attempted['parent']},"
                 f" checkout {failed['checkout']} of {attempted['checkout']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="revision to compare this checkout with")
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seconds = spec["run_seconds"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        parent_tree, checkout_tree = Path(tmp, "parent"), Path(tmp, "checkout")
        sha = export(args.parent, parent_tree)
        export_worktree(checkout_tree)
        print(f"{args.workload}: pairs {args.pairs}, runs of {seconds} s, parent {args.parent} ({sha[:12]})"
              " against this checkout", flush=True)
        for i in range(1, args.pairs + 1):
            sides = [("parent", parent_tree), ("checkout", checkout_tree)]
            if i % 2 == 0:
                sides.reverse()
            pair = {"pair": i, "seed": i, "first": sides[0][0]}
            for side, tree in sides:
                pair[side] = bench(tree, args.workload, i, seconds)
            runs.append(pair)
            print(f"  pair {i} done, {pair['first']} first", file=sys.stderr, flush=True)

    print("\n".join(report(spec, runs)))
    print(json.dumps({"workload": args.workload, "parent": sha, "seconds": seconds, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
