"""Steadiness report: run workloads over several seeds and print, per
end-to-end metric, the median, the quartiles, the quartile spread and the
range as shares of the median, against the metric's bound.

    python3 perfbench/steadiness.py --workload fw-budget --seeds 0 1 2 3 4
    python3 perfbench/steadiness.py --seeds 0 1 2 3 4 5 6 7 8 9 --sets 2

Bounds and the default run length come from BENCHMARK.json. A spread is
flagged when it exceeds a third of the bound (the benchmark's own steadiness
target); with --sets 2 the seeds are run twice and each metric's second
median is compared with the first. Each run's report and result line are
appended to .perfbench-out/steadiness.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(full report, result line) of one run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


def worse_by(metric: dict, first: float, second: float) -> float:
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    log = ROOT / ".perfbench-out" / "steadiness.jsonl"
    log.parent.mkdir(exist_ok=True)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in names:
        sets = []
        for _ in range(args.sets):
            results = []
            for seed in args.seeds:
                report, result = run_once(workload, seed, args.seconds)
                with log.open("a") as fh:
                    fh.write(json.dumps({"result": result, "report": report}) + "\n")
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
                results.append(result)
            sets.append(results)

        print(f"\n{workload}: {len(args.seeds)} seeds x {args.sets} set(s), {args.seconds} s per run")
        print(f"{'metric':14s} {'unit':5s} {'bound':>5s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'rng/med':>8s} {'drift':>7s}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            medians = []
            for i, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                iqr, rng = (q3 - q1) / med, (max(values) - min(values)) / med
                medians.append(med)
                drift = f"{worse_by(metric, medians[0], med):+7.3f}" if i else ""
                flag = "" if name == "setup_s" or iqr <= metric["bound"] / 3 else "  spread > bound/3"
                print(f"{name:14s} {metric['unit']:5s} {metric['bound']:5.2f} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {iqr:8.3f} {rng:8.3f} {drift:>7s}{flag}")
        print(flush=True)


if __name__ == "__main__":
    main()
