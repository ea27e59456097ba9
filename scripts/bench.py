#!/usr/bin/env python3
"""Run the benchmark on every workload and write BENCH_<pr>.json.

    python3 scripts/bench.py --pr 6

For each workload listed in BENCHMARK.json this runs perfbench/run.py of the
same checkout, unchanged and one process at a time: once per seed with
``--trace 0`` (the end-to-end metrics), then once with ``--trace 1`` (the
per-layer rows). The file holds the machine block of each run, every run's
one-line result, the median of each end-to-end metric per workload over the
seeds, and the line count of src/. Each ``--trace 0`` run also keeps the
median time of every phase of its timed section (``phases_ref`` in
reference-loop units, ``phases_s`` in seconds), so the split of a workload
between, say, ``run()``, the trace writers and ``load_trace`` can be read from
the file. The ``--trace 1`` rows are raw seconds and microseconds, so each
traced run is bracketed by runs of the fixed reference loop of
perfbench/calibrate.py: ``reference_loop_s`` is their median, and
``per_layer_ref`` gives every row in seconds or microseconds in units of it,
so that a row can be compared between files taken under different machine
load. Committed per change, the files give the trend of the numbers from one
change to the next.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from calibrate import reference_seconds  # noqa: E402

SEEDS = (0, 1, 2)  # workload seeds of the --trace 0 runs; the --trace 1 run uses the first
SECONDS = 30.0  # run length of each perfbench run
REF_RUNS = 5  # reference-loop runs just before and just after each --trace 1 run
SECONDS_PER_UNIT = {"s": 1.0, "us": 1e-6}


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def run_once(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    ref = [reference_seconds() for _ in range(REF_RUNS)] if trace else []
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    ref += [reference_seconds() for _ in range(REF_RUNS)] if trace else []
    # Stdout is the indented report followed by the one-line result.
    lines = done.stdout.splitlines()
    report = json.loads("\n".join(lines[:-1]))
    out = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": report["machine"],
        "result": json.loads(lines[-1]),
    }
    if trace == 0:
        # Median time of each phase of the timed section, in reference-loop
        # units and in seconds.
        wall = report["end_to_end"]["wall_ref"]
        out["phases_ref"] = {p: s["median"] for p, s in wall["phases_ref"].items()}
        out["phases_s"] = {p: s["median"] for p, s in wall["raw"]["phases_s"].items()}
    else:
        ref_s = statistics.median(ref)
        out["reference_loop_s"] = ref_s
        out["per_layer_ref"] = {
            name: row["value"] * SECONDS_PER_UNIT[row["unit"]] / ref_s
            for name, row in out["result"]["metrics"].items()
            if row["unit"] in SECONDS_PER_UNIT
        }
    return out


def medians(runs: list[dict], workloads: list[str], metrics: list[str]) -> dict:
    out = {}
    for w in workloads:
        results = [r["result"]["metrics"] for r in runs if r["workload"] == w and r["trace"] == 0]
        out[w] = {m: statistics.median(res[m]["value"] for res in results) for m in metrics}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    runs = []
    for w in workloads:
        for trace, seeds in ((0, SEEDS), (1, SEEDS[:1])):
            for seed in seeds:
                print(f"bench: {w} seed {seed} trace {trace}", file=sys.stderr, flush=True)
                runs.append(run_once(w, seed, trace))
    bench = {
        "pr": args.pr,
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "src_lines": src_lines(ROOT),
        "median_end_to_end": medians(runs, workloads, metrics),
        "runs": runs,
    }
    (ROOT / f"BENCH_{args.pr}.json").write_text(json.dumps(bench, indent=1) + "\n")
    print(json.dumps(bench["median_end_to_end"]))
    return 0 if all(r["result"]["failed"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
