"""Benchmark of the hypersub package: one workload, one seed, one result.

    python3 perfbench/run.py --workload fw-budget --seed 0 --seconds 30 --trace 0

Workloads (NOTES.md records why each was chosen):
  fw-budget   3-anchor hyperbolic Fermat-Weber solve through run(), 10^5
              steps, a record every 1000 steps
  fw-trace    the same solve recording every step, then write_trace_json,
              write_trace_csv, load_trace, min_gap_series and
              complexity_bound_report on the result
  cli-verify  every CLI command at its default size through cli.main: the
              five verify suites, solve on both bundled configs and
              reproduce-example

With --trace 0 the run repeats its workload, single-threaded and in this
process, until --seconds have passed, checks every output, and reports the
end-to-end metrics as medians over the repetitions, with times in units of
the reference loop of calibrate.py; set-up is timed in separate child
processes. With --trace 1 it makes one untraced pass of the
workload (the base of trace_overhead_frac), then one traced pass over every
workload body, times the per-call layer rows, writes the spans under
.perfbench-out/, and reports the per-layer metrics. Stdout ends with the
full report (machine block, sample counts, quartiles, failed checks)
followed by the one-line result JSON.

Exit status 0 after a result, 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
CONFIGS = ROOT / "scripts" / "configs"
WORKLOADS = ("fw-budget", "fw-trace", "cli-verify")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120
SINGLE_THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class ProgramMissing(Exception):
    """The checkout does not hold the package sources the benchmark runs."""


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hypersub
    except ImportError as exc:
        raise ProgramMissing(f"cannot import hypersub from {src}: {exc}") from None
    if src.resolve() not in Path(hypersub.__file__).resolve().parents:
        raise ProgramMissing(f"hypersub was imported from {hypersub.__file__}, not from {src}")
    for name in ("two_busemann", "ball_hinge"):
        if not (CONFIGS / f"{name}.cfg").is_file():
            raise ProgramMissing(f"bundled config {name}.cfg is missing")


# -- machine block ----------------------------------------------------------------


def _steal_ticks() -> int:
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8])


def _loadavg() -> list[float]:
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


def _cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def machine_start() -> dict:
    return {"loadavg_start": _loadavg(), "steal_ticks_start": _steal_ticks()}


def machine_block(start: dict) -> dict:
    import numpy

    steal = _steal_ticks() - start["steal_ticks_start"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "loadavg_start": start["loadavg_start"],
        "loadavg_end": _loadavg(),
        "steal_ticks": steal,
        "steal_s": steal / os.sysconf("SC_CLK_TCK"),
    }


# -- child processes -------------------------------------------------------------------


def _child(args: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )
    return done.stdout.strip().splitlines()[-1]


def reference(seed: int):
    from workloads import Reference

    raw = json.loads(_child([str(HERE / "reference.py"), "--seed", str(seed)]))
    return Reference(raw["f_star"], complex(*raw["x_star"]))


def setup_times(workload: str, seed: int, size: str, ref) -> list[float]:
    args = [str(HERE / "setup_probe.py"), workload, str(seed), size]
    args += [repr(ref.f_star), repr(ref.x_star.real), repr(ref.x_star.imag)]
    return [float(_child(args)) for _ in range(SETUP_REPEATS)]


# -- measurement --------------------------------------------------------------------


def repeat(body, seconds: float) -> list:
    """Run body() until ``seconds`` have passed, at least once."""
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        gc.collect()
        outcomes.append(body(None))
    return outcomes


def summarize(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "median": statistics.median(values),
        "q1": q[0],
        "q3": q[2],
        "min": min(values),
        "max": max(values),
        "samples": len(values),
    }


class Bench:
    """One workload at one seed and size, with everything its passes need."""

    def __init__(self, workload: str, seed: int, size: str, workdir: Path, ref) -> None:
        import workloads
        from instance import BUDGET_RECORD_EVERY, SIZES, TRACE_RECORD_EVERY, fermat_weber

        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.steps, self.verify_n = SIZES[size]
        self.inst = fermat_weber(seed)
        self.ref = ref
        self.workdir = workdir
        self.record_every = {"fw-budget": BUDGET_RECORD_EVERY, "fw-trace": TRACE_RECORD_EVERY}

    def body(self, name: str):
        if name == "cli-verify":
            return lambda tracer: self.w.cli_pass(self.verify_n, self.seed, CONFIGS, self.workdir, tracer)
        every = self.record_every[name]
        return lambda tracer: self.w.fw_pass(self.inst, self.ref, self.steps, every, self.workdir, tracer)

    def phases(self, name: str, out) -> list[str]:
        """The phases that make up the workload's timed section."""
        if name == "fw-budget":
            return ["solver.run"]
        if name == "fw-trace":
            return list(self.w.FW_PHASES)
        return list(out.times)

    def wall(self, name: str, out) -> float:
        return out.total(self.phases(name, out))


def end_to_end(bench: Bench, outcomes: list, setup: list[float]) -> dict:
    """name -> (unit, value, detail) of each end-to-end metric.

    Every phase time is divided by the reference-loop time measured around
    it, and each phase is summarized by the median of those ratios over the
    repetitions. wall_ref is the sum of the phase medians; the same sums of
    raw seconds are reported as wall_s and ops_per_s.
    """
    name = bench.workload
    names = bench.phases(name, outcomes[0])
    raw = {p: summarize([o.times[p] for o in outcomes]) for p in names}
    rel = {p: summarize([o.times[p] / o.ref[p] for o in outcomes]) for p in names}
    if name == "cli-verify":
        ops = bench.w.verify_samples(outcomes[0], bench.verify_n)
        ops_phases = bench.w.verify_phases(bench.verify_n)
    else:
        ops, ops_phases = bench.steps, ["solver.run"]
    wall_ref = sum(s["median"] for s in rel.values())
    ops_ref = ops / sum(rel[p]["median"] for p in ops_phases)
    raw_detail = {
        "wall_s": sum(s["median"] for s in raw.values()),
        "ops_per_s": ops / sum(raw[p]["median"] for p in ops_phases),
        "reference_loop_s": summarize([r for o in outcomes for r in o.ref.values()]),
        "phases_s": raw,
    }
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": ("s", statistics.median(setup), summarize(setup)),
        "wall_ref": ("ref", wall_ref, {"repetitions": len(outcomes), "phases_ref": rel, "raw": raw_detail}),
        "ops_per_ref": ("1/ref", ops_ref, {"ops": ops}),
        "peak_rss_mb": ("MB", rss, {"source": "ru_maxrss of the benchmark process"}),
    }


def traced_pass(bench: Bench, untraced_wall: float):
    """One traced pass over every workload body plus the per-call rows.

    Returns (per-layer metrics, outcomes of the traced passes, tracer).
    """
    import layers
    from tracer import Tracer

    tracer = Tracer()
    roots, passes = {}, {}
    for name in WORKLOADS:
        gc.collect()
        with tracer.span(f"workload.{name}") as root:
            passes[name] = bench.body(name)(tracer)
        roots[name] = root

    steps = bench.steps
    run_b = tracer.find("solver.run", roots["fw-budget"])
    run_t = tracer.find("solver.run", roots["fw-trace"])
    passes["fw-budget"].record("run() span accounting", tracer.accounting_errors(run_b))
    passes["fw-trace"].record("run() span accounting", tracer.accounting_errors(run_t))
    evaluations = tracer.children(run_b, "oracles.evaluate")
    starts = [tracer.starts[i] for i in evaluations]
    step_us = [(b - a) * 1e-3 for a, b in zip(starts, starts[1:])]
    pct = statistics.quantiles(step_us, n=100)
    fwt, cv = passes["fw-trace"], passes["cli-verify"]

    rows = {
        "geometry.drift_count": ("count", passes["fw-budget"].counts["drift_count"] + fwt.counts["drift_count"]),
        "oracles.evaluate_us_per_step": ("us", sum(tracer.duration_s(i) for i in evaluations) / steps * 1e6),
        "solver.step_us_p50": ("us", pct[49]),
        "solver.step_us_p99": ("us", pct[98]),
        "solver.self_us_per_step": ("us", tracer.self_time_s(run_b) / steps * 1e6),
        "solver.record_us_per_step": ("us", (tracer.duration_s(run_t) - tracer.duration_s(run_b)) / steps * 1e6),
        "solver.write_json_s": ("s", fwt.times["solver.write_json"]),
        "solver.write_csv_s": ("s", fwt.times["solver.write_csv"]),
        "solver.load_trace_s": ("s", fwt.times["solver.load_trace"]),
        "solver.min_gap_series_s": ("s", fwt.times["solver.min_gap_series"]),
        "solver.complexity_report_s": ("s", fwt.times["solver.complexity_report"]),
        "solver.json_bytes": ("bytes", fwt.counts["json_bytes"]),
        "solver.csv_bytes": ("bytes", fwt.counts["csv_bytes"]),
        "solver.records": ("count", fwt.counts["records"]),
    }
    for phase in bench.w.verify_phases(bench.verify_n):
        rows[f"{phase}_s"] = ("s", cv.times[phase])
        rows[f"{phase}_samples"] = ("count", cv.counts[f"{phase}_samples"])
    for phase in ("cli.solve_two_busemann", "cli.solve_ball_hinge", "cli.reproduce_example"):
        rows[f"{phase}_s"] = ("s", cv.times[phase])
    fw_oracle = bench.w.fw_config(bench.inst, bench.ref, steps, 1).oracle
    rows.update((k, ("us", v)) for k, v in layers.measure(bench.seed, fw_oracle).items())
    traced_wall = bench.wall(bench.workload, passes[bench.workload])
    rows["trace_overhead_frac"] = ("ratio", traced_wall / untraced_wall - 1.0)
    return rows, list(passes.values()), tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one hypersub benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)

    os.environ.update(SINGLE_THREAD_ENV)
    start = machine_start()
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    ref = reference(args.seed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "reference": {"f_star": ref.f_star, "x_star": [ref.x_star.real, ref.x_star.imag]},
        "ops": "verify samples (summed report n) of the verify commands"
        if args.workload == "cli-verify"
        else "solver steps inside run()",
    }
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        bench = Bench(args.workload, args.seed, args.size, Path(tmp), ref)
        if args.trace:
            # One untraced pass is the base of trace_overhead_frac; the
            # end-to-end figures come from the untraced runs only.
            outcomes = [bench.body(args.workload)(None)]
            untraced_wall = bench.wall(args.workload, outcomes[0])
            rows, traced, tracer = traced_pass(bench, untraced_wall)
            outcomes += traced
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(spans_path)
            metrics = {k: {"value": v, "unit": u} for k, (u, v) in rows.items()}
            report.update(untraced_wall_s=untraced_wall, spans=str(spans_path.relative_to(ROOT)))
        else:
            setup = setup_times(args.workload, args.seed, args.size, ref)
            outcomes = repeat(bench.body(args.workload), args.seconds)
            e2e = end_to_end(bench, outcomes, setup)
            metrics = {k: {"value": v, "unit": u} for k, (u, v, _) in e2e.items()}
            report["end_to_end"] = {k: {"value": v, "unit": u, **d} for k, (u, v, d) in e2e.items()}

    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    report.update(
        machine=machine_block(start),
        attempted=attempted,
        failed=len(failures),
        failed_frac=len(failures) / attempted,
        failures=failures,
    )
    if args.trace:
        report["per_layer"] = metrics
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
