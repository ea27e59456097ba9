"""Workload bodies and the checks on their outputs.

Every call goes through the package's public names: ``run``, ``SolveConfig``,
``weighted_sum``, ``distance_oracle``, the trace writers and readers,
``min_gap_series``, ``complexity_bound_report`` and ``hypersub.cli.main``.
A pass returns an ``Outcome``: the time of each named phase, exact counts,
and one entry per attempted operation that failed its check.

With a ``Tracer`` the phases become spans, and inside ``run()`` only the
callables the benchmark supplies are wrapped: the oracle ``fn`` (span
``oracles.evaluate``) and the schedule ``fn`` (span ``schedules.step``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from hypersub import (
    POINCARE_DISK,
    DiskPoint,
    RunTrace,
    SolutionSet,
    SolveConfig,
    complexity_bound_report,
    distance_oracle,
    harmonic,
    load_trace,
    min_gap_series,
    run,
    weighted_sum,
    write_trace_csv,
    write_trace_json,
)
from hypersub import cli

from calibrate import reference_seconds
from instance import FermatWeber
from tracer import Tracer

# The reference may sit above the solver's best value by rounding only.
GAP_FLOOR = 1e-9
# Bundled configs and where each must stop.
BUNDLED_SOLVES = {"two_busemann": 640, "ball_hinge": 8}
FW_PHASES = (
    "solver.run",
    "solver.write_json",
    "solver.write_csv",
    "solver.load_trace",
    "solver.min_gap_series",
    "solver.complexity_report",
)


@dataclass(frozen=True)
class Reference:
    """Minimum value and minimizer of a Fermat-Weber instance."""

    f_star: float
    x_star: complex


def gap_bound(steps: int, inst: FermatWeber) -> float:
    """Upper bound on the best gap after ``steps`` harmonic steps.

    The objective is sum(w)-Lipschitz, and the normalized iterates end within
    a few of the last step lengths 1/(steps+1) of the minimizer, also when it
    sits on an anchor where the objective has a kink.
    """
    return 3.0 * sum(inst.weights) / (steps + 1)


@dataclass
class Outcome:
    times: dict[str, float] = field(default_factory=dict)
    # Mean reference-loop time just before and just after each untraced phase.
    ref: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, operation: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{operation}: " + "; ".join(problems))

    def total(self, names) -> float:
        return sum(self.times[n] for n in names)


def _timed(out: Outcome, tracer: Tracer | None, name: str, fn: Callable, *args):
    """Call fn(*args), storing its wall time under ``name``: between two runs
    of the reference loop, or as a span when tracing."""
    if tracer is None:
        before = reference_seconds()
        t0 = time.perf_counter()
        result = fn(*args)
        out.times[name] = time.perf_counter() - t0
        out.ref[name] = 0.5 * (before + reference_seconds())
        return result
    with tracer.span(name) as index:
        result = fn(*args)
    out.times[name] = tracer.duration_s(index)
    return result


# -- Fermat-Weber workloads (fw-budget, fw-trace) ---------------------------------


def fw_config(
    inst: FermatWeber,
    ref: Reference,
    steps: int,
    record_every: int,
    tracer: Tracer | None = None,
) -> SolveConfig:
    oracle = weighted_sum(
        [distance_oracle(DiskPoint.from_complex(a)) for a in inst.anchors],
        list(inst.weights),
        name="fermat-weber",
        known_min=ref.f_star,
        solution_set=SolutionSet.single_point(DiskPoint.from_complex(ref.x_star)),
    )
    schedule = harmonic(1.0)
    if tracer is not None:
        oracle = dataclasses.replace(oracle, fn=tracer.wrap("oracles.evaluate", oracle.fn))
        schedule = dataclasses.replace(schedule, fn=tracer.wrap("schedules.step", schedule.fn))
    return SolveConfig(
        manifold=POINCARE_DISK,
        oracle=oracle,
        schedule=schedule,
        x0=DiskPoint.from_complex(inst.x0),
        max_iters=steps,
        record_every=record_every,
    )


def expected_records(steps: int, record_every: int) -> int:
    return steps // record_every + 1 + (1 if steps % record_every else 0)


def check_run(trace: RunTrace, inst: FermatWeber, ref: Reference, steps: int, record_every: int) -> list[str]:
    problems = []
    term = trace.termination
    if (term.kind, term.step) != ("max-iters", steps):
        problems.append(f"terminated {term.kind} at {term.step}, expected max-iters at {steps}")
    if len(trace.records) != expected_records(steps, record_every):
        problems.append(f"{len(trace.records)} records")
    for r in trace.records:
        values = (r.point.x, r.point.y, r.f_value, r.grad_norm, r.lambda_k, r.dist_to_s)
        if not all(v is not None and math.isfinite(v) for v in values):
            problems.append(f"non-finite record at k={r.k}")
            break
    drift = sum(r.drift for r in trace.records)
    if drift:
        problems.append(f"drift_count = {drift}")
    if trace.records:
        gap = min(r.f_value for r in trace.records) - ref.f_star
        bound = gap_bound(steps, inst)
        if not -GAP_FLOOR <= gap <= bound:
            problems.append(f"best_gap {gap:.3e} outside [-{GAP_FLOOR:.0e}, {bound:.3e}]")
    return problems


def check_csv(path: Path, trace: RunTrace) -> list[str]:
    with path.open() as fh:
        header = fh.readline().rstrip("\n")
        rows = sum(1 for _ in fh)
    problems = []
    if header != "k,x,y,f,grad_norm,lambda,dist_to_S,drift":
        problems.append(f"header {header!r}")
    if rows != len(trace.records):
        problems.append(f"{rows} rows for {len(trace.records)} records")
    return problems


def check_round_trip(trace: RunTrace, loaded: RunTrace) -> list[str]:
    problems = []
    if loaded.records != trace.records:
        problems.append("reloaded records differ")
    if (loaded.termination, loaded.f_star, loaded.config) != (trace.termination, trace.f_star, trace.config):
        problems.append("reloaded termination, f_star or config differ")
    return problems


def check_series(series: list[tuple[int, float]], trace: RunTrace) -> list[str]:
    problems = []
    if len(series) != len(trace.records):
        problems.append(f"{len(series)} entries for {len(trace.records)} records")
    if any(b[1] > a[1] for a, b in zip(series, series[1:])):
        problems.append("running minimum increases")
    if series and series[-1][1] != trace.summary["best_gap"]:
        problems.append("last entry differs from the summary best_gap")
    return problems


def fw_pass(
    inst: FermatWeber,
    ref: Reference,
    steps: int,
    record_every: int,
    workdir: Path,
    tracer: Tracer | None = None,
) -> Outcome:
    """Solve, write both trace formats, reload, and analyse the trace."""
    out = Outcome()
    cfg = fw_config(inst, ref, steps, record_every, tracer)
    trace = _timed(out, tracer, "solver.run", run, cfg)
    out.record("run", check_run(trace, inst, ref, steps, record_every))

    json_path = workdir / "fw.trace.json"
    csv_path = workdir / "fw.trace.csv"
    _timed(out, tracer, "solver.write_json", write_trace_json, trace, json_path)
    out.record("write_trace_json", [] if json_path.stat().st_size else ["empty file"])
    _timed(out, tracer, "solver.write_csv", write_trace_csv, trace, csv_path)
    out.record("write_trace_csv", check_csv(csv_path, trace))
    loaded = _timed(out, tracer, "solver.load_trace", load_trace, json_path)
    out.record("load_trace", check_round_trip(trace, loaded))
    del loaded
    series = _timed(out, tracer, "solver.min_gap_series", min_gap_series, trace)
    out.record("min_gap_series", check_series(series, trace))
    report = _timed(out, tracer, "solver.complexity_report", complexity_bound_report, trace)
    out.record("complexity_bound_report", [] if report.fit_a is not None else ["no (A, B) fit"])

    out.counts.update(
        steps=steps,
        records=len(trace.records),
        drift_count=sum(r.drift for r in trace.records),
        json_bytes=json_path.stat().st_size,
        csv_bytes=csv_path.stat().st_size,
    )
    return out


# -- CLI workload (cli-verify) -------------------------------------------------------


def _key(name: str) -> str:
    return name.replace("-", "_")


def verify_argv(suite: str, n: int, seed: int, workdir: Path) -> list[str]:
    report = workdir / f"verify-{suite}.report.json"
    return ["verify", suite, "--n", str(n), "--seed", str(seed), "--report", str(report)]


def cli_commands(verify_n: dict[str, int], seed: int, configs: Path, workdir: Path) -> list[tuple[str, list[str]]]:
    """(phase name, argv) of every command the cli-verify workload runs."""
    commands = [(f"verify.{_key(s)}", verify_argv(s, n, seed, workdir)) for s, n in verify_n.items()]
    for name in BUNDLED_SOLVES:
        commands.append((f"cli.solve_{name}", ["solve", str(configs / f"{name}.cfg"), "--out-dir", str(workdir)]))
    commands.append(("cli.reproduce_example", ["reproduce-example", "--out-dir", str(workdir)]))
    return commands


def call_cli(argv: list[str]) -> tuple[int | str, str]:
    """Run ``hypersub.cli.main`` in-process; return (exit code, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed operation, not a crash of the benchmark
        code = f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue()


def check_verify(suite: str, n: int, reports: list[dict]) -> list[str]:
    problems = [f"{r['check']}: {r['violations']} violations" for r in reports if r["violations"]]
    sizes = [r["n"] for r in reports]
    if not reports or min(sizes) < 1:
        problems.append(f"report sizes {sizes}")
    elif suite == "key-theorem":
        analytic = sum(r["n"] for r in reports if r["hypothesis_mode"] == "analytic")
        if analytic != n:
            problems.append(f"analytic batches hold {analytic} samples, requested {n}")
    elif suite == "per-step":
        # --n is the harvest run's step budget; the three reports share the
        # harvested samples.
        if len(set(sizes)) != 1:
            problems.append(f"report sizes {sizes} differ")
    elif any(s != n for s in sizes):
        problems.append(f"report sizes {sizes}, requested {n}")
    return problems


def cli_pass(
    verify_n: dict[str, int],
    seed: int,
    configs: Path,
    workdir: Path,
    tracer: Tracer | None = None,
) -> Outcome:
    """Every CLI command at its default size, through in-process cli.main."""
    out = Outcome()
    for phase, argv in cli_commands(verify_n, seed, configs, workdir):
        code, stdout = _timed(out, tracer, phase, call_cli, argv)
        problems = [] if code == 0 else [f"exit {code}"]
        if argv[0] == "verify" and code == 0:
            suite = argv[1]
            reports = json.loads(Path(argv[-1]).read_text())["reports"]
            problems += check_verify(suite, verify_n[suite], reports)
            out.counts[f"{phase}_samples"] = sum(r["n"] for r in reports)
        elif argv[0] == "solve" and code == 0:
            name = Path(argv[1]).stem
            summary = json.loads((workdir / f"{name}.summary.json").read_text())
            got = (summary["termination"], summary["termination_step"])
            if got != ("subgradient-zero", BUNDLED_SOLVES[name]):
                problems.append(f"ended {got}, expected subgradient-zero at {BUNDLED_SOLVES[name]}")
        elif argv[0] == "reproduce-example" and "all checks passed" not in stdout:
            problems.append("report lacks 'all checks passed'")
        out.record(phase, problems)
    return out


def verify_phases(verify_n: dict[str, int]) -> list[str]:
    return [f"verify.{_key(s)}" for s in verify_n]


def verify_samples(out: Outcome, verify_n: dict[str, int]) -> int:
    return sum(out.counts.get(f"{p}_samples", 0) for p in verify_phases(verify_n))
