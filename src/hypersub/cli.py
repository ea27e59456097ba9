"""Command-line front end: solve experiments, run verification suites, and
reproduce the disk example.

Exit codes: 0 ok, 2 config error (a rejected key or flag, or a file that
cannot be read or written), 3 numerical failure, 4 verification violation,
5 reproduction assertion failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from .geometry import EUCLIDEAN_PLANE, POINCARE_DISK, Manifold, scaled_disk
from .oracles import make_oracle, parse_point, parse_spec, two_busemann_oracle
from .schedules import harmonic, parse_schedule, partial_sums
from .solver import (
    NUMERICAL_FAILURE,
    ConfigError,
    RunTrace,
    SolveConfig,
    atomic_write,
    run,
    stop_threshold,
    write_trace_csv,
    write_trace_json,
)
from . import verify as verify_mod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VIOLATION = 4
EXIT_REPRODUCTION = 5


def parse_manifold(spec: str) -> Manifold:
    return parse_spec(spec, "manifold", {
        "poincare": (lambda: POINCARE_DISK, {}),
        "euclidean": (lambda: EUCLIDEAN_PLANE, {}),
        "scaled": (scaled_disk, {"kappa": (float, None)}),
    })


# The SolveConfig field each config key sets, with the parser of its text;
# SolveConfig itself checks the parsed values against each other.
FIELD_PARSERS = {
    "manifold": parse_manifold,
    "oracle": make_oracle,
    "schedule": parse_schedule,
    "x0": parse_point,
    "max_iters": int,
    "record_every": int,
}
CONFIG_KEYS = {"name", "out_dir", *FIELD_PARSERS}
REQUIRED_KEYS = ("name", "manifold", "oracle", "schedule", "x0", "max_iters")


def read_config(path: Path) -> dict[str, str]:
    """Flat key = value text; '#' starts a comment, unknown keys rejected."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"is not UTF-8 text: {exc}") from None
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"is not 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(key, "is not a config key")
        if key in entries:
            raise ConfigError(key, "is set twice")
        entries[key] = value.strip()
    for key in REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(key, "is required but missing")
    return entries


def _parse_field(key: str, text: str):
    """``FIELD_PARSERS[key](text)``; a ValueError becomes a ConfigError of
    ``key`` that quotes ``text`` once. A parse error already quotes it and
    stands as it is; a builder's error, which does not, follows the quoted
    text."""
    try:
        return FIELD_PARSERS[key](text)
    except ValueError as exc:
        reason = str(exc)
        if repr(text) not in reason:
            reason = f"{text!r} is rejected: {reason}"
        raise ConfigError(key, reason) from None


def build_solve_config(entries: dict[str, str]) -> tuple[str, Path, SolveConfig]:
    name = entries["name"]
    if not name or Path(name).name != name:
        raise ConfigError("name", f"must be a plain file name, got {name!r}")
    cfg = SolveConfig(**{key: _parse_field(key, entries[key]) for key in FIELD_PARSERS if key in entries})
    return name, Path(entries.get("out_dir", ".")), cfg


def _atomic_json(path: Path, payload: dict) -> None:
    atomic_write(path, [json.dumps(payload, indent=2) + "\n"])


def solve_summary(name: str, cfg: SolveConfig, trace: RunTrace, wall_s: float, write_s: float) -> dict:
    """The summary of a solve. ``stop_threshold`` is the STOP threshold the
    run applied, set from the first record's subgradient norm (None when no
    iterate was recorded). ``drift_count`` and ``min_boundary_gap`` (smallest
    1 - |z|, None on the plane) range over the recorded iterates; ``wall_s``
    is the wall time of run(), ``write_s`` that of writing the trace JSON and
    CSV."""
    steps = trace.termination.step
    if steps > 0:
        sum_lam, sum_lam_sq = partial_sums(cfg.schedule, steps - 1)
    else:
        sum_lam, sum_lam_sq = 0.0, 0.0
    return {
        "name": name,
        "termination": trace.termination.kind,
        "termination_step": steps,
        "stop_threshold": stop_threshold(trace.records[0].grad_norm) if trace.records else None,
        "best_value": trace.summary["best_value"],
        "best_gap": trace.summary["best_gap"],
        "final_dist_to_s": trace.summary["final_dist_to_s"],
        "sum_lambda": sum_lam,
        "sum_lambda_sq": sum_lam_sq,
        "n_records": len(trace.records),
        "drift_count": sum(r.drift for r in trace.records),
        "min_boundary_gap": None
        if cfg.manifold.flat or not trace.records
        else min(1.0 - abs(r.z) for r in trace.records),
        "wall_s": wall_s,
        "steps_per_s": steps / wall_s,
        "write_s": write_s,
    }


def cmd_solve(args: argparse.Namespace) -> int:
    name, out_dir, cfg = build_solve_config(read_config(Path(args.config)))
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
    t0 = time.perf_counter()
    trace = run(cfg)
    t1 = time.perf_counter()
    write_trace_json(trace, out_dir / f"{name}.trace.json")
    write_trace_csv(trace, out_dir / f"{name}.trace.csv")
    write_s = time.perf_counter() - t1
    summary = solve_summary(name, cfg, trace, t1 - t0, write_s)
    _atomic_json(out_dir / f"{name}.summary.json", summary)
    print(f"{name}: {trace.termination.kind} after {trace.termination.step} iterations")
    if trace.termination.kind == NUMERICAL_FAILURE:
        print(f"numerical failure: {trace.termination.reason}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # An unusable report path fails here, before the suite runs. Nothing is
    # created until the report is written, after run_suite checked the flags.
    report_path = Path(args.report) if args.report else Path(f"verify-{args.suite}.report.json")
    if report_path.is_dir():
        raise ConfigError("--report", f"cannot be written: {report_path} is a directory")
    ancestor = next(a for a in report_path.parents if a.exists())
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ConfigError("--report", f"cannot be written: {ancestor} is not a writable directory")
    reports = verify_mod.run_suite(args.suite, n=args.n, seed=args.seed)
    for r in reports:
        print(
            f"{r.check}: n={r.n} violations={r.violations} "
            f"worst_margin={r.worst_margin:.3e} tol={r.tolerance:.1e}"
        )
    payload = [r.to_json() for r in reports]
    _atomic_json(report_path, {"suite": args.suite, "reports": payload})
    failing = [r.check for r in reports if not r.ok]
    if failing:
        print(f"violations in: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def reproduce_assertions(trace: RunTrace) -> list[str]:
    """The three checks of the disk-example reproduction; returns failure
    messages (empty list means all hold)."""
    m = POINCARE_DISK
    failures: list[str] = []
    worst_re = max(abs(r.z.real) for r in trace.records)
    if worst_re >= 1e-10:
        failures.append(f"iterates left the y-axis: max |Re| = {worst_re:.3e}")
    worst_slack = -math.inf
    for prev, nxt in zip(trace.records, trace.records[1:]):
        d_prev = m.distance_z(prev.z, 0j)
        d_next = m.distance_z(nxt.z, 0j)
        slack = d_next - max(prev.lambda_k, d_prev)
        worst_slack = max(worst_slack, slack)
    if worst_slack > 1e-12:
        failures.append(f"per-step bound violated: worst slack = {worst_slack:.3e}")
    n_steps = trace.records[-1].k
    final_dist = trace.records[-1].dist_to_s
    # n_steps = 0 gives -1, which keeps the only record.
    tail_start = n_steps - max(1, n_steps // 10)
    bound = max(r.lambda_k for r in trace.records if r.k >= tail_start)
    if final_dist is not None and final_dist > bound:
        failures.append(
            f"final distance {final_dist:.3e} above the tail step bound {bound:.3e}"
        )
    return failures


def cmd_reproduce(args: argparse.Namespace) -> int:
    try:
        x0 = _parse_field("x0", args.x0)
        cfg = SolveConfig(POINCARE_DISK, two_busemann_oracle(), harmonic(1.0), x0, args.steps)
    except ConfigError as exc:
        raise ConfigError({"x0": "--x0", "max_iters": "--steps"}[exc.key], exc.reason) from None
    trace = run(cfg)
    out_dir = Path(args.out_dir)
    write_trace_json(trace, out_dir / "disk_example.trace.json")
    write_trace_csv(trace, out_dir / "disk_example.trace.csv")
    failures = reproduce_assertions(trace)
    lines = [
        "disk example reproduction",
        "=========================",
        f"x0 = {args.x0}, schedule = {cfg.schedule.spec}, budget = {args.steps} steps",
        f"termination: {trace.termination.kind} at k = {trace.termination.step}",
        f"iterates recorded: {len(trace.records)}",
        f"max |Re x_k|: {max(abs(r.z.real) for r in trace.records):.3e}",
        f"final f: {trace.records[-1].f_value:.6e}",
        f"final distance to the solution set: {trace.records[-1].dist_to_s:.6e}",
        "",
        "checks:",
        "  (i) iterates stay on the y-axis",
        "  (ii) d(x_{k+1}, 0) <= max(lambda_k, d(x_k, 0)) at every step",
        "  (iii) final distance below the largest step of the last 10%",
    ]
    if failures:
        lines.append("FAILED:")
        lines.extend(f"  - {msg}" for msg in failures)
    else:
        lines.append("all checks passed")
    report = "\n".join(lines) + "\n"
    atomic_write(out_dir / "disk_example.report.txt", [report])
    print(report, end="")
    return EXIT_REPRODUCTION if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersub",
        description="Subgradient method on the Poincaré disk with executable "
        "comparison inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run an experiment from a config file")
    p_solve.add_argument("config", help="flat key = value config file")
    p_solve.add_argument("--out-dir", default=None, help="override the output directory")
    p_solve.set_defaults(fn=cmd_solve)

    suites = verify_mod.SUITES
    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=[*suites, "all"])
    counts = "; ".join(f"{name}: {s.counts}, default {s.n}" for name, s in suites.items())
    p_verify.add_argument("--n", type=int, default=None, help=f"sample count ({counts})")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--report", default=None, help="report JSON path")
    p_verify.set_defaults(fn=cmd_verify)

    p_rep = sub.add_parser(
        "reproduce-example", help="rerun the bundled disk experiment and check its bounds"
    )
    p_rep.add_argument("--steps", type=int, default=10_000)
    p_rep.add_argument("--x0", default="0.0+0.9i")
    p_rep.add_argument("--out-dir", default=".")
    p_rep.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:  # a rejected input, or a path that cannot be used
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
