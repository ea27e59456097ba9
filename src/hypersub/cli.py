"""Command-line front end: solve experiments, run verification suites, and
reproduce the disk example.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 verification
violation, 5 reproduction assertion failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .geometry import EUCLIDEAN_PLANE, ORIGIN, POINCARE_DISK, DiskPoint, Manifold, scaled_disk
from .oracles import make_oracle, parse_complex
from .schedules import parse_schedule, partial_sums
from .solver import (
    NUMERICAL_FAILURE,
    RunTrace,
    SolveConfig,
    atomic_write,
    run,
    solve_config_from_specs,
    write_trace_csv,
    write_trace_json,
)
from . import verify as verify_mod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VIOLATION = 4
EXIT_REPRODUCTION = 5

CONFIG_KEYS = {
    "name",
    "manifold",
    "oracle",
    "schedule",
    "x0",
    "max_iters",
    "record_every",
    "seed",
    "stop_grad_tol",
    "out_dir",
}
REQUIRED_KEYS = ("name", "manifold", "oracle", "schedule", "x0", "max_iters")


class ConfigError(Exception):
    def __init__(self, key: str, message: str):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


def read_config(path: Path) -> dict[str, str]:
    """Flat key = value text; '#' starts a comment, unknown keys rejected."""
    if not path.exists():
        raise ConfigError("<file>", f"cannot read {path}")
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("<line>", f"line {lineno} is not 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(key, "unknown key")
        if key in entries:
            raise ConfigError(key, "duplicate key")
        entries[key] = value.strip()
    for key in REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(key, "missing required key")
    return entries


def parse_manifold(spec: str) -> Manifold:
    name, _, body = spec.partition(":")
    name = name.strip()
    if name == "poincare":
        if body:
            raise ValueError("the Poincaré disk takes no parameters")
        return POINCARE_DISK
    if name == "euclidean":
        if body:
            raise ValueError("the Euclidean plane takes no parameters")
        return EUCLIDEAN_PLANE
    if name == "scaled":
        key, _, value = body.partition("=")
        if key.strip() != "kappa":
            raise ValueError(f"scaled disk needs kappa=<value>, got {spec!r}")
        return scaled_disk(float(value))
    raise ValueError(f"unknown manifold {name!r}")


def build_solve_config(entries: dict[str, str]) -> tuple[str, Path, SolveConfig]:
    def parse(key: str, fn):
        try:
            return fn(entries[key])
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(key, str(exc)) from None

    name = entries["name"]
    manifold = parse("manifold", parse_manifold)
    x0 = parse("x0", lambda s: DiskPoint.from_complex(parse_complex(s), check=not manifold.flat))
    oracle = parse("oracle", make_oracle)
    schedule = parse("schedule", parse_schedule)
    max_iters = parse("max_iters", int)
    record_every = parse("record_every", int) if "record_every" in entries else 1
    seed = parse("seed", int) if "seed" in entries else 0
    tol = parse("stop_grad_tol", float) if "stop_grad_tol" in entries else 1e-12
    out_dir = Path(entries.get("out_dir", "."))
    try:
        cfg = SolveConfig(
            manifold=manifold,
            oracle=oracle,
            schedule=schedule,
            x0=x0,
            max_iters=max_iters,
            stop_grad_tol=tol,
            record_every=record_every,
            seed=seed,
        )
    except ValueError as exc:
        msg = str(exc)
        key = next(
            (k for k in ("max_iters", "record_every", "stop_grad_tol", "x0") if k in msg),
            "<config>",
        )
        raise ConfigError(key, msg) from None
    return name, out_dir, cfg


def _atomic_json(path: Path, payload: dict) -> None:
    atomic_write(path, json.dumps(payload, indent=2) + "\n")


def solve_summary(name: str, cfg: SolveConfig, trace: RunTrace) -> dict:
    steps_taken = trace.records[-1].k if trace.records else 0
    if steps_taken > 0:
        sum_lam, sum_lam_sq = partial_sums(cfg.schedule, steps_taken - 1)
    else:
        sum_lam, sum_lam_sq = 0.0, 0.0
    return {
        "name": name,
        "termination": trace.termination.kind,
        "termination_step": trace.termination.step,
        "best_value": trace.summary["best_value"],
        "best_gap": trace.summary["best_gap"],
        "final_dist_to_s": trace.summary["final_dist_to_s"],
        "sum_lambda": sum_lam,
        "sum_lambda_sq": sum_lam_sq,
        "n_records": len(trace.records),
    }


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        entries = read_config(Path(args.config))
        name, out_dir, cfg = build_solve_config(entries)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
    trace = run(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_json(trace, out_dir / f"{name}.trace.json")
    write_trace_csv(trace, out_dir / f"{name}.trace.csv")
    _atomic_json(out_dir / f"{name}.summary.json", solve_summary(name, cfg, trace))
    print(f"{name}: {trace.termination.kind} after {trace.records[-1].k if trace.records else 0} iterations")
    if trace.termination.kind == NUMERICAL_FAILURE:
        print(f"numerical failure: {trace.termination.reason}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    least = verify_mod.MIN_N.get(args.suite, 1)
    if args.n is not None and args.n < least:
        print(
            f"config error: --n must be >= {least} for {args.suite}, got {args.n}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    if args.tol is not None and args.suite not in verify_mod.TOL_GOVERNS:
        print(f"config error: --tol is not accepted by {args.suite}", file=sys.stderr)
        return EXIT_CONFIG
    if args.tol is not None and not args.tol >= 0.0:
        print(f"config error: --tol must be >= 0, got {args.tol}", file=sys.stderr)
        return EXIT_CONFIG
    reports = verify_mod.run_suite(args.suite, n=args.n, seed=args.seed, tol=args.tol)
    for r in reports:
        print(
            f"{r.check}: n={r.n} violations={r.violations} "
            f"worst_margin={r.worst_margin:.3e} tol={r.tolerance:.1e}"
        )
    payload = [r.to_json() for r in reports]
    report_path = Path(args.report) if args.report else Path(f"verify-{args.suite}.report.json")
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
    worst_re = max(abs(r.point.x) for r in trace.records)
    if worst_re >= 1e-10:
        failures.append(f"iterates left the y-axis: max |Re| = {worst_re:.3e}")
    worst_slack = -math.inf
    for prev, nxt in zip(trace.records, trace.records[1:]):
        d_prev = m.distance(prev.point, ORIGIN)
        d_next = m.distance(nxt.point, ORIGIN)
        slack = d_next - max(prev.lambda_k, d_prev)
        worst_slack = max(worst_slack, slack)
    if worst_slack > 1e-12:
        failures.append(f"per-step bound violated: worst slack = {worst_slack:.3e}")
    n_steps = trace.records[-1].k if trace.records else 0
    final_dist = trace.records[-1].dist_to_s
    if n_steps > 0:
        tail_start = max(0, n_steps - max(1, n_steps // 10))
        bound = max(r.lambda_k for r in trace.records if r.k >= tail_start)
    else:
        bound = trace.records[0].lambda_k if trace.records else 0.0
    if final_dist is not None and final_dist > bound:
        failures.append(
            f"final distance {final_dist:.3e} above the tail step bound {bound:.3e}"
        )
    return failures


def cmd_reproduce(args: argparse.Namespace) -> int:
    try:
        x0 = DiskPoint.from_complex(parse_complex(args.x0))
    except ValueError as exc:
        print(f"config error: x0: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    cfg = solve_config_from_specs(
        manifold=POINCARE_DISK,
        oracle_spec="two-busemann",
        schedule_spec="harmonic:c=1.0",
        x0=x0,
        max_iters=args.steps,
    )
    trace = run(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_json(trace, out_dir / "disk_example.trace.json")
    write_trace_csv(trace, out_dir / "disk_example.trace.csv")
    failures = reproduce_assertions(trace)
    lines = [
        "disk example reproduction",
        "=========================",
        f"x0 = {args.x0}, schedule = harmonic:c=1.0, budget = {args.steps} steps",
        f"termination: {trace.termination.kind} at k = {trace.termination.step}",
        f"iterates recorded: {len(trace.records)}",
        f"max |Re x_k|: {max(abs(r.point.x) for r in trace.records):.3e}",
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
    atomic_write(out_dir / "disk_example.report.txt", report)
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

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "suite",
        choices=["law-of-cosines", "key-theorem", "per-step", "sublevel", "gradcheck", "all"],
    )
    p_verify.add_argument("--n", type=int, default=None, help="sample count override")
    p_verify.add_argument("--seed", type=int, default=0)
    governs = "; ".join(f"{suite}: {check}" for suite, check in verify_mod.TOL_GOVERNS.items())
    p_verify.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"tolerance override ({governs}); sublevel and all reject it",
    )
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
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


def console_main() -> None:
    sys.exit(main())
