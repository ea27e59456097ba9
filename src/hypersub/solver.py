"""The subgradient method as a deterministic iteration engine.

One step moves from x to exp_x(lambda * s) where s is the negated subgradient
normalized to unit manifold length. The driver stops when the subgradient
norm falls to the stop threshold (the iterate is then a minimizer), when the
iteration budget runs out, or on a numerical failure; the full iterate
history is captured in a RunTrace.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .geometry import DiskPoint, Manifold
from .oracles import SubgradientOracle, format_complex, make_oracle, parse_complex
from .schedules import StepSchedule, parse_schedule


class MissingFStar(ValueError):
    """The oracle does not declare its minimum value."""


class MissingSolutionPoint(ValueError):
    """The oracle does not declare a usable solution point."""


SUBGRADIENT_ZERO = "subgradient-zero"
MAX_ITERS = "max-iters"
NUMERICAL_FAILURE = "numerical-failure"


@dataclass(frozen=True)
class SolveConfig:
    manifold: Manifold
    oracle: SubgradientOracle
    schedule: StepSchedule
    x0: DiskPoint
    max_iters: int
    stop_grad_tol: float = 1e-12
    record_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.stop_grad_tol < 0.0:
            raise ValueError("stop_grad_tol must be >= 0")
        if not self.manifold.contains(self.x0):
            raise ValueError("x0 lies outside the manifold carrier")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    point: DiskPoint
    f_value: float
    grad_norm: float
    lambda_k: float
    dist_to_s: float | None
    drift: bool


@dataclass(frozen=True)
class Termination:
    kind: str
    step: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class RunTrace:
    config: dict
    f_star: float | None
    x_star: DiskPoint | None
    dist_x0_to_solution: float | None
    records: list[IterationRecord]
    termination: Termination
    summary: dict


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def build_summary(records: list[IterationRecord], f_star: float | None) -> dict:
    """Summary statistics over the recorded iterates (shared by run() and by
    trace reloading, so the two stay bit-identical)."""
    if not records:
        return {
            "best_value": None,
            "best_gap": None,
            "final_dist_to_s": None,
            "min_gap_series": None,
        }
    best = min(r.f_value for r in records)
    summary: dict = {
        "best_value": best,
        "best_gap": None if f_star is None else best - f_star,
        "final_dist_to_s": records[-1].dist_to_s,
        "min_gap_series": None,
    }
    if f_star is not None:
        running = math.inf
        series = []
        for r in records:
            running = min(running, r.f_value - f_star)
            series.append([r.k, running])
        summary["min_gap_series"] = series
    return summary


def config_echo(cfg: SolveConfig) -> dict:
    return {
        "manifold": {"model": cfg.manifold.model, "kappa": cfg.manifold.kappa},
        "oracle": cfg.oracle.name,
        "schedule": cfg.schedule.spec,
        "x0": format_complex(cfg.x0.z),
        "max_iters": cfg.max_iters,
        "stop_grad_tol": cfg.stop_grad_tol,
        "record_every": cfg.record_every,
        "seed": cfg.seed,
    }


def run(cfg: SolveConfig) -> RunTrace:
    """Drive the method from cfg.x0 until STOP, the budget, or a failure.

    Records every ``record_every``-th iterate plus the first and the last.
    """
    m = cfg.manifold
    oracle = cfg.oracle
    sset = oracle.solution_set
    have_set = sset.kind != "unknown"
    f_star = oracle.known_min
    x_star = sset.nearest_point(m, cfg.x0)
    d0 = m.distance(cfg.x0, x_star) if x_star is not None else None

    records: list[IterationRecord] = []

    def record(k: int, x: DiskPoint, f: float, gn: float, drift: bool) -> None:
        records.append(
            IterationRecord(
                k=k,
                point=x,
                f_value=f,
                grad_norm=gn,
                lambda_k=cfg.schedule.step(k),
                dist_to_s=sset.distance_to(m, x) if have_set else None,
                drift=drift,
            )
        )

    x = cfg.x0
    drift_in = False
    termination: Termination | None = None
    k = 0
    while True:
        f, g = oracle.evaluate(m, x)
        gn = m.norm(g)
        if not (_finite(x.x, x.y) and _finite(f, gn)):
            # Records up to the failure are kept; the failing iterate itself
            # is not serialized (it would put non-finite floats in the JSON).
            termination = Termination(NUMERICAL_FAILURE, k, "non-finite value or subgradient")
            break
        recorded = k % cfg.record_every == 0
        if recorded:
            record(k, x, f, gn, drift_in)
        if gn <= cfg.stop_grad_tol:
            if not recorded:
                record(k, x, f, gn, drift_in)
            termination = Termination(SUBGRADIENT_ZERO, k)
            break
        if k == cfg.max_iters:
            if not recorded:
                record(k, x, f, gn, drift_in)
            termination = Termination(MAX_ITERS, cfg.max_iters)
            break
        lam = cfg.schedule.step(k)
        s = g.scaled(-1.0 / gn)
        try:
            x, drift_in = m.exp_with_drift(x, s.scaled(lam))
        except (ValueError, ArithmeticError) as exc:
            termination = Termination(NUMERICAL_FAILURE, k, f"step failed: {exc}")
            if not recorded:
                record(k, x, f, gn, drift_in)
            break
        k += 1

    return RunTrace(
        config=config_echo(cfg),
        f_star=f_star,
        x_star=x_star,
        dist_x0_to_solution=d0,
        records=records,
        termination=termination,
        summary=build_summary(records, f_star),
    )


def min_gap_series(trace: RunTrace) -> list[tuple[int, float]]:
    """Running minimum of f(x^k) - f* over the recorded iterates, as
    computed by build_summary."""
    if trace.f_star is None:
        raise MissingFStar("the oracle did not declare its minimum value")
    return [(k, gap) for k, gap in trace.summary["min_gap_series"] or []]


@dataclass(frozen=True)
class ComplexityReport:
    """Running-min gaps against (kappa*A*sum lambda^2 + B*d0^2)/sum lambda.

    ``rows`` holds (N, lhs, rhs, satisfied) for the supplied (A, B);
    ``fit_a``/``fit_b`` are the smallest grid pair making the bound hold at
    every recorded N, or None when no grid pair works.
    """

    a: float
    b: float
    rows: list[tuple[int, float, float, bool]]
    satisfied_all: bool
    fit_a: float | None
    fit_b: float | None


def complexity_bound_report(
    trace: RunTrace,
    a: float = 1.0,
    b: float = 1.0,
    schedule: StepSchedule | None = None,
    grid: list[float] | None = None,
) -> ComplexityReport:
    """Tabulate the rate bound along a trace and grid-fit empirical constants.

    The bound's constants are existential, so the caller supplies (a, b) to
    tabulate and a grid is searched for the smallest pair (by a+b, then a)
    satisfying every recorded N.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError("constants must be positive")
    if trace.f_star is None:
        raise MissingFStar("the oracle did not declare its minimum value")
    if trace.dist_x0_to_solution is None:
        raise MissingSolutionPoint("the oracle did not declare a solution point")
    if schedule is None:
        schedule = parse_schedule(trace.config["schedule"])
    kappa = trace.config["manifold"]["kappa"]
    d0sq = trace.dist_x0_to_solution ** 2

    # Cumulative step sums at the recorded indices, sharing one pass.
    sums: list[tuple[float, float]] = []
    s1 = s2 = 0.0
    next_k = 0
    for r in trace.records:
        while next_k <= r.k:
            lam = schedule.step(next_k)
            s1 += lam
            s2 += lam * lam
            next_k += 1
        sums.append((s1, s2))

    gaps = [g for _, g in min_gap_series(trace)]

    def rhs(n_idx: int, ca: float, cb: float) -> float:
        sl, sq = sums[n_idx]
        return (kappa * ca * sq + cb * d0sq) / sl

    rows = []
    ok_all = True
    for i, r in enumerate(trace.records):
        lhs = gaps[i]
        val = rhs(i, a, b)
        ok = lhs <= val
        ok_all = ok_all and ok
        rows.append((r.k, lhs, val, ok))

    if grid is None:
        grid = [10.0 ** e for e in range(-3, 5)]
    fit: tuple[float, float] | None = None
    for ca in grid:
        for cb in grid:
            if all(gaps[i] <= rhs(i, ca, cb) for i in range(len(trace.records))):
                if fit is None or (ca + cb, ca) < (fit[0] + fit[1], fit[0]):
                    fit = (ca, cb)
    return ComplexityReport(
        a=a,
        b=b,
        rows=rows,
        satisfied_all=ok_all,
        fit_a=None if fit is None else fit[0],
        fit_b=None if fit is None else fit[1],
    )


# -- serialization ---------------------------------------------------------------

CSV_HEADER = ["k", "x", "y", "f", "grad_norm", "lambda", "dist_to_S", "drift"]


def trace_to_dict(trace: RunTrace) -> dict:
    return {
        "config": trace.config,
        "f_star": trace.f_star,
        "x_star": None if trace.x_star is None else format_complex(trace.x_star.z),
        "dist_x0_to_solution": trace.dist_x0_to_solution,
        "records": [
            {
                "k": r.k,
                "x": r.point.x,
                "y": r.point.y,
                "f": r.f_value,
                "grad_norm": r.grad_norm,
                "lambda": r.lambda_k,
                "dist_to_s": r.dist_to_s,
                "drift": r.drift,
            }
            for r in trace.records
        ],
        "termination": {
            "kind": trace.termination.kind,
            "step": trace.termination.step,
            "reason": trace.termination.reason,
        },
        "summary": trace.summary,
    }


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and a rename, with
    the permissions an ordinary open() would give (0o666 less the umask)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        mask = os.umask(0)  # os.umask is the only portable way to read it
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace_json(trace: RunTrace, path: str | Path) -> None:
    atomic_write(Path(path), json.dumps(trace_to_dict(trace), indent=2) + "\n")


def write_trace_csv(trace: RunTrace, path: str | Path) -> None:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in trace.records:
        writer.writerow(
            [
                r.k,
                repr(r.point.x),
                repr(r.point.y),
                repr(r.f_value),
                repr(r.grad_norm),
                repr(r.lambda_k),
                "" if r.dist_to_s is None else repr(r.dist_to_s),
                int(r.drift),
            ]
        )
    atomic_write(Path(path), buf.getvalue())


def load_trace(path: str | Path) -> RunTrace:
    """Rebuild a RunTrace from its JSON file.

    Points are reconstructed without the disk-bound check so traces from the
    flat model reload cleanly.
    """
    raw = json.loads(Path(path).read_text())
    records = [
        IterationRecord(
            k=r["k"],
            point=DiskPoint(r["x"], r["y"], check=False),
            f_value=r["f"],
            grad_norm=r["grad_norm"],
            lambda_k=r["lambda"],
            dist_to_s=r["dist_to_s"],
            drift=bool(r["drift"]),
        )
        for r in raw["records"]
    ]
    x_star = raw["x_star"]
    term = raw["termination"]
    return RunTrace(
        config=raw["config"],
        f_star=raw["f_star"],
        x_star=None if x_star is None else DiskPoint.from_complex(parse_complex(x_star), check=False),
        dist_x0_to_solution=raw["dist_x0_to_solution"],
        records=records,
        termination=Termination(term["kind"], term["step"], term["reason"]),
        summary=raw["summary"],
    )


def solve_config_from_specs(
    manifold: Manifold,
    oracle_spec: str,
    schedule_spec: str,
    x0: DiskPoint,
    max_iters: int,
    stop_grad_tol: float = 1e-12,
    record_every: int = 1,
    seed: int = 0,
) -> SolveConfig:
    """Convenience constructor from registry strings (the CLI path)."""
    return SolveConfig(
        manifold=manifold,
        oracle=make_oracle(oracle_spec),
        schedule=parse_schedule(schedule_spec),
        x0=x0,
        max_iters=max_iters,
        stop_grad_tol=stop_grad_tol,
        record_every=record_every,
        seed=seed,
    )
