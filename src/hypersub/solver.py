"""The subgradient method as a deterministic iteration engine.

One step moves from x to exp_x(lambda * s) where s is the negated subgradient
normalized to unit manifold length. The driver stops when the subgradient
norm falls to the stop threshold (the iterate is then a minimizer), when the
iteration budget runs out, or on a numerical failure; the full iterate
history is captured in a RunTrace.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .geometry import DiskPoint, Manifold
from .oracles import SINGLE_POINT, SubgradientOracle, format_complex, parse_complex
from .schedules import StepSchedule, parse_schedule


class ConfigError(ValueError):
    """A rejected input; ``key`` names the config key, field or CLI flag at
    fault and ``reason`` says what is wrong with it."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"{key} {reason}")
        self.key = key
        self.reason = reason


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

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ConfigError("max_iters", f"must be >= 1, got {self.max_iters}")
        if self.record_every < 1:
            raise ConfigError("record_every", f"must be >= 1, got {self.record_every}")
        if not self.stop_grad_tol >= 0.0:
            raise ConfigError("stop_grad_tol", f"must be >= 0, got {self.stop_grad_tol}")
        if not self.manifold.contains(self.x0):
            raise ConfigError("x0", f"= {format_complex(self.x0.z)} lies outside the manifold carrier")
        point = self.oracle.solution_set.point
        if point is not None and not self.manifold.contains(point):
            raise ConfigError(
                "oracle", f"solution point {format_complex(point.z)} lies outside the manifold carrier"
            )
        if self.oracle.disk_only and self.manifold.flat:
            raise ConfigError("oracle", f"{self.oracle.name} is defined on disk models only")


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One recorded iterate; ``z`` is the point x + iy as a complex number."""

    k: int
    z: complex
    f_value: float
    grad_norm: float
    lambda_k: float
    dist_to_s: float | None
    drift: bool

    @property
    def point(self) -> DiskPoint:
        """The iterate as a DiskPoint, built on each read."""
        return DiskPoint(self.z.real, self.z.imag, check=False)


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


def build_summary(records: list[IterationRecord], f_star: float | None) -> dict:
    """Summary statistics over the recorded iterates, stored in the trace
    (``load_trace`` reads them back rather than recomputing them)."""
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
    }


def run(cfg: SolveConfig) -> RunTrace:
    """Drive the method from cfg.x0 until STOP, the budget, or a failure.

    Records every ``record_every``-th iterate plus the first and the last.
    A non-finite value, subgradient or step, and a step size the schedule
    rejects, end the run with NUMERICAL_FAILURE; the records are kept.
    """
    m = cfg.manifold
    oracle = cfg.oracle
    sset = oracle.solution_set
    f_star = oracle.known_min
    x_star = sset.nearest_point(m, cfg.x0)
    d0 = m.distance(cfg.x0, x_star) if x_star is not None else None

    records: list[IterationRecord] = []
    point_z = sset.point.z if sset.kind == SINGLE_POINT else None

    # The loop runs on complex points and subgradient components; z stays
    # finite because exp_z raises on a non-finite endpoint.
    fn, step, norm_z, exp_z = oracle.fn, cfg.schedule.step, m.norm_z, m.exp_z
    stop_grad_tol, max_iters, record_every = cfg.stop_grad_tol, cfg.max_iters, cfg.record_every
    isfinite = math.isfinite
    z = cfg.x0.z
    drift_in = False
    k = 0
    while True:
        f, g = fn(m, z)
        gn = norm_z(z, g)
        if not (isfinite(f) and isfinite(gn)):
            # Records up to the failure are kept; the failing iterate itself
            # is not serialized (it would put non-finite floats in the JSON).
            termination = Termination(NUMERICAL_FAILURE, k, "non-finite value or subgradient")
            break
        try:
            lam = step(k)
        except ValueError as exc:
            termination = Termination(NUMERICAL_FAILURE, k, f"step size failed: {exc}")
            break
        termination = None
        if gn <= stop_grad_tol:
            termination = Termination(SUBGRADIENT_ZERO, k)
        elif k == max_iters:
            termination = Termination(MAX_ITERS, k)
        else:
            # Scale component by component, in the rounding of Tangent.scaled:
            # first by -1/|g|, then by the step size.
            c = -1.0 / gn
            try:
                z_next, drift_next = exp_z(z, complex(g.real * c * lam, g.imag * c * lam))
            except (ValueError, ArithmeticError) as exc:
                termination = Termination(NUMERICAL_FAILURE, k, f"step failed: {exc}")
        if termination is not None or k % record_every == 0:
            if point_z is not None:
                dist = m.distance_z(z, point_z)
            else:
                # No bound check: z is x0 or an output of exp_z (see its docstring).
                dist = sset.distance_to(m, DiskPoint(z.real, z.imag, check=False))
            records.append(IterationRecord(k, z, f, gn, lam, dist, drift_in))
        if termination is not None:
            break
        z, drift_in = z_next, drift_next
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
) -> ComplexityReport:
    """Tabulate the rate bound along a trace and grid-fit empirical constants.

    The bound's constants are existential, so the caller supplies (a, b) to
    tabulate and the grid 10^-3 .. 10^4 is searched for the smallest pair (by
    a+b, then a) satisfying every recorded N. The steps are those of the
    schedule rebuilt from the trace's config echo.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError("constants must be positive")
    if trace.f_star is None:
        raise MissingFStar("the oracle did not declare its minimum value")
    if trace.dist_x0_to_solution is None:
        raise MissingSolutionPoint("the oracle did not declare a solution point")
    schedule = parse_schedule(trace.config["schedule"])
    kappa = trace.config["manifold"]["kappa"]
    d0sq = trace.dist_x0_to_solution ** 2

    # Cumulative step sums at the recorded indices, sharing one pass.
    s1s: list[float] = []
    s2s: list[float] = []
    s1 = s2 = 0.0
    next_k = 0
    for r in trace.records:
        while next_k <= r.k:
            lam = schedule.step(next_k)
            s1 += lam
            s2 += lam * lam
            next_k += 1
        s1s.append(s1)
        s2s.append(s2)
    sl, sq = np.array(s1s), np.array(s2s)
    gaps = [g for _, g in min_gap_series(trace)]
    gaps_arr = np.array(gaps)

    def rhs(ca: float, cb: float) -> np.ndarray:
        # Elementwise, the same IEEE operations as on Python floats.
        return (kappa * ca * sq + cb * d0sq) / sl

    vals = rhs(a, b)
    oks = gaps_arr <= vals
    rows = list(zip([r.k for r in trace.records], gaps, vals.tolist(), oks.tolist()))

    grid = [10.0 ** e for e in range(-3, 5)]
    fit: tuple[float, float] | None = None
    for ca in grid:
        for cb in grid:
            if np.all(gaps_arr <= rhs(ca, cb)):
                if fit is None or (ca + cb, ca) < (fit[0] + fit[1], fit[0]):
                    fit = (ca, cb)
    return ComplexityReport(
        a=a,
        b=b,
        rows=rows,
        satisfied_all=bool(oks.all()),
        fit_a=None if fit is None else fit[0],
        fit_b=None if fit is None else fit[1],
    )


# -- serialization ---------------------------------------------------------------

CSV_HEADER = ["k", "x", "y", "f", "grad_norm", "lambda", "dist_to_S", "drift"]


def trace_to_dict(trace: RunTrace) -> dict:
    """The trace as a JSON-ready dict; ``write_trace_json`` writes the bytes
    of ``json.dumps(trace_to_dict(trace), indent=2)``."""
    return {
        "config": trace.config,
        "f_star": trace.f_star,
        "x_star": None if trace.x_star is None else format_complex(trace.x_star.z),
        "dist_x0_to_solution": trace.dist_x0_to_solution,
        "records": [
            {
                "k": r.k,
                "x": r.z.real,
                "y": r.z.imag,
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


def _json_scalar(v) -> str:
    """``v`` as json.dumps writes it, without its call overhead for a finite
    float, an int and the three constants."""
    if type(v) is float:
        if v - v == 0.0:  # finite; json writes nan and inf its own way
            return repr(v)
    elif v is None:
        return "null"
    elif v is True:
        return "true"
    elif v is False:
        return "false"
    elif type(v) is int:
        return repr(v)
    return json.dumps(v)


def _json_nested(value, level: int) -> list[str]:
    """json.dumps(value, indent=2) as it reads ``level`` containers deep."""
    return [json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)]


def _json_object(members: dict[str, list[str]], level: int) -> list[str]:
    """A JSON object ``level`` containers deep, laid out as by
    json.dumps(indent=2), from the text chunks of its member values."""
    if not members:
        return ["{}"]
    pad = "\n" + "  " * (level + 1)
    chunks = ["{"]
    for key, value in members.items():
        chunks.append(f"{pad}{json.dumps(key)}: ")
        chunks += value
        chunks.append(",")
    chunks[-1] = "\n" + "  " * level + "}"
    return chunks


def _json_rows(template: str, rows: Iterable[tuple], level: int) -> list[str]:
    """A JSON array ``level`` containers deep of rows of scalars; ``template``
    lays out one row, one %s per scalar, and ends in the separator."""
    s = _json_scalar
    chunks = [template % tuple([s(v) for v in row]) for row in rows]
    if not chunks:
        return ["[]"]
    chunks[-1] = chunks[-1][:-1]
    return ["[", *chunks, "\n" + "  " * level + "]"]


# The two long arrays as json.dumps(indent=2) lays them out: a record is an
# object two containers deep, a min-gap pair a list three deep.
_RECORD_KEYS = ("k", "x", "y", "f", "grad_norm", "lambda", "dist_to_s", "drift")
_RECORD_JSON = "\n    {" + ",".join(f'\n      "{key}": %s' for key in _RECORD_KEYS) + "\n    },"
_PAIR_JSON = "\n      [\n        %s,\n        %s\n      ],"


def write_trace_json(trace: RunTrace, path: str | Path) -> None:
    """Write the bytes of ``json.dumps(trace_to_dict(trace), indent=2)`` and
    a newline. The records and the min-gap series go through one row template
    each, which spares json's pure-Python indenting encoder."""
    head = trace_to_dict(replace(trace, records=[], summary={}))
    members = {key: _json_nested(value, 1) for key, value in head.items()}
    rows = (
        (r.k, r.z.real, r.z.imag, r.f_value, r.grad_norm, r.lambda_k, r.dist_to_s, r.drift)
        for r in trace.records
    )
    members["records"] = _json_rows(_RECORD_JSON, rows, 1)
    members["summary"] = _json_object(
        {
            key: _json_rows(_PAIR_JSON, value, 2)
            if key == "min_gap_series" and value is not None
            else _json_nested(value, 2)
            for key, value in trace.summary.items()
        },
        1,
    )
    atomic_write(Path(path), "".join([*_json_object(members, 0), "\n"]))


def write_trace_csv(trace: RunTrace, path: str | Path) -> None:
    """Write the records as CSV_HEADER rows: floats by repr, an absent
    distance as an empty field, the drift flag as 0 or 1."""
    lines = [",".join(CSV_HEADER) + "\n"]
    lines += [
        "%d,%r,%r,%r,%r,%r,%s,%d\n"
        % (r.k, r.z.real, r.z.imag, r.f_value, r.grad_norm, r.lambda_k,
           "" if r.dist_to_s is None else repr(r.dist_to_s), r.drift)
        for r in trace.records
    ]
    atomic_write(Path(path), "".join(lines))


def load_trace(path: str | Path) -> RunTrace:
    """Rebuild a RunTrace from its JSON file.

    A record's point is read back as ``complex(x, y)``, with no disk-bound
    check, so traces from the flat model reload cleanly.
    """
    raw = json.loads(Path(path).read_text())
    records = [
        IterationRecord(
            r["k"],
            complex(r["x"], r["y"]),
            r["f"],
            r["grad_norm"],
            r["lambda"],
            r["dist_to_s"],
            bool(r["drift"]),
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

