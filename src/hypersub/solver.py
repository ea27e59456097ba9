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
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterable, Iterator

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

# The numerical zero of the STOP rule 0 in df(x), echoed in every trace as
# "stop_grad_tol". A subgradient of norm g at x gives f(x) - f* <= g * d(x, S),
# so an iterate where run() stops on it is a minimizer to machine precision.
STOP_GRAD_TOL = 1e-12


@dataclass(frozen=True)
class SolveConfig:
    manifold: Manifold
    oracle: SubgradientOracle
    schedule: StepSchedule
    x0: DiskPoint
    max_iters: int
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ConfigError("max_iters", f"must be >= 1, got {self.max_iters}")
        if self.record_every < 1:
            raise ConfigError("record_every", f"must be >= 1, got {self.record_every}")
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
    best = min((r.f_value for r in records), default=None)
    summary: dict = {
        "best_value": best,
        "best_gap": None if f_star is None or best is None else best - f_star,
        "final_dist_to_s": records[-1].dist_to_s if records else None,
        "min_gap_series": None,
    }
    if f_star is not None and records:
        running = accumulate((r.f_value - f_star for r in records), min)
        summary["min_gap_series"] = [[r.k, gap] for r, gap in zip(records, running)]
    return summary


def config_echo(cfg: SolveConfig) -> dict:
    return {
        "manifold": {"model": cfg.manifold.model, "kappa": cfg.manifold.kappa},
        "oracle": cfg.oracle.name,
        "schedule": cfg.schedule.spec,
        "x0": format_complex(cfg.x0.z),
        "max_iters": cfg.max_iters,
        "stop_grad_tol": STOP_GRAD_TOL,
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
    stop_grad_tol, max_iters, record_every = STOP_GRAD_TOL, cfg.max_iters, cfg.record_every
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

    # Step sums up to each recorded k; np.cumsum adds left to right, as a running
    # sum does. Squaring in place keeps at most two arrays of n steps alive.
    ks = [r.k for r in trace.records]
    n = ks[-1] + 1 if ks else 0
    lams = np.fromiter(map(schedule.step, range(n)), float, n)
    sl = np.cumsum(lams)[ks]
    lams *= lams
    sq = np.cumsum(lams)[ks]
    gaps = [g for _, g in min_gap_series(trace)]
    gaps_arr = np.array(gaps)

    def rhs(ca: float, cb: float) -> np.ndarray:
        # Elementwise, the same IEEE operations as on Python floats.
        return (kappa * ca * sq + cb * d0sq) / sl

    vals = rhs(a, b)
    oks = gaps_arr <= vals
    rows = list(zip(ks, gaps, vals.tolist(), oks.tolist()))

    grid = [10.0 ** e for e in range(-3, 5)]
    passing = [(ca + cb, ca, cb) for ca in grid for cb in grid if np.all(gaps_arr <= rhs(ca, cb))]
    _, fit_a, fit_b = min(passing, default=(None, None, None))
    return ComplexityReport(
        a=a,
        b=b,
        rows=rows,
        satisfied_all=bool(oks.all()),
        fit_a=fit_a,
        fit_b=fit_b,
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


def atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path`` as they are produced, through a
    temporary file and a rename, with the permissions an ordinary open()
    would give (0o666 less the umask). If producing a chunk raises, the
    temporary file is removed and ``path`` keeps what it held."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
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


def _json_rows(template: str, rows: Iterable[tuple], level: int) -> Iterator[str]:
    """A JSON array ``level`` containers deep of rows of scalars; ``template``
    lays out one row, one %s per scalar, after its separator."""
    s = _json_scalar
    first = True
    for row in rows:
        text = template % tuple([s(v) for v in row])
        if first:
            text, first = "[" + text[1:], False
        yield text
    yield "[]" if first else "\n" + "  " * level + "]"


# The two long arrays as json.dumps(indent=2) lays them out: a record is an
# object two containers deep, a min-gap pair a list three deep.
_RECORD_KEYS = ("k", "x", "y", "f", "grad_norm", "lambda", "dist_to_s", "drift")
_RECORD_JSON = ",\n    {" + ",".join(f'\n      "{key}": %s' for key in _RECORD_KEYS) + "\n    }"
_PAIR_JSON = ",\n      [\n        %s,\n        %s\n      ]"
_RECORDS_AT = '\n  "records": []'
_SERIES_AT = '\n    "min_gap_series": []'


def write_trace_json(trace: RunTrace, path: str | Path) -> None:
    """Write the bytes of ``json.dumps(trace_to_dict(trace), indent=2)`` and
    a newline. json.dumps lays out the trace with both long arrays empty; the
    records and the min-gap series are streamed into it through one row
    template each, which spares json's pure-Python indenting encoder."""
    series = trace.summary.get("min_gap_series")
    summary = {**trace.summary, "min_gap_series": []} if series else trace.summary
    text = json.dumps(trace_to_dict(replace(trace, records=[], summary=summary)), indent=2)
    rows = (
        (r.k, r.z.real, r.z.imag, r.f_value, r.grad_norm, r.lambda_k, r.dist_to_s, r.drift)
        for r in trace.records
    )
    # Each marker occurs once: it starts with a newline, which json.dumps never
    # writes raw inside a string, and at its indent the only "records" is the
    # top-level member and the only "min_gap_series" after it the summary's.
    head, tail = text.split(_RECORDS_AT)
    chunks = [[head + _RECORDS_AT[:-2]], _json_rows(_RECORD_JSON, rows, 1)]
    if series:
        head, tail = tail.split(_SERIES_AT)
        chunks += [[head + _SERIES_AT[:-2]], _json_rows(_PAIR_JSON, series, 2)]
    atomic_write(Path(path), chain(*chunks, [tail + "\n"]))


def write_trace_csv(trace: RunTrace, path: str | Path) -> None:
    """Write the records as CSV_HEADER rows, streamed: floats by repr, an
    absent distance as an empty field, the drift flag as 0 or 1."""
    rows = (
        "%d,%r,%r,%r,%r,%r,%s,%d\n"
        % (r.k, r.z.real, r.z.imag, r.f_value, r.grad_norm, r.lambda_k,
           "" if r.dist_to_s is None else repr(r.dist_to_s), r.drift)
        for r in trace.records
    )
    atomic_write(Path(path), chain([",".join(CSV_HEADER) + "\n"], rows))


_RECORD_KEY_SET = frozenset(_RECORD_KEYS)


def _record_from_json(obj: dict):
    """json object_hook: an object with exactly the record keys and numeric
    x and y becomes an IterationRecord as it is parsed; any other object stays
    a dict."""
    if obj.keys() == _RECORD_KEY_SET:
        x, y = obj["x"], obj["y"]
        if type(x) in (float, int) and type(y) in (float, int):
            return IterationRecord(
                obj["k"], complex(x, y), obj["f"], obj["grad_norm"], obj["lambda"],
                obj["dist_to_s"], bool(obj["drift"]),
            )
    return obj


def _record_fault(obj) -> str:
    """What keeps a parsed record object from being an IterationRecord."""
    if type(obj) is not dict:
        return f"is not an object: {obj!r}"
    missing = [key for key in _RECORD_KEYS if key not in obj]
    if missing:
        return f"misses key(s) {', '.join(missing)}"
    extra = [key for key in obj if key not in _RECORD_KEY_SET]
    if extra:
        return f"has extra key(s) {', '.join(extra)}"
    return f"has a non-numeric coordinate: x = {obj['x']!r}, y = {obj['y']!r}"


def load_trace(path: str | Path) -> RunTrace:
    """Rebuild a RunTrace from its JSON file.

    Each record object becomes an IterationRecord while the text is parsed,
    so the record dicts are never all alive at once. A record's point is read
    back as ``complex(x, y)``, with no disk-bound check, so traces from the
    flat model reload cleanly. A record with a missing or extra key or a
    non-numeric coordinate raises ValueError naming its index.
    """
    raw = json.loads(Path(path).read_text(), object_hook=_record_from_json)
    records = raw["records"]
    for i, r in enumerate(records):
        if type(r) is not IterationRecord:
            raise ValueError(f"{path}: record {i} {_record_fault(r)}")
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
