"""The subgradient method as a deterministic iteration engine.

One step moves from x to exp_x(lambda * s) where s is the negated subgradient
normalized to unit manifold length. The driver stops when the subgradient
norm falls to the stop threshold, set relative to the first subgradient norm
(the iterate is then a minimizer), when the iteration budget runs out, or on
a numerical failure; the full iterate history is captured in a RunTrace.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import tempfile
from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate, chain
from operator import getitem, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .geometry import BOUNDARY_CLAMP, DRIFT_EPS, DiskPoint, Manifold
from .oracles import SubgradientOracle, format_complex, parse_point
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

# The unit of the STOP rule's numerical zero, echoed in every trace as
# "stop_grad_tol". A subgradient of norm g at x gives f(x) - f* <= g * d(x, S),
# so an iterate where run() stops on it is a minimizer to machine precision.
STOP_GRAD_TOL = 1e-12


def stop_threshold(gn0: float) -> float:
    """The STOP threshold of a run whose first subgradient norm is ``gn0``:
    STOP_GRAD_TOL scaled to the binade [2^(e-1), 2^e) of gn0, so STOP_GRAD_TOL
    itself for gn0 in [1, 2). A power-of-two scaling of f scales it exactly,
    so the iterates of c * f and f agree bit for bit for c = 2^j. For a
    subnormal gn0 it underflows to 0.0, and only a zero subgradient stops."""
    return math.ldexp(STOP_GRAD_TOL, math.frexp(gn0)[1] - 1)


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


class IterationRecord(NamedTuple):
    """One recorded iterate; ``z`` is the point x + iy as a complex number.
    A tuple, so it is immutable, unpacks in field order and is changed with
    ``_replace``."""

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
    """The best value, its gap to f* and the last distance to S over the
    recorded iterates: the trace's summary, which ``run`` builds and
    ``load_trace`` rebuilds from the records it reads. The min-gap series is
    not stored; see ``min_gap_series``."""
    best = min((r.f_value for r in records), default=None)
    return {
        "best_value": best,
        "best_gap": None if f_star is None or best is None else best - f_star,
        "final_dist_to_s": records[-1].dist_to_s if records else None,
    }


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
    # The distance every record's dist_to_s takes, so records[0] agrees.
    d0 = sset.distance_to(m, cfg.x0.z)

    records: list[IterationRecord] = []

    # The loop runs on complex points and subgradient components; z stays
    # finite because every endpoint is checked. A step's norm and exp are the
    # formulas of norm_z and exp_z written out, sharing 1 - |z|^2; a step that
    # exp_z ends early or fails (v zero or not finite, a non-finite endpoint)
    # goes to exp_z itself. tests/test_solver.py pins the two copies.
    fn, lam_at, step, exp_z = oracle.fn, cfg.schedule.fn, cfg.schedule.step, m.exp_z
    flat, kappa = m.flat, m.kappa
    record, distance_to = IterationRecord._make, sset.distance_to
    max_iters, record_every = cfg.max_iters, cfg.record_every
    hypot, tanh, isfinite, isfinite_c = math.hypot, math.tanh, math.isfinite, cmath.isfinite
    near_circle = 1.0 - DRIFT_EPS
    z = cfg.x0.z
    drift_in = False
    k = 0
    while True:
        f, g = fn(m, z)
        if flat:
            gn = hypot(g.real, g.imag)
        else:
            s = 1.0 - (z.real * z.real + z.imag * z.imag)
            gn = 2.0 * hypot(g.real, g.imag) / (s * kappa)
        if not (isfinite(f) and isfinite(gn)):
            # Records up to the failure are kept; the failing iterate itself
            # is not serialized (it would put non-finite floats in the JSON).
            termination = Termination(NUMERICAL_FAILURE, k, "non-finite value or subgradient")
            break
        try:
            lam = lam_at(k)
            if not lam > 0.0:
                lam = step(k)  # raises the schedule's own rejection
        except ValueError as exc:
            termination = Termination(NUMERICAL_FAILURE, k, f"step size failed: {exc}")
            break
        if k == 0:
            stop_tol = stop_threshold(gn)
        termination = None
        if gn <= stop_tol:
            termination = Termination(SUBGRADIENT_ZERO, k)
        elif k == max_iters:
            termination = Termination(MAX_ITERS, k)
        else:
            # Scale component by component, in the rounding of Tangent.scaled:
            # first by -1/|g|, then by the step size. For a subnormal |g|,
            # 1/|g| overflows, and the components are divided by |g| instead.
            c = -1.0 / gn
            if isfinite(c):
                v = complex(g.real * c * lam, g.imag * c * lam)
            else:
                v = complex(-g.real / gn * lam, -g.imag / gn * lam)
            try:
                if flat:
                    w = z + v
                elif v:
                    a = abs(v)
                    t = 2.0 * a / s
                    u = v / a
                    r = tanh(0.5 * t)
                    w = (u * r + z) / (1.0 + z.conjugate() * u * r)
                # w is read only for a nonzero v, for which it was just computed.
                if v and isfinite_c(w):
                    z_next, drift_next = w, False
                    if not flat:
                        a = abs(w)
                        if a >= near_circle:
                            z_next, drift_next = w * (BOUNDARY_CLAMP / a), True
                else:
                    z_next, drift_next = exp_z(z, v)
            except (ValueError, ArithmeticError) as exc:
                termination = Termination(NUMERICAL_FAILURE, k, f"step failed: {exc}")
        if termination is not None or k % record_every == 0:
            records.append(record((k, z, f, gn, lam, distance_to(m, z), drift_in)))
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
    """Running minimum of f(x^k) - f* over the recorded iterates, as (k, gap)
    pairs, computed from the records on each call; empty when there are none."""
    f_star = trace.f_star
    if f_star is None:
        raise MissingFStar("the oracle did not declare its minimum value")
    records = trace.records
    running = accumulate((r.f_value - f_star for r in records), min)
    return [(r.k, gap) for r, gap in zip(records, running)]


@dataclass(frozen=True)
class ComplexityReport:
    """Running-min gaps against (kappa*A*sum lambda^2 + B*d0^2)/sum lambda.

    ``rows`` holds (N, lhs, rhs, satisfied) for the supplied (A, B);
    ``fit_a``/``fit_b`` are the smallest grid pair making the bound hold at
    every recorded N, or None when no grid pair works. A trace with no
    records certifies nothing: its rows are empty, ``satisfied_all`` is
    False and both fits are None.
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
    import numpy as np  # here, not at the top: the solver module loads without numpy

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

    # With no records there is no N for a pair to hold at, so none fits.
    grid = [10.0 ** e for e in range(-3, 5)] if ks else []
    passing = [(ca + cb, ca, cb) for ca in grid for cb in grid if np.all(gaps_arr <= rhs(ca, cb))]
    _, fit_a, fit_b = min(passing, default=(None, None, None))
    return ComplexityReport(
        a=a,
        b=b,
        rows=rows,
        satisfied_all=bool(ks) and bool(oks.all()),
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
        "records": [_record_dict(*r) for r in trace.records],
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


def _record_dict(k, z, f, gn, lam, d, drift) -> dict:
    """A record as the JSON object of its trace."""
    return dict(zip(_RECORD_KEYS, (k, z.real, z.imag, f, gn, lam, d, drift)))


# One record as json.dumps(indent=2) lays it out, an object two containers deep,
# after its separator, with %r slots for k and the six floats and %s slots for
# the JSON text of dist_to_s and drift.
_RECORD_KEYS = ("k", "x", "y", "f", "grad_norm", "lambda", "dist_to_s", "drift")
_RECORD_ROW = ",\n    {" + ",".join(
    f'\n      "{key}": {slot}' for key, slot in zip(_RECORD_KEYS, ("%r",) * 6 + ("%s", "%s"))
) + "\n    }"
_JSON_BOOL = ("false", "true")
_RECORDS_AT = '\n  "records": []'


def _json_records(trace: RunTrace) -> Iterator[str]:
    """The records array as json.dumps(indent=2) lays it out, as a member of
    the top-level object, row by row. A row of an exact int k, an exact bool
    drift and exact finite floats, dist_to_s a float or None, is formatted
    by one template; any other row (NaN, an infinity, a float subclass) is
    written by json.dumps itself, indented to its depth."""
    first = True
    for k, z, f, gn, lam, d, drift in trace.records:
        x, y = z.real, z.imag
        if (
            type(k) is int
            and type(drift) is bool
            and type(x) is type(y) is type(f) is type(gn) is type(lam) is float
            and (d is None or type(d) is float)
            # Finite: x - x is 0.0 for a finite x and NaN for NaN or an infinity.
            and x - x + y - y + f - f + gn - gn + lam - lam + (0.0 if d is None else d - d) == 0.0
        ):
            text = _RECORD_ROW % (k, x, y, f, gn, lam, "null" if d is None else repr(d), _JSON_BOOL[drift])
        else:
            row = json.dumps(_record_dict(k, z, f, gn, lam, d, drift), indent=2)
            text = ",\n    " + row.replace("\n", "\n    ")
        if first:
            text, first = "[" + text[1:], False
        yield text
    yield "[]" if first else "\n  ]"


def write_trace_json(trace: RunTrace, path: str | Path) -> None:
    """Write the bytes of ``json.dumps(trace_to_dict(trace), indent=2)`` and
    a newline. json.dumps lays out the trace with the records empty; the
    records are streamed into it through one row template, which spares
    json's pure-Python indenting encoder."""
    text = json.dumps(trace_to_dict(replace(trace, records=[])), indent=2)
    # The marker occurs once: it starts with a newline, which json.dumps never
    # writes raw inside a string, and at its indent the only "records" is the
    # top-level member.
    head, tail = text.split(_RECORDS_AT)
    atomic_write(Path(path), chain([head + _RECORDS_AT[:-2]], _json_records(trace), [tail + "\n"]))


_CSV_ROW = "%d,%r,%r,%r,%r,%r,%s,%d\n"


def _plain(v):
    """A float subclass as a plain float, which %r writes by float.__repr__."""
    return float(v) if isinstance(v, float) else v


def _csv_rows(records: list[IterationRecord]) -> Iterator[str]:
    """The CSV rows of the records. A float subclass, such as the numpy
    float64 an oracle or a schedule may return, has a repr like
    ``np.float64(0.5)``; it is written as a plain float, as json writes it.
    The repr of a plain float or int holds no parenthesis, so only a row
    that has one is formatted a second time."""
    for k, z, f, gn, lam, d, drift in records:
        text = _CSV_ROW % (k, z.real, z.imag, f, gn, lam, "" if d is None else repr(d), drift)
        if "(" in text:
            text = _CSV_ROW % (
                k, z.real, z.imag, _plain(f), _plain(gn), _plain(lam),
                "" if d is None else repr(_plain(d)), drift,
            )
        yield text


def write_trace_csv(trace: RunTrace, path: str | Path) -> None:
    """Write the records as CSV_HEADER rows, streamed: numbers by repr (a
    float subclass as a plain float), an absent distance as an empty field,
    the drift flag as 0 or 1."""
    atomic_write(Path(path), chain([",".join(CSV_HEADER) + "\n"], _csv_rows(trace.records)))


_RECORD_KEY_SET = frozenset(_RECORD_KEYS)
_record_values = itemgetter(*_RECORD_KEYS)
# The JSON types of the keys of a record, of the top level of a trace and of
# its termination object, in the order they are checked, with how a fault
# names them. Any number is taken where a float is, NaN and the
# infinities included, as the writer emits them; a bool is no number here.
_NUMBER = (float, int)
_NULL = type(None)
_RECORD_TYPES = {
    "k": ((int,), "an integer"),
    "x": (_NUMBER, "a number"),
    "y": (_NUMBER, "a number"),
    "f": (_NUMBER, "a number"),
    "grad_norm": (_NUMBER, "a number"),
    "lambda": (_NUMBER, "a number"),
    "dist_to_s": ((float, int, _NULL), "a number or null"),
    "drift": ((bool,), "true or false"),
}
_TRACE_TYPES = {
    "config": ((dict,), "an object"),
    "f_star": ((float, int, _NULL), "a number or null"),
    "x_star": ((str, _NULL), "a string or null"),
    "dist_x0_to_solution": ((float, int, _NULL), "a number or null"),
    "records": ((list,), "an array"),
    "termination": ((dict,), "an object"),
}
_TERMINATION_TYPES = {
    "kind": ((str,), "a string"),
    "step": ((int, _NULL), "an integer or null"),
    "reason": ((str, _NULL), "a string or null"),
}
# The config echo's keys that complexity_bound_report reads.
_CONFIG_TYPES = {"manifold": ((dict,), "an object"), "schedule": ((str,), "a string")}
_MANIFOLD_TYPES = {"kappa": (_NUMBER, "a number")}


def _record_from_json(obj: dict):
    """json object_hook: an object with exactly the record keys, each value
    of its JSON type (_RECORD_TYPES), becomes an IterationRecord as it is
    parsed; any other object stays a dict."""
    if obj.keys() == _RECORD_KEY_SET:
        k, x, y, f, gn, lam, d, drift = _record_values(obj)
        if (
            type(k) is int
            and type(drift) is bool
            and type(x) in _NUMBER
            and type(y) in _NUMBER
            and type(f) in _NUMBER
            and type(gn) in _NUMBER
            and type(lam) in _NUMBER
            and (d is None or type(d) in _NUMBER)
        ):
            return IterationRecord._make((k, complex(x, y), f, gn, lam, d, drift))
    return obj


def _key_fault(obj, types: dict) -> str | None:
    """What keeps the parsed JSON value ``obj`` from being an object with
    every key of ``types``, each holding a value of its JSON type; None if
    nothing does."""
    if type(obj) is not dict:
        return f"is not an object: {obj!r}"
    missing = [key for key in types if key not in obj]
    if missing:
        return f"misses key(s) {', '.join(missing)}"
    key = next((key for key, (allowed, _) in types.items() if type(obj[key]) not in allowed), None)
    return None if key is None else f'has "{key}" = {obj[key]!r}, not {types[key][1]}'


def _record_fault(obj) -> str:
    """What keeps a parsed record object from being an IterationRecord."""
    return _key_fault(obj, _RECORD_TYPES) or "has extra key(s) " + ", ".join(
        key for key in obj if key not in _RECORD_KEY_SET
    )


def load_trace(path: str | Path) -> RunTrace:
    """Rebuild a RunTrace from its JSON file.

    Each record object becomes an IterationRecord while the text is parsed,
    so the record dicts are never all alive at once. A record's point is read
    back as ``complex(x, y)``, with no disk-bound check, so traces from the
    flat model reload cleanly. A key that is missing or holds a value not of
    its JSON type (_RECORD_TYPES, _TRACE_TYPES, _TERMINATION_TYPES, and the
    config echo's _CONFIG_TYPES and _MANIFOLD_TYPES), an extra record key, a
    record k that is negative or not above the k before it, and an x_star
    that is no complex number raise ValueError naming the key and any
    record's index.
    """
    raw = json.loads(Path(path).read_text(), object_hook=_record_from_json)
    # Each object is checked after the one that holds it.
    for where, keys, types in (
        ("trace", (), _TRACE_TYPES),
        ('"termination"', ("termination",), _TERMINATION_TYPES),
        ('"config"', ("config",), _CONFIG_TYPES),
        ('"config"."manifold"', ("config", "manifold"), _MANIFOLD_TYPES),
    ):
        fault = _key_fault(reduce(getitem, keys, raw), types)
        if fault:
            raise ValueError(f"{path}: {where} {fault}")
    records = raw["records"]
    k_min = 0
    for i, r in enumerate(records):
        if type(r) is not IterationRecord:
            raise ValueError(f"{path}: record {i} {_record_fault(r)}")
        if r.k < k_min:
            raise ValueError(f'{path}: record {i} has "k" = {r.k}, not at least {k_min}')
        k_min = r.k + 1
    x_star = raw["x_star"]
    if x_star is not None:
        try:
            x_star = parse_point(x_star)
        except ValueError:
            raise ValueError(f'{path}: trace has "x_star" = {x_star!r}, not a point') from None
    term = raw["termination"]
    return RunTrace(
        config=raw["config"],
        f_star=raw["f_star"],
        x_star=x_star,
        dist_x0_to_solution=raw["dist_x0_to_solution"],
        records=records,
        termination=Termination(term["kind"], term["step"], term["reason"]),
        summary=build_summary(records, raw["f_star"]),
    )
