"""The subgradient method as a deterministic iteration engine.

One step moves from x to exp_x(lambda * s) where s is the negated subgradient
normalized to unit manifold length. The driver stops when the subgradient
norm falls to the stop threshold, set relative to the first subgradient norm
(the iterate is then a minimizer), when the iteration budget runs out, or on
a numerical failure; the full iterate history is captured in a RunTrace.
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import tempfile
import threading
from contextlib import closing, contextmanager
from dataclasses import dataclass, replace
from functools import partial, reduce
from itertools import accumulate, chain, islice, repeat
from operator import attrgetter, getitem, index, itemgetter, lt
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from .geometry import DiskPoint, Manifold
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
        for key in ("max_iters", "record_every"):  # stored as int: the trace echoes a JSON integer
            try:
                value = index(getattr(self, key))
            except TypeError:
                raise ConfigError(key, f"must be an integer, got {getattr(self, key)!r}") from None
            if value < 1:
                raise ConfigError(key, f"must be >= 1, got {value}")
            object.__setattr__(self, key, value)
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
    # finite because every endpoint is checked. The norm is norm_z's formula,
    # and its s = 1 - |z|^2 goes to exp_z's own disk step, Manifold._disk_step.
    # A plane step, and a step that exp_z ends early or fails (v zero or not
    # finite, a non-finite endpoint), goes to exp_z itself, for its wording.
    fn, lam_at, step, exp_z = oracle.fn, cfg.schedule.fn, cfg.schedule.step, m.exp_z
    flat, kappa, disk_step = m.flat, m.kappa, m._disk_step
    record, distance_to = IterationRecord._make, sset.distance_to
    max_iters, record_every = cfg.max_iters, cfg.record_every
    hypot, isfinite = math.hypot, math.isfinite
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
                nxt = None if flat or not v else disk_step(z, v, s)
                z_next, drift_next = exp_z(z, v) if nxt is None else nxt
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


_RECORD_KEYS = ("k", "x", "y", "f", "grad_norm", "lambda", "dist_to_s", "drift")
# Each key's value in a record, got in C with no Python call per value.
_RECORD_VALUES = dict(zip(_RECORD_KEYS, map(attrgetter, (
    "k", "z.real", "z.imag", "f_value", "grad_norm", "lambda_k", "dist_to_s", "drift",
))))


def trace_to_dict(trace: RunTrace) -> dict:
    """The trace as a JSON-ready dict, its records as one column per key of
    _RECORD_KEYS; the file ``write_trace_json`` writes parses to it."""
    return {
        "config": trace.config,
        "f_star": trace.f_star,
        "x_star": None if trace.x_star is None else format_complex(trace.x_star.z),
        "dist_x0_to_solution": trace.dist_x0_to_solution,
        "records": {key: list(map(value, trace.records)) for key, value in _RECORD_VALUES.items()},
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
    gives (0o666 less the umask). If producing a chunk raises, the
    temporary file is removed and ``path`` keeps what it held."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # Created exclusively on a random name, so it is no one else's file, and
    # open() applies the umask: the process umask is never set to read it.
    fh = open(tmp, "x")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The record count from which a writer formats the second half of its rows
# (CSV) or of its columns (JSON) in a forked child: below it, forking and
# reaping costs more than the child saves. The break-even measured for both
# writers on 2 cores, in a process of 130 MB, is about 4,000 records.
_SPLIT_MIN_RECORDS = 4096
# The size, in characters, of the pieces in which the child's rows are copied.
_COPY_CHUNK = 1 << 14


@contextmanager
def _forked(task: Callable[[IO], object], when: bool,
            **file_args) -> Iterator[Callable[[], IO | None] | None]:
    """Run ``task(part)`` in a forked child while the body of the with
    statement runs here, ``part`` being an unnamed temporary file opened with
    ``file_args``. Yields None, and forks nothing, if ``when`` (the caller's
    test that its input is large enough to split) is false, without os.fork,
    a second CPU to run on or with another thread alive (which a fork would
    leave in a broken state), or if the fork fails. Otherwise yields
    ``join``, which waits for the child and returns ``part`` rewound to what
    the child wrote, or None if ``task`` raised. The child leaves through
    os._exit only; it is killed and reaped when the body leaves without
    joining it, as when it raises, so no child outlives the with statement."""
    cpus = os.sched_getaffinity(0) if when and hasattr(os, "sched_getaffinity") else ()
    if not (hasattr(os, "fork") and len(cpus) >= 2 and threading.active_count() == 1):
        yield None
        return
    # Each process keeps to its own CPUs until the child is reaped: a scheduler
    # that does not balance load (a cpuset with sched_load_balance off) would
    # leave the child on this process's CPU, and the two would take turns.
    here, *there = sorted(cpus)
    with tempfile.TemporaryFile(**file_args) as part:
        try:
            os.sched_setaffinity(0, {here})
            pid = os.fork()
        except OSError:  # no child to be had
            pid = None
        if pid == 0:
            code = 1
            try:
                # A collection would write to the header of every tracked
                # object, and so copy every page the two processes share.
                import gc

                gc.disable()
                os.sched_setaffinity(0, there)
                task(part)
                part.flush()
                code = 0
            finally:
                os._exit(code)

        def join() -> IO | None:
            nonlocal pid
            status, pid = os.waitpid(pid, 0)[1], None
            if status:
                return None
            part.seek(0)
            return part

        try:
            yield None if pid is None else join
        finally:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.sched_setaffinity(0, cpus)


def _split_rows(rows: Callable[[int, int], Iterator[str]], n: int, when: bool) -> Iterator[str]:
    """The text of ``rows(0, n)``, where ``rows(lo, hi)`` formats the parts
    (records, or columns) lo to hi. If ``when`` (the caller's size test), a
    child _forked off writes ``rows(n // 2, n)`` while this process formats
    the first half, and then its text is copied in small pieces, so the
    result is the same text. If there is no child, or it fails, this process
    formats the second half itself, so a faulty value raises here."""
    mid = n // 2
    # newline="" writes and reads the text untranslated; the encoding is the
    # default one, as in atomic_write.
    with _forked(lambda part: part.writelines(rows(mid, n)), when, mode="w+", newline="") as join:
        yield from rows(0, mid)
        part = join and join()
        yield from rows(mid, n) if part is None else iter(partial(part.read, _COPY_CHUNK), "")


# The number of values json encodes at a time into a column of the trace JSON:
# at once, a column's text would grow with the records.
_COLUMN_CHUNK = 1024
_RECORDS_AT = '\n  "records": null'


def _json_columns(records: list[IterationRecord], lo: int, hi: int) -> Iterator[str]:
    """Columns lo to hi of the column object of ``records``, a line each,
    opened as its index among all of them says, each array encoded by json
    _COLUMN_CHUNK values at a time, so json writes NaN, the infinities,
    float subclasses, null and the booleans its own way."""
    for i, (key, value) in islice(enumerate(_RECORD_VALUES.items()), lo, hi):
        yield f'{"," if i else "{"}\n    "{key}": ['
        for at in range(0, len(records), _COLUMN_CHUNK):
            text = json.dumps(list(map(value, records[at : at + _COLUMN_CHUNK])), separators=(",", ":"))
            yield text[1:-1] if at == 0 else "," + text[1:-1]
        yield "]"


def write_trace_json(trace: RunTrace, path: str | Path) -> None:
    """Write the trace as JSON text that parses to ``trace_to_dict(trace)``,
    and a newline: json.dumps(indent=2) lays out all but the records, whose
    columns are streamed into it through _split_rows (see _json_columns)."""
    text = json.dumps({**trace_to_dict(replace(trace, records=[])), "records": None}, indent=2)
    # The marker occurs once: it starts with a newline, which json.dumps never
    # writes raw inside a string, and at its indent the only "records" is the
    # top-level member.
    head, tail = text.split(_RECORDS_AT)
    member = _RECORDS_AT[: -len("null")]
    columns = _split_rows(partial(_json_columns, trace.records), len(_RECORD_KEYS),
                          len(trace.records) >= _SPLIT_MIN_RECORDS)
    with closing(columns):
        atomic_write(Path(path), chain([head, member], columns, ["\n  }", tail, "\n"]))


_CSV_ROW = "%d,%r,%r,%r,%r,%r,%s,%d\n"


def _plain(v):
    """A float subclass as a plain float, which %r writes by float.__repr__."""
    return float(v) if isinstance(v, float) else v


def _csv_rows(records: Iterable[IterationRecord]) -> Iterator[str]:
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
    records = trace.records
    rows = _split_rows(lambda lo, hi: _csv_rows(islice(records, lo, hi)), len(records),
                       len(records) >= _SPLIT_MIN_RECORDS)
    with closing(rows):
        atomic_write(Path(path), chain([",".join(CSV_HEADER) + "\n"], rows))


_record_values = itemgetter(*_RECORD_KEYS)
# The JSON types of the keys of a record, of the top level of a trace and of
# its termination object, in the order they are checked, with how a fault
# names them. Any number is taken where a float is, NaN and the infinities
# included, as the writer emits them, but an integer beyond the largest float
# is not, and a bool is no number here.
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
_COLUMN_TYPES = dict.fromkeys(_RECORD_KEYS, ((list,), "an array"))
_TRACE_TYPES = {
    "config": ((dict,), "an object"),
    "f_star": ((float, int, _NULL), "a number or null"),
    "x_star": ((str, _NULL), "a string or null"),
    "dist_x0_to_solution": ((float, int, _NULL), "a number or null"),
    "records": ((dict,), "an object"),
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


def _shown(value) -> str:
    """A parsed JSON value as a fault names it: an array or object by kind and length, else by repr."""
    kind = {list: "an array of {} value(s)", dict: "an object of {} key(s)"}.get(type(value))
    return kind.format(len(value)) if kind else repr(value)


def _key_fault(obj, types: dict, exact: bool = False) -> str | None:
    """What keeps the parsed JSON value ``obj`` from being an object with
    every key of ``types``, each holding a value of its JSON type, and, if
    ``exact``, no other key; None if nothing does."""
    if type(obj) is not dict:
        return f"is not an object: {_shown(obj)}"
    missing = [key for key in types if key not in obj]
    if missing:
        return f"misses key(s) {', '.join(missing)}"
    key = next((key for key, (allowed, _) in types.items() if not _is_a(obj[key], allowed)), None)
    if key is not None:
        return f'has "{key}" = {_shown(obj[key])}, not {types[key][1]}'
    extra = [key for key in obj if key not in types] if exact else []
    return f"has extra key(s) {', '.join(extra)}" if extra else None


def _is_a(value, allowed: tuple) -> bool:
    """Whether the parsed JSON ``value`` is of a type in ``allowed``; an
    integer stands for a float only up to the largest float."""
    if type(value) is int and float in allowed and abs(value) > sys.float_info.max:
        return False
    return type(value) in allowed


def _column_fault(columns: dict) -> str | None:
    """What keeps a parsed column object from holding records: a column
    missing, extra, not an array or of another length than "k", or a value
    not of its key's JSON type (_RECORD_TYPES), named with its record index;
    None if nothing does."""
    fault = _key_fault(columns, _COLUMN_TYPES, exact=True)
    if fault:
        return f'"records" {fault}'
    n = len(columns["k"])
    for key, (allowed, what) in _RECORD_TYPES.items():
        column = columns[key]
        if len(column) != n:
            return f'"records" has "{key}" of {len(column)} values, not {n} as "k" has'
        kinds = set(map(type, column))
        # Only an integer where a float may stand needs its value looked at.
        if kinds <= set(allowed) and not (int in kinds and float in allowed):
            continue
        i = next((i for i, v in enumerate(column) if not _is_a(v, allowed)), None)
        if i is not None:
            return f'record {i} has "{key}" = {_shown(column[i])}, not {what}'
    return None


def load_trace(path: str | Path) -> RunTrace:
    """Rebuild a RunTrace from its JSON file.

    The text is parsed by one ``json.loads``. Its records, an object of
    columns as write_trace_json writes them, are checked a column at a time
    and zipped into IterationRecords.

    A record's point is read back as ``complex(x, y)``, with no disk-bound
    check, so traces from the flat model reload cleanly. A key that is
    missing or holds a value not of its JSON type (_RECORD_TYPES,
    _TRACE_TYPES, _TERMINATION_TYPES, and the config echo's _CONFIG_TYPES
    and _MANIFOLD_TYPES), an extra record key, a column missing, extra, not
    an array or of another length than the others, a record k that is
    negative or not above the k before it, and an x_star that is no complex
    number raise ValueError naming the key and any record's index.
    """
    raw = json.loads(Path(path).read_text())
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
    fault = _column_fault(raw["records"])
    if fault:
        raise ValueError(f"{path}: {fault}")
    k, x, y, f, gn, lam, d, drift = _record_values(raw["records"])
    if not all(map(lt, chain([-1], k), k)):
        i, k_min = next((i, a + 1) for i, (a, b) in enumerate(zip(chain([-1], k), k)) if a >= b)
        raise ValueError(f'{path}: record {i} has "k" = {k[i]}, not at least {k_min}')
    rows = zip(k, map(complex, x, y), f, gn, lam, d, drift)
    # tuple.__new__ is _make's own, without a call of _make per record.
    records = list(map(tuple.__new__, repeat(IterationRecord), rows))
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
