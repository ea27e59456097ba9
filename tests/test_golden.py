"""Byte-level pins of whole solver runs.

Each case serializes ``run(cfg)`` through the two trace writers and
tabulates its ``complexity_bound_report``; the sha256 of each result is
compared with a digest recorded from an earlier implementation.
The cases cover every branch the step dispatches on: the Poincaré disk, the
scaled disk at kappa above and below 1 and at a kappa that is not a power of
two, and the flat plane; a zero-subgradient stop and a spent budget;
recording every step and every n-th step; and the radial clamp at the
boundary. A change in the order of any floating-point
operation on the hot path changes some digest.
"""

import functools
import hashlib
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypersub.cli import build_solve_config, read_config
from hypersub.geometry import EUCLIDEAN_PLANE, POINCARE_DISK, DiskPoint, scaled_disk
from hypersub.oracles import (
    SolutionSet,
    SubgradientOracle,
    ball_hinge_oracle,
    busemann_oracle,
    distance_oracle,
    two_busemann_oracle,
    weighted_sum,
)
from hypersub.schedules import harmonic, power_law, sqrt_harmonic
from hypersub.solver import (
    IterationRecord,
    MissingFStar,
    MissingSolutionPoint,
    SolveConfig,
    Termination,
    complexity_bound_report,
    load_trace,
    min_gap_series,
    run,
    trace_to_dict,
    write_trace_csv,
    write_trace_json,
)

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def bundled(name):
    return build_solve_config(read_config(CONFIGS / f"{name}.cfg"))[2]


def fermat_weber():
    # The seed-0 instance of the benchmark: unit-weight distances to three
    # anchors, started at 0.9i, recording every step.
    anchors = [DiskPoint(0.5, 0.0), DiskPoint(-0.3, 0.4), DiskPoint(-0.2, -0.5)]
    oracle = weighted_sum([distance_oracle(a) for a in anchors], [1.0, 1.0, 1.0])
    return SolveConfig(POINCARE_DISK, oracle, harmonic(1.0), DiskPoint(0.0, 0.9), 20_000)


def flat_weighted_sum():
    anchors = [DiskPoint.plane(2.0, 1.0), DiskPoint.plane(-1.5, 0.5), DiskPoint.plane(0.0, -3.0)]
    oracle = weighted_sum([distance_oracle(a) for a in anchors], [1.0, 2.0, 0.5])
    return SolveConfig(EUCLIDEAN_PLANE, oracle, sqrt_harmonic(0.5), DiskPoint.plane(4.0, 4.0), 2000)


CASES = {
    "two_busemann_cfg": lambda: bundled("two_busemann"),
    "ball_hinge_cfg": lambda: bundled("ball_hinge"),
    "disk_example_1e4": lambda: SolveConfig(
        POINCARE_DISK, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 10_000
    ),
    "fermat_weber_2e4": fermat_weber,
    "flat_distance": lambda: SolveConfig(
        EUCLIDEAN_PLANE, distance_oracle(DiskPoint.plane(2.0, -1.0)), harmonic(1.0),
        DiskPoint.plane(-3.0, 0.5), 2000, record_every=3,
    ),
    "flat_weighted_sum": flat_weighted_sum,
    "scaled2_ball_hinge": lambda: SolveConfig(
        scaled_disk(2.0), ball_hinge_oracle(DiskPoint(0.1, 0.2), 1e-3), power_law(0.2, 0.75),
        DiskPoint(-0.95, 0.2), 5000,
    ),
    # A curvature that is not a power of two, so dividing by kappa in another
    # order rounds differently; the budget is spent, so every step is taken.
    "scaled3_distance": lambda: SolveConfig(
        scaled_disk(3.0), distance_oracle(DiskPoint(0.3, -0.2)), harmonic(0.5),
        DiskPoint(-0.6, 0.5), 2000,
    ),
    # Runs out to the boundary, where the radial clamp engages.
    "scaled05_busemann": lambda: SolveConfig(
        scaled_disk(0.5), busemann_oracle(complex(0.6, 0.8)), sqrt_harmonic(1.0),
        DiskPoint(-0.3, 0.1), 3000,
    ),
}

# The trace JSON as write_trace_json writes it, its records as columns.
COLUMN_DIGESTS = {
    "ball_hinge_cfg": "1a86532fde043fe584b24e50d36a189a7cec5f8985bc868505466dfb4a95075b",
    "disk_example_1e4": "d5fc0cfbe449f8ff127dde25a7b687a7d29bdbcfb649e3168134c3fda527d6f7",
    "fermat_weber_2e4": "b0ecb001ef96e5cd28154ab9ffa8d0fb025270b1f227b15c6286b6792e6b9352",
    "flat_distance": "71f1bd74adf0e2051d08d76c0dc46d79146f2440c17ce2526cd441439fb6102a",
    "flat_weighted_sum": "f6def95a5394d67319c8652b9ff13e72a8e45fcfc9bf9ffca3fadbff892e208f",
    "scaled05_busemann": "176f981e4833a0ee1c05788db2b3c9872de89478b66c1e15acc5c7add02fc681",
    "scaled3_distance": "8b46759539b0ed64b31555d1b150cbfe1758250d8da69c2d806a373cfba78f3d",
    "scaled2_ball_hinge": "4fd7dcce9accef415f506fd620cfc54e54fdf30c65200ad9d56ffaaf26a3f15d",
    "two_busemann_cfg": "d5fc0cfbe449f8ff127dde25a7b687a7d29bdbcfb649e3168134c3fda527d6f7",
}

# Recorded from the csv.writer implementation of write_trace_csv.
CSV_DIGESTS = {
    "ball_hinge_cfg": "60850d44f65634a37846a62e0bb86f5687d329bc5b84e395367a6184a9c62534",
    "disk_example_1e4": "2b49e47dc76762adfe9f896b360b4bff092bc318d11686ba3560392dbbb657c1",
    "fermat_weber_2e4": "eae0d8f14133ae57ebf691cb1a86391a289d7025542d57489b6aa6ce96f9be31",
    "flat_distance": "028d0e520e2f56f92bbe83de6cc48ae31ad5c98fba02b5932de5fb6d1adddc96",
    "flat_weighted_sum": "89e24632f9a09040d9681c232cda7aa06d9d13587f995c50a6fe364de66f3428",
    "scaled05_busemann": "36eaae26d21acdaad96e6e47c82e23f7d8c672ecbee39945768c4488ac24dc0d",
    "scaled3_distance": "fa30ec5a52403995378465d6f99607e074cfeaae9b211480e7c198e37788c6ef",
    "scaled2_ball_hinge": "777e302d4f34a99560ce62bcfe49ad3b92b3bfb8d3be08cb67a09f8c3fd8230b",
    "two_busemann_cfg": "2b49e47dc76762adfe9f896b360b4bff092bc318d11686ba3560392dbbb657c1",
}

# sha256 of repr(complexity_bound_report(trace)), recorded from the
# pure-Python implementation; a case without f* pins the exception instead.
NO_F_STAR = "MissingFStar: the oracle did not declare its minimum value"
REPORT_DIGESTS = {
    "ball_hinge_cfg": "0445d313fe04dc541172ce7d307fbfc617bf0727c520db0e7d15fb34550f9bba",
    "disk_example_1e4": "1be767621a01424486c804db261334a027aad7cb91bddc844c1fe68c8a75de35",
    "fermat_weber_2e4": NO_F_STAR,
    "flat_distance": "85e33b4214a52d62afa6544bd7d94c8a20117d23308caf2e26d744ff12749504",
    "flat_weighted_sum": NO_F_STAR,
    "scaled05_busemann": NO_F_STAR,
    "scaled3_distance": "3ede99544e38c724ef0da29098c8fe08deb1c05580be39bf650e10b77e7db486",
    "scaled2_ball_hinge": "a70aac700b35c65a99333225391c8d9058f2af8134da4efefff73302a91fb545",
    "two_busemann_cfg": "1be767621a01424486c804db261334a027aad7cb91bddc844c1fe68c8a75de35",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.cache
def traced(name):
    return run(CASES[name]())


def written(write, trace, tmp_path) -> bytes:
    path = tmp_path / "trace.out"
    write(trace, path)
    return path.read_bytes()


def with_stored_series(trace):
    """The trace with its min-gap series stored as the summary's last key, as
    traces once stored it: [k, gap] pairs, or None without an f* or a
    record."""
    series = None
    if trace.f_star is not None and trace.records:
        series = [[k, gap] for k, gap in min_gap_series(trace)]
    return replace(trace, summary={**trace.summary, "min_gap_series": series})


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_is_byte_identical(name, tmp_path):
    assert sha256(written(write_trace_json, traced(name), tmp_path)) == COLUMN_DIGESTS[name]


def record_types(trace):
    return [tuple(map(type, r)) for r in trace.records]


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_loads_to_itself(name, tmp_path):
    trace = traced(name)
    assert "min_gap_series" not in trace.summary
    path = tmp_path / "t.trace.json"
    write_trace_json(trace, path)
    loaded = load_trace(path)
    assert repr(loaded) == repr(trace)
    assert record_types(loaded) == record_types(trace)


@pytest.mark.parametrize("name", sorted(CASES))
def test_dist_x0_to_solution_is_the_first_records(name):
    trace = traced(name)
    assert trace.dist_x0_to_solution == trace.records[0].dist_to_s


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_is_byte_identical(name, tmp_path):
    assert sha256(written(write_trace_csv, traced(name), tmp_path)) == CSV_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_complexity_report_is_unchanged(name):
    try:
        got = sha256(repr(complexity_bound_report(traced(name))).encode())
    except (MissingFStar, MissingSolutionPoint) as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == REPORT_DIGESTS[name]


# -- write_trace_json on traces the cases above do not reach ---------------------


class Tagged(float):
    """A float subclass whose repr json does not use."""

    def __repr__(self):
        return "tagged"


def constant(value, known_min=None, solution_set=None):
    def fn(m, z):
        return value, 1 + 0j

    sset = SolutionSet.unknown() if solution_set is None else solution_set
    return SubgradientOracle("constant", fn, known_min=known_min, solution_set=sset)


def short_run(oracle):
    return run(SolveConfig(POINCARE_DISK, oracle, harmonic(1.0), DiskPoint(0.1, 0.2), 4))


def with_odd_scalars():
    trace = short_run(constant(2.0, 0.0, SolutionSet.single_point(DiskPoint(0.0, 0.0))))
    r = trace.records[1]
    odd = r._replace(f_value=math.nan, grad_norm=-math.inf, lambda_k=Tagged(0.5), dist_to_s=math.inf)
    return replace(trace, records=[trace.records[0], odd, *trace.records[2:]])


# The text write_trace_json splits its json.dumps text at, newline and indent
# included, inside strings.
MARKERS = 'x\n  "records": null'


def with_marker_texts():
    oracle = replace(constant(1.0, 0.0, SolutionSet.single_point(DiskPoint(0.0, 0.0))), name=MARKERS)
    trace = short_run(oracle)
    return replace(trace, termination=Termination("numerical-failure", 2, MARKERS))


EDGE_TRACES = {
    # The first evaluation is not finite, so no record is kept.
    "zero_records": lambda: short_run(constant(math.nan)),
    "no_f_star": lambda: short_run(constant(1.0)),
    "unknown_solution_set": lambda: short_run(constant(1.0, known_min=0.0)),
    "escaped_reason": lambda: replace(
        short_run(constant(1.0, known_min=0.0)),
        termination=Termination("numerical-failure", 2, 'step "failed": \u03bb \u2192 0\\n\u00e9\n'),
    ),
    "non_finite_and_float_subclass": with_odd_scalars,
    "marker_texts": with_marker_texts,
    "stored_series": lambda: with_stored_series(
        short_run(constant(1.0, 0.0, SolutionSet.single_point(DiskPoint(0.0, 0.0))))
    ),
}


def reparsed(trace, tmp_path) -> str:
    """json.dumps of the parsed file write_trace_json writes for ``trace``."""
    data = written(write_trace_json, trace, tmp_path)
    assert data.endswith(b"}\n")
    return json.dumps(json.loads(data))


@pytest.mark.parametrize("name", sorted(EDGE_TRACES))
def test_json_writer_matches_json_dumps(name, tmp_path):
    trace = EDGE_TRACES[name]()
    assert reparsed(trace, tmp_path) == json.dumps(trace_to_dict(trace))


@pytest.mark.parametrize("name", sorted(EDGE_TRACES))
def test_edge_traces_load_as_plain_values(name, tmp_path):
    # The loaded trace holds plain values only, so it is written and loaded
    # again unchanged.
    trace = EDGE_TRACES[name]()
    path = tmp_path / "t.trace.json"
    write_trace_json(trace, path)
    loaded = load_trace(path)
    assert {t for types in record_types(loaded) for t in types} <= {int, complex, float, type(None), bool}
    write_trace_json(loaded, path)
    reloaded = load_trace(path)
    assert repr(reloaded) == repr(loaded)
    assert record_types(reloaded) == record_types(loaded)
    # A float subclass is read back as a plain float, which json spells alike.
    assert json.dumps(trace_to_dict(loaded)["records"]) == json.dumps(trace_to_dict(trace)["records"])


@pytest.mark.parametrize("name", [*sorted(CASES), *sorted(EDGE_TRACES)])
def test_trace_with_records_as_rows_is_refused(name, tmp_path):
    # The rows load_trace once read, an array of record objects, are a wrong
    # type like any other, an empty array included.
    trace = traced(name) if name in CASES else EDGE_TRACES[name]()
    raw = json.loads(written(write_trace_json, trace, tmp_path))
    columns = raw["records"]
    raw["records"] = [dict(zip(columns, row)) for row in zip(*columns.values())]
    path = tmp_path / "t.trace.json"
    path.write_text(json.dumps(raw, indent=2))
    fault = f'trace has "records" = an array of {len(trace.records)} value(s), not an object'
    with pytest.raises(ValueError) as err:
        load_trace(path)
    assert str(err.value) == f"{path}: {fault}"


# Finite floats over the whole range: signed zeros, subnormals, the extremes
# and integral values, which repr writes with a trailing ".0".
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 1e-7]
finite_floats = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
# Values json writes its own way: NaN, the infinities and float subclasses.
odd_floats = (
    st.sampled_from([math.nan, math.inf, -math.inf])
    | st.builds(Tagged, finite_floats)
    | st.builds(np.float64, finite_floats)
)


@st.composite
def records(draw):
    # A record of an int k, a bool drift and finite floats, or one with an odd
    # value in one drawn field: a float that json writes its own way, a bool k
    # or an int drift.
    row = {key: draw(finite_floats) for key in ("x", "y", "f", "grad_norm", "lambda", "dist_to_s")}
    row.update(k=draw(st.integers(0, 2**63)), drift=draw(st.booleans()))
    if draw(st.booleans()):
        row["dist_to_s"] = None
    if draw(st.booleans()):
        key = draw(st.sampled_from([key for key, v in row.items() if v is not None]))
        odd = {"k": st.booleans(), "drift": st.integers(0, 1)}.get(key, odd_floats)
        row[key] = draw(odd)
    return IterationRecord(
        row["k"], complex(row["x"], row["y"]), row["f"], row["grad_norm"], row["lambda"],
        row["dist_to_s"], row["drift"],
    )


@functools.cache
def base_trace():
    return short_run(constant(1.0, 0.0, SolutionSet.single_point(DiskPoint(0.0, 0.0))))


@given(st.lists(records(), max_size=6))
def test_json_writer_rows_match_json_dumps(rows):
    # Chunks of two values, so the drawn records cross chunk edges.
    trace = replace(base_trace(), records=rows)
    with tempfile.TemporaryDirectory() as tmp, patch("hypersub.solver._COLUMN_CHUNK", 2):
        assert reparsed(trace, Path(tmp)) == json.dumps(trace_to_dict(trace))
