"""Byte-level pins of whole solver runs.

Each case serializes ``run(cfg)`` through ``trace_to_dict`` and through the
two trace writers, and tabulates its ``complexity_bound_report``; the sha256
of each result is compared with a digest recorded from an earlier
implementation.
The cases cover every branch the step dispatches on: the Poincaré disk, the
scaled disk at kappa above and below 1, and the flat plane; a zero-subgradient
stop and a spent budget; recording every step and every n-th step; and the
radial clamp at the boundary. A change in the order of any floating-point
operation on the hot path changes some digest.
"""

import functools
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

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
    MissingFStar,
    MissingSolutionPoint,
    SolveConfig,
    Termination,
    complexity_bound_report,
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
    # Runs out to the boundary, where the radial clamp engages.
    "scaled05_busemann": lambda: SolveConfig(
        scaled_disk(0.5), busemann_oracle(complex(0.6, 0.8)), sqrt_harmonic(1.0),
        DiskPoint(-0.3, 0.1), 3000,
    ),
}

DIGESTS = {
    "ball_hinge_cfg": "92677edcb561ce37405c32c18abd460cd0279868ffaff019c3e7f91b186829db",
    "disk_example_1e4": "fcd33cfaf4e06653e38e97fb0f67cb8dd0962a9227b74f7534e380a642b85140",
    "fermat_weber_2e4": "87c2d9c267ea06dc2e93843b89f3e223010ed1d5217894093f9278a7d0b57e8b",
    "flat_distance": "dfdf2a1db7b37b62274035feff5ca05445072403bae19f578fa494695132b96d",
    "flat_weighted_sum": "f962db8035b8d972966a7366d2c531ae80ebb27f2d69092229670ffc256b2455",
    "scaled05_busemann": "de5e3e0bba093eecef96bc755adcd723b0242120df5bb6825ce896274350d4dc",
    "scaled2_ball_hinge": "9302a844efad39f03cf57583281ebf4a4f5d4999ca105ea1b5a43bb2e475ad94",
    # The bundled config is the disk example under another name.
    "two_busemann_cfg": "fcd33cfaf4e06653e38e97fb0f67cb8dd0962a9227b74f7534e380a642b85140",
}


# Recorded from the csv.writer implementation of write_trace_csv.
CSV_DIGESTS = {
    "ball_hinge_cfg": "60850d44f65634a37846a62e0bb86f5687d329bc5b84e395367a6184a9c62534",
    "disk_example_1e4": "1a898e0720850c3691b9d4024571f4e0da90f39749348e89ee2f73d8857d90cc",
    "fermat_weber_2e4": "eae0d8f14133ae57ebf691cb1a86391a289d7025542d57489b6aa6ce96f9be31",
    "flat_distance": "028d0e520e2f56f92bbe83de6cc48ae31ad5c98fba02b5932de5fb6d1adddc96",
    "flat_weighted_sum": "89e24632f9a09040d9681c232cda7aa06d9d13587f995c50a6fe364de66f3428",
    "scaled05_busemann": "36eaae26d21acdaad96e6e47c82e23f7d8c672ecbee39945768c4488ac24dc0d",
    "scaled2_ball_hinge": "777e302d4f34a99560ce62bcfe49ad3b92b3bfb8d3be08cb67a09f8c3fd8230b",
    "two_busemann_cfg": "1a898e0720850c3691b9d4024571f4e0da90f39749348e89ee2f73d8857d90cc",
}

# sha256 of repr(complexity_bound_report(trace)), recorded from the
# pure-Python implementation; a case without f* pins the exception instead.
NO_F_STAR = "MissingFStar: the oracle did not declare its minimum value"
REPORT_DIGESTS = {
    "ball_hinge_cfg": "0445d313fe04dc541172ce7d307fbfc617bf0727c520db0e7d15fb34550f9bba",
    "disk_example_1e4": "617a6d9bc6973bc723e1dcde2b4991dfea5d07e396cd2e3554e33a327e3c669f",
    "fermat_weber_2e4": NO_F_STAR,
    "flat_distance": "85e33b4214a52d62afa6544bd7d94c8a20117d23308caf2e26d744ff12749504",
    "flat_weighted_sum": NO_F_STAR,
    "scaled05_busemann": NO_F_STAR,
    "scaled2_ball_hinge": "94526eb5437e416ff1b543ff83d08edc75d541515401b0a13b8f59ad12215aaf",
    "two_busemann_cfg": "617a6d9bc6973bc723e1dcde2b4991dfea5d07e396cd2e3554e33a327e3c669f",
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_is_byte_identical(name, tmp_path):
    trace = traced(name)
    text = json.dumps(trace_to_dict(trace), indent=2)
    assert sha256(text.encode()) == DIGESTS[name]
    data = written(write_trace_json, trace, tmp_path)
    assert data.endswith(b"\n")
    assert sha256(data[:-1]) == DIGESTS[name]


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
    odd = replace(r, f_value=math.nan, grad_norm=-math.inf, lambda_k=Tagged(0.5), dist_to_s=math.inf)
    return replace(trace, records=[trace.records[0], odd, *trace.records[2:]])


# The texts write_trace_json splits its json.dumps text at, newline and indent
# included, inside strings.
MARKERS = 'x\n  "records": []\n    "min_gap_series": []'


def with_marker_texts():
    oracle = replace(constant(1.0, 0.0, SolutionSet.single_point(DiskPoint(0.0, 0.0))), name=MARKERS)
    trace = short_run(oracle)
    return replace(trace, termination=Termination("numerical-failure", 2, MARKERS))


def with_summary(change):
    trace = short_run(constant(1.0, 0.0, SolutionSet.single_point(DiskPoint(0.0, 0.0))))
    assert trace.summary["min_gap_series"]
    return replace(trace, summary=change(trace.summary))


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
    "summary_without_series_key": lambda: with_summary(
        lambda summary: {k: v for k, v in summary.items() if k != "min_gap_series"}
    ),
    "empty_series": lambda: with_summary(lambda summary: {**summary, "min_gap_series": []}),
}


@pytest.mark.parametrize("name", sorted(EDGE_TRACES))
def test_json_writer_matches_json_dumps(name, tmp_path):
    trace = EDGE_TRACES[name]()
    expected = json.dumps(trace_to_dict(trace), indent=2) + "\n"
    assert written(write_trace_json, trace, tmp_path) == expected.encode()
