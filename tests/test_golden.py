"""Byte-level pins of whole solver runs.

Each case serializes ``run(cfg)`` the way ``write_trace_json`` does and
compares its sha256 with a digest recorded from an earlier implementation.
The cases cover every branch the step dispatches on: the Poincaré disk, the
scaled disk at kappa above and below 1, and the flat plane; a zero-subgradient
stop and a spent budget; recording every step and every n-th step; and the
radial clamp at the boundary. A change in the order of any floating-point
operation on the hot path changes some digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hypersub.cli import build_solve_config, read_config
from hypersub.geometry import EUCLIDEAN_PLANE, POINCARE_DISK, DiskPoint, scaled_disk
from hypersub.oracles import (
    ball_hinge_oracle,
    busemann_oracle,
    distance_oracle,
    two_busemann_oracle,
    weighted_sum,
)
from hypersub.schedules import harmonic, power_law, sqrt_harmonic
from hypersub.solver import SolveConfig, run, trace_to_dict

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_is_byte_identical(name):
    text = json.dumps(trace_to_dict(run(CASES[name]())), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
