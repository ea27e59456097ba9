"""Seeded inputs of the benchmark workloads, as plain Python values.

Seed 0 is the 3-anchor hyperbolic Fermat-Weber problem of the roadmap
(anchors 0.5, -0.3+0.4i, -0.2-0.5i; x0 = 0.9i). Any other seed draws the
three anchors and x0 area-uniformly from the Euclidean disk of radius 0.9.
This module imports nothing from the package, so the reference solver and
the set-up probe can use it without paying for the package import.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SEED0_ANCHORS = (0.5 + 0.0j, -0.3 + 0.4j, -0.2 - 0.5j)
SEED0_X0 = 0.9j
DRAW_RADIUS = 0.9

# Solver budget and recording intervals of the two solver workloads.
STEPS = 100_000
BUDGET_RECORD_EVERY = 1000
TRACE_RECORD_EVERY = 1

# Verify suites at their default sizes, each --n passed explicitly: an
# omitted or zero --n silently falls back to the default inside the CLI.
# For per-step the count is the harvest run's step budget.
VERIFY_N = {
    "law-of-cosines": 100_000,
    "key-theorem": 10_000,
    "per-step": 2000,
    "sublevel": 64,
    "gradcheck": 1000,
}

# A reduced set of sizes for smoke runs and tests (--size tiny). key-theorem
# stays above 1 because `--n 1` ends in a traceback at the seed commit.
TINY_STEPS = 2000
TINY_VERIFY_N = {
    "law-of-cosines": 400,
    "key-theorem": 200,
    "per-step": 2000,
    "sublevel": 16,
    "gradcheck": 100,
}


@dataclass(frozen=True)
class FermatWeber:
    """Sum of unit-weight distances to three anchors, started from x0."""

    anchors: tuple[complex, ...]
    weights: tuple[float, ...]
    x0: complex


def area_uniform(rng: random.Random, radius: float = DRAW_RADIUS) -> complex:
    """Point drawn area-uniformly from the Euclidean disk of ``radius``."""
    r = radius * math.sqrt(rng.random())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(theta), r * math.sin(theta))


def fermat_weber(seed: int) -> FermatWeber:
    if seed == 0:
        anchors, x0 = SEED0_ANCHORS, SEED0_X0
    else:
        rng = random.Random(seed)
        anchors = tuple(area_uniform(rng) for _ in range(3))
        x0 = area_uniform(rng)
    return FermatWeber(anchors=anchors, weights=(1.0, 1.0, 1.0), x0=x0)


# Solver steps and verify sizes per --size.
SIZES = {"full": (STEPS, VERIFY_N), "tiny": (TINY_STEPS, TINY_VERIFY_N)}
