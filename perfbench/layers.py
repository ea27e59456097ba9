"""Microseconds per call of the public per-layer operations, on seeded points.

Each row times passes over a fixed batch of seeded arguments and reports the
median pass, divided by the batch size. Every row includes the harness
floor alike: an empty Python function times at about 0.07 us per call.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Callable

import numpy as np

from hypersub import (
    POINCARE_DISK,
    DiskPoint,
    Tangent,
    busemann_value,
    distance_oracle,
    harmonic,
    law_of_cosines_margin,
    sample_triangle,
    two_busemann_oracle,
)

from instance import area_uniform

BATCH = 256
MIN_ROUNDS = 7
ROUND_BUDGET_S = 0.15


def _per_call_us(fn: Callable, batch: list[tuple]) -> float:
    passes = []
    spent = 0.0
    while len(passes) < MIN_ROUNDS or spent < ROUND_BUDGET_S:
        t0 = time.perf_counter()
        for args in batch:
            fn(*args)
        dt = time.perf_counter() - t0
        passes.append(dt)
        spent += dt
    return statistics.median(passes) / len(batch) * 1e6


def _point(rng: random.Random) -> DiskPoint:
    return DiskPoint.from_complex(area_uniform(rng))


def measure(seed: int, fw_oracle) -> dict[str, float]:
    """Per-call times in microseconds, keyed by per-layer metric name.

    ``fw_oracle`` is the workload's 3-anchor weighted sum, so its row times
    the oracle the solver workloads evaluate.
    """
    m = POINCARE_DISK
    rng = random.Random(seed)
    p = [_point(rng) for _ in range(BATCH)]
    q = [_point(rng) for _ in range(BATCH)]
    r = [_point(rng) for _ in range(BATCH)]
    v = [m.log(a, b) for a, b in zip(p, q)]
    w = [m.log(a, c) for a, c in zip(p, r)]
    etas = [complex(math.cos(t), math.sin(t)) for t in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(BATCH))]
    nrng = np.random.default_rng(seed)
    triangles = [sample_triangle(nrng) for _ in range(BATCH)]
    anchor_oracle = distance_oracle(q[0])
    two_busemann = two_busemann_oracle()
    schedule = harmonic(1.0)

    return {
        "geometry.distance_us": _per_call_us(m.distance, list(zip(p, q))),
        "geometry.log_us": _per_call_us(m.log, list(zip(p, q))),
        "geometry.exp_us": _per_call_us(m.exp, list(zip(p, v))),
        "geometry.norm_us": _per_call_us(m.norm, [(t,) for t in v]),
        "geometry.angle_us": _per_call_us(m.angle, list(zip(v, w))),
        "geometry.diskpoint_us": _per_call_us(DiskPoint, [(a.x, a.y) for a in p]),
        "geometry.tangent_us": _per_call_us(Tangent, [(t.base, t.vx, t.vy) for t in v]),
        "oracles.distance_eval_us": _per_call_us(anchor_oracle.evaluate, [(m, a) for a in p]),
        "oracles.weighted_sum3_eval_us": _per_call_us(fw_oracle.evaluate, [(m, a) for a in p]),
        "oracles.two_busemann_eval_us": _per_call_us(two_busemann.evaluate, [(m, a) for a in p]),
        "oracles.busemann_value_us": _per_call_us(busemann_value, list(zip(etas, p))),
        "schedules.step_us": _per_call_us(schedule.step, [(k,) for k in range(BATCH)]),
        "verify.sample_triangle_us": _per_call_us(sample_triangle, [(nrng,)] * BATCH),
        "verify.law_of_cosines_margin_us": _per_call_us(
            law_of_cosines_margin, [(1.0, t) for t in triangles]
        ),
    }
