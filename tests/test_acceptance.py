"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none deferred.
"""

import cmath
import math
import time

import numpy as np

from hypersub.geometry import ORIGIN, POINCARE_DISK, DiskPoint, Tangent
from hypersub.oracles import (
    ball_hinge_oracle,
    busemann_gradient,
    busemann_oracle,
    busemann_value,
    distance_oracle,
    two_busemann_oracle,
)
from hypersub.schedules import harmonic, sqrt_harmonic
from hypersub.solver import SolveConfig, complexity_bound_report, min_gap_series, run
from hypersub.verify import sample_point, suite_key_theorem, suite_law_of_cosines, suite_per_step

from reference import mp_busemann_limit

M = POINCARE_DISK


def report(num, name, ok, detail):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_geometry_kernel():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_roundtrip = 0.0
    worst_unit_speed = 0.0
    for _ in range(10_000):
        p = sample_point(rng, 2.5)
        q = sample_point(rng, 2.5)
        v = M.log(p, q)
        worst_roundtrip = max(worst_roundtrip, M.distance(M.exp(p, v), q))
        t = rng.uniform(1e-3, 5.0)
        s = Tangent.from_complex(p, cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        s = s.scaled(t / M.norm(s))
        w = M.exp(p, s)
        worst_unit_speed = max(worst_unit_speed, abs(M.distance(p, w) - t))
        back = M.log(p, w)
        worst_roundtrip = max(
            worst_roundtrip, M.norm(Tangent(p, back.vx - s.vx, back.vy - s.vy))
        )
    worst_ray = 0.0
    for t in (0.1, 1.0, 3.0):
        p = DiskPoint.from_complex(cmath.exp(0.9j) * math.tanh(t / 2))
        worst_ray = max(worst_ray, abs(M.distance(ORIGIN, p) - t))
    elapsed = time.perf_counter() - t0
    ok = worst_roundtrip < 1e-10 and worst_unit_speed < 1e-10 and worst_ray < 1e-12 and elapsed < 5.0
    report(
        1,
        "geometry kernel",
        ok,
        f"roundtrip {worst_roundtrip:.2e}, unit speed {worst_unit_speed:.2e}, "
        f"ray anchors {worst_ray:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_law_of_cosines():
    t0 = time.perf_counter()
    eq, lb = suite_law_of_cosines(n=100_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (
        eq.violations == 0
        and eq.worst_margin < 1e-9
        and lb.violations == 0
        and elapsed < 30.0
    )
    report(
        2,
        "law of cosines",
        ok,
        f"equality worst |margin| {eq.worst_margin:.2e}, lower-bound worst "
        f"{lb.worst_margin:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_key_theorem_fuzz():
    t0 = time.perf_counter()
    reports = suite_key_theorem(n=10_000, seed=0)
    per_step = suite_per_step(steps=2000, seed=0)
    elapsed = time.perf_counter() - t0
    n_verified = sum(r.n for r in reports)
    ok = (
        n_verified >= 10_000
        and all(r.violations == 0 for r in reports)
        and all(r.violations == 0 for r in per_step)
        and elapsed < 60.0
    )
    worst = min(r.worst_margin for r in reports + per_step[:2])
    report(
        3,
        "key theorem fuzz",
        ok,
        f"{n_verified} configs, worst margin {worst:.2e}, per-step n={per_step[0].n}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_busemann_correctness():
    rng = np.random.default_rng(104)
    worst_value = 0.0
    for _ in range(1000):
        p = sample_point(rng, 2.5)
        eta = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        worst_value = max(
            worst_value, abs(busemann_value(eta, p) - mp_busemann_limit(eta, p.z, t=30.0))
        )
    worst_norm = 0.0
    worst_fd = 0.0
    h = 1e-5
    for _ in range(1000):
        p = sample_point(rng, 2.0)
        eta = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        g = busemann_gradient(eta, p)
        worst_norm = max(worst_norm, abs(M.norm(g) - 1.0))
        s = Tangent.from_complex(p, cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        s = s.scaled(1.0 / M.norm(s))
        fd = (busemann_value(eta, M.exp(p, s.scaled(h))) - busemann_value(eta, p)) / h
        worst_fd = max(worst_fd, abs(fd - M.inner(g, s)))
    worst_axis = 0.0
    oracle = two_busemann_oracle()
    for q in (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9):
        g = oracle.subgradient(M, DiskPoint(0.0, q))
        want = 2 * (1 - q * q) / (1 + q * q) * q
        worst_axis = max(worst_axis, abs(g.vx), abs(g.vy - want))
    ok = worst_value < 1e-6 and worst_norm < 1e-10 and worst_fd < 1e-4 and worst_axis < 1e-12
    report(
        4,
        "busemann correctness",
        ok,
        f"limit {worst_value:.2e}, unit norm {worst_norm:.2e}, finite diff "
        f"{worst_fd:.2e}, y-axis gradient {worst_axis:.2e}",
    )


def test_criterion_5_disk_example_reproduction():
    t0 = time.perf_counter()
    cfg = SolveConfig(M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 10_000)
    trace = run(cfg)
    recs = trace.records
    worst_re = max(abs(r.point.x) for r in recs)
    worst_slack = -math.inf
    for prev, nxt in zip(recs, recs[1:]):
        d_prev = M.distance(prev.point, ORIGIN)
        d_next = M.distance(nxt.point, ORIGIN)
        worst_slack = max(worst_slack, d_next - max(prev.lambda_k, d_prev))
    below = [r.k for r in recs if r.dist_to_s < 1e-3]
    elapsed = time.perf_counter() - t0
    ok = (
        worst_re < 1e-10
        and worst_slack <= 1e-12
        and bool(below)
        and recs[-1].dist_to_s < 1e-3
        and elapsed < 10.0
    )
    report(
        5,
        "disk example",
        ok,
        f"max |Re| {worst_re:.2e}, per-step slack {worst_slack:.2e}, dist < 1e-3 "
        f"from k={below[0] if below else '-'}, final {recs[-1].dist_to_s:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_finite_termination():
    x0 = DiskPoint(math.tanh(1.5), 0.0)  # hyperbolic distance 3 from the origin
    cfg = SolveConfig(M, ball_hinge_oracle(ORIGIN, 0.3), harmonic(1.0), x0, 10_000)
    trace = run(cfg)
    # golden value: first k with 3 - H_k < 0.3 where H_k is the harmonic sum
    golden = 8
    ok = (
        trace.termination.kind == "subgradient-zero"
        and trace.termination.step == golden
        and trace.records[-1].dist_to_s == 0.0
    )
    report(
        6,
        "finite termination",
        ok,
        f"{trace.termination.kind} at k={trace.termination.step} (golden {golden})",
    )


def test_criterion_7_running_min_decay_and_rate_bound():
    cfg = SolveConfig(M, two_busemann_oracle(), sqrt_harmonic(0.5), DiskPoint(0.0, 0.9), 10_000)
    trace = run(cfg)
    series = dict(min_gap_series(trace))
    ks = sorted(series)
    gap_100 = series[min(k for k in ks if k >= 100)]
    gap_end = series[ks[-1]]
    rep = complexity_bound_report(trace)
    ok = (
        gap_end < gap_100
        and rep.fit_a is not None
        and rep.fit_b is not None
        and math.isfinite(rep.fit_a)
        and math.isfinite(rep.fit_b)
    )
    report(
        7,
        "running-min decay",
        ok,
        f"gap@1e2 {gap_100:.2e} -> gap@end {gap_end:.2e} (k={ks[-1]}), "
        f"fit A={rep.fit_a}, B={rep.fit_b}",
    )


def test_criterion_8_subgradient_inequality_fuzz():
    oracles = [
        two_busemann_oracle(),
        ball_hinge_oracle(DiskPoint(0.2, -0.1), 0.3),
        distance_oracle(DiskPoint(0.3, 0.2)),
        busemann_oracle(cmath.exp(0.5j)),
    ]
    worst = math.inf
    for i, oracle in enumerate(oracles):
        rng = np.random.default_rng(800 + i)
        for _ in range(10_000):
            x = sample_point(rng, 2.0)
            y = sample_point(rng, 2.0)
            fx, g = oracle.evaluate(M, x)
            slack = oracle.value(M, y) - fx - M.inner(g, M.log(x, y))
            worst = min(worst, slack)
    ok = worst >= -1e-9
    report(8, "subgradient inequality", ok, f"worst slack {worst:.2e} over 4x10^4 pairs")
