"""Executable forms of the comparison inequalities, with fuzz harnesses.

Margins are always reported as RHS - LHS, so a nonnegative margin certifies
the inequality for that sample. Checks are deterministic given a seed; sample
streams are chunked with per-chunk seeds.

The scalar margins (``law_of_cosines_margin``, ``key_theorem_margin``) are
the reference; the bundled suites evaluate whole chunks at once with their
array twins, built on the array forms of the disk kernel below. Each
key-theorem ball hypothesis is certified by a closed-form sup of f.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    BOUNDARY_CLAMP,
    DRIFT_EPS,
    ORIGIN,
    POINCARE_DISK,
    DiskPoint,
    Manifold,
    ResultOutsideDisk,
    ZeroVector,
    abs2,
)
from .oracles import (
    SubgradientOracle,
    ball_hinge_oracle,
    distance_oracle,
    two_busemann_oracle,
)
from .schedules import harmonic
from .solver import ConfigError, SolveConfig, run

# The radius cap bounds cosh(b)cosh(c) and with it the floating-point noise
# floor of the law-of-cosines margin; 3.0 keeps that floor around 1e-11,
# comfortably inside the 1e-9 certification tolerance.
DEFAULT_RADIUS_CAP = 3.0
MIN_SIDE = 1e-3
# Sublevel rays are walked out to RAY_CAP in RAY_STEP increments, and each
# witness radius is bisected to RAY_REFINE_TOL.
RAY_CAP = 50.0
RAY_STEP = 0.25
RAY_REFINE_TOL = 1e-6
CHUNK = 2048


class DegenerateTriangle(ValueError):
    """A triangle side collapsed below the resolvable length."""


class HypothesisUnverified(Exception):
    """A key-theorem configuration failed its hypothesis check."""


# -- array forms -----------------------------------------------------------------
#
# Elementwise twins of the Poincaré-disk (kappa = 1) operations of ``geometry``
# and of the Busemann functions of ``oracles``, on complex arrays: points are
# z = x + iy and tangents their Euclidean components v. They use the scalar
# formulas, which stay the reference they are tested against.


def distance_array(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Twin of ``POINCARE_DISK.distance``: 2 atanh(|q-p| / |1 - conj(p) q|)."""
    rho = np.abs(q - p) / np.abs(1.0 - np.conj(p) * q)
    return 2.0 * np.arctanh(np.minimum(rho, np.nextafter(1.0, 0.0)))


def inner_array(p: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Twin of ``POINCARE_DISK.inner`` for tangents u, v at p."""
    lam = 2.0 / (1.0 - abs2(p))
    return (u.real * v.real + u.imag * v.imag) * lam**2


def norm_array(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Twin of ``POINCARE_DISK.norm`` for a tangent v at p."""
    return 2.0 * np.abs(v) / (1.0 - abs2(p))


def angle_array(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Twin of ``Manifold.angle``: the Euclidean angle in [0, pi]."""
    nu = np.abs(u)
    nv = np.abs(v)
    if not (np.all(nu > 0.0) and np.all(nv > 0.0)):
        raise ZeroVector("angle of a zero tangent is undefined")
    c = (u.real * v.real + u.imag * v.imag) / (nu * nv)
    return np.arccos(np.clip(c, -1.0, 1.0))


def exp_array(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Twin of ``POINCARE_DISK.exp``, with the same radial clamp to
    ``BOUNDARY_CLAMP`` within ``DRIFT_EPS`` of the unit circle."""
    p, v = np.broadcast_arrays(p, v)
    a = np.abs(v)
    moving = a > 0.0
    t = 2.0 * a / (1.0 - abs2(p))
    ur = np.divide(v, a, out=np.zeros_like(v), where=moving) * np.tanh(0.5 * t)
    w = (ur + p) / (1.0 + np.conj(p) * ur)
    if not np.all(np.isfinite(w)):
        raise ResultOutsideDisk("exp produced a non-finite point")
    aw = np.abs(w)
    w = np.where(aw >= 1.0 - DRIFT_EPS, w * (BOUNDARY_CLAMP / aw), w)
    return np.where(moving, w, p)


def log_array(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Twin of ``POINCARE_DISK.log``: the tangent components at p toward q."""
    w0 = (q - p) / (1.0 - np.conj(p) * q)
    rho = np.abs(w0)
    d = 2.0 * np.arctanh(np.minimum(rho, np.nextafter(1.0, 0.0)))
    scale = np.divide(d * (1.0 - abs2(p)), 2.0 * rho, out=np.zeros_like(rho), where=rho > 0.0)
    return w0 * scale


def _unit_array(eta: np.ndarray) -> np.ndarray:
    a = np.abs(eta)
    if not np.all(np.isfinite(a) & (a > 0.0)):
        raise ValueError("boundary directions must be nonzero complex numbers")
    if np.any(np.abs(a - 1.0) > 1e-9):
        raise ValueError("boundary directions must be unit")
    return eta / a


def busemann_value_array(eta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise twin of ``busemann_value`` on complex arrays of boundary
    directions and points."""
    e = _unit_array(eta)
    return np.log(np.abs(x - e) ** 2) - np.log1p(-abs2(x))


def busemann_gradient_array(eta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Elementwise twin of ``busemann_gradient``, as tangent components."""
    e = _unit_array(eta)
    return 0.5 * (1.0 - abs2(p)) * (p - e) / (1.0 - e * np.conj(p))


# -- sampling -----------------------------------------------------------------


def sample_point(rng: np.random.Generator, cap: float = DEFAULT_RADIUS_CAP) -> DiskPoint:
    """Point with hyperbolic-area-uniform radius in [0, cap] and uniform
    angle (Poincaré metric)."""
    u = rng.random()
    t = math.acosh(1.0 + u * (math.cosh(cap) - 1.0))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    r = math.tanh(0.5 * t)
    return DiskPoint(r * math.cos(theta), r * math.sin(theta))


def _sample_points(rng: np.random.Generator, k: int, cap: float = DEFAULT_RADIUS_CAP) -> np.ndarray:
    # k points distributed as sample_point's, as one complex array.
    t = np.arccosh(1.0 + rng.random(k) * (math.cosh(cap) - 1.0))
    theta = rng.uniform(0.0, 2.0 * math.pi, k)
    return np.tanh(0.5 * t) * np.exp(1j * theta)


def _accepted(
    draw: Callable[[int], tuple[np.ndarray, tuple[np.ndarray, ...]]], k: int
) -> tuple[tuple[np.ndarray, ...], int]:
    """Mask and top up: call ``draw(m)`` for the m samples still missing
    until k are accepted.

    ``draw`` returns a boolean mask and columns of m candidates; the rows
    where the mask holds are kept. Returns the k accepted rows of each column
    and the number of candidates rejected.
    """
    kept: list[tuple[np.ndarray, ...]] = []
    have = rejected = 0
    while have < k:
        ok, columns = draw(k - have)
        kept.append(tuple(col[ok] for col in columns))
        n_ok = int(np.count_nonzero(ok))
        have += n_ok
        rejected += ok.size - n_ok
    return tuple(np.concatenate(parts) for parts in zip(*kept)), rejected


@dataclass(frozen=True)
class TriangleSample:
    """Vertices with their pairwise side lengths; ``alpha`` is the angle at
    ``p``, opposite side ``a``."""

    p: DiskPoint
    q: DiskPoint
    r: DiskPoint
    a: float
    b: float
    c: float
    alpha: float

    @classmethod
    def from_points(
        cls, m: Manifold, p: DiskPoint, q: DiskPoint, r: DiskPoint
    ) -> "TriangleSample":
        a = m.distance(q, r)
        b = m.distance(p, r)
        c = m.distance(p, q)
        if min(a, b, c) < 1e-12:
            raise DegenerateTriangle(f"side lengths ({a}, {b}, {c})")
        alpha = m.angle(m.log(p, q), m.log(p, r))
        return cls(p, q, r, a, b, c, alpha)


def sample_triangle(rng: np.random.Generator) -> TriangleSample:
    """Nondegenerate Poincaré-disk triangle with vertices within
    DEFAULT_RADIUS_CAP of the origin and all sides >= MIN_SIDE."""
    while True:
        p, q, r = sample_point(rng), sample_point(rng), sample_point(rng)
        try:
            tri = TriangleSample.from_points(POINCARE_DISK, p, q, r)
        except DegenerateTriangle:
            continue
        if min(tri.a, tri.b, tri.c) >= MIN_SIDE:
            return tri


def _triangles(rng: np.random.Generator, k: int) -> tuple[tuple[np.ndarray, ...], int]:
    """k triangles as sample_triangle draws them: vertices p, q, r and sides
    a, b, c, plus the number of draws rejected for a side below MIN_SIDE."""

    def draw(m: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        p, q, r = (_sample_points(rng, m) for _ in range(3))
        a, b, c = distance_array(q, r), distance_array(p, r), distance_array(p, q)
        return np.minimum(np.minimum(a, b), c) >= MIN_SIDE, (p, q, r, a, b, c)

    return _accepted(draw, k)


# -- law of cosines -------------------------------------------------------------


def law_of_cosines_margin(kappa: float, tri: TriangleSample) -> float:
    """RHS - LHS of cosh(ka) <= cosh(kb)cosh(kc) - sinh(kb)sinh(kc)cos(alpha).

    Nonnegative when the triangle's manifold has curvature >= -kappa^2, and
    nonpositive when the curvature is <= -kappa^2; zero (to rounding) at the
    true constant curvature.
    """
    if not kappa > 0.0:
        raise ValueError("comparison constant must be positive")
    if min(tri.a, tri.b, tri.c) < 1e-12:
        raise DegenerateTriangle(f"side lengths ({tri.a}, {tri.b}, {tri.c})")
    kb = kappa * tri.b
    kc = kappa * tri.c
    rhs = math.cosh(kb) * math.cosh(kc) - math.sinh(kb) * math.sinh(kc) * math.cos(tri.alpha)
    return rhs - math.cosh(kappa * tri.a)


def _law_of_cosines_margins(
    kappa: float, rng: np.random.Generator, k: int
) -> tuple[np.ndarray, int]:
    # Chunk twin of law_of_cosines_margin over k sampled triangles.
    (p, q, r, a, b, c), rejected = _triangles(rng, k)
    alpha = angle_array(log_array(p, q), log_array(p, r))
    kb = kappa * b
    kc = kappa * c
    rhs = np.cosh(kb) * np.cosh(kc) - np.sinh(kb) * np.sinh(kc) * np.cos(alpha)
    return rhs - np.cosh(kappa * a), rejected


# -- key contraction inequality ---------------------------------------------------


@dataclass(frozen=True)
class KeyConfig:
    """One configuration of the contraction inequality.

    The hypotheses are that f stays strictly below f(x) on the closed ball
    B[xbar, delta] and that d(x, xbar) >= 2 delta; the step z = exp_x(lam s)
    with s the normalized negated subgradient then satisfies the cosh bound.
    """

    manifold: Manifold
    oracle: SubgradientOracle
    x: DiskPoint
    xbar: DiskPoint
    delta: float
    lam: float

    def __post_init__(self) -> None:
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if not self.lam > 0.0:
            raise ValueError("lambda must be positive")


def key_theorem_margin(cfg: KeyConfig, analytic_sup: float) -> float:
    """Margin of the contraction inequality for one verified configuration.

    The ball hypothesis is certified by ``analytic_sup``, the caller's closed
    form of sup f over B[xbar, delta]; HypothesisUnverified is raised when a
    hypothesis fails.
    """
    m = cfg.manifold
    fx, g = cfg.oracle.evaluate(m, cfg.x)
    d_xbar = m.distance(cfg.x, cfg.xbar)
    if d_xbar < 2.0 * cfg.delta * (1.0 - 1e-12):
        raise HypothesisUnverified(f"d(x, xbar) = {d_xbar} < 2 delta = {2 * cfg.delta}")
    if not analytic_sup < fx:
        raise HypothesisUnverified(f"sup f on the ball = {analytic_sup} >= f(x) = {fx}")
    gn = m.norm(g)
    if gn == 0.0:
        raise HypothesisUnverified("zero subgradient: x is already optimal")
    s = g.scaled(-cfg.lam / gn)
    z = m.exp(cfg.x, s)
    k = m.kappa
    d_zx = m.distance(cfg.x, z)
    d_zxbar = m.distance(z, cfg.xbar)
    rhs = math.cosh(k * d_xbar) * math.cosh(k * d_zx) - math.sinh(k * d_zx) * math.sinh(
        0.5 * k * cfg.delta
    )
    return rhs - math.cosh(k * d_zxbar)


def _key_margins(
    x: np.ndarray,
    xbar: complex | np.ndarray,
    fx: np.ndarray,
    g: np.ndarray,
    delta: np.ndarray,
    lam: np.ndarray,
    sup: np.ndarray,
) -> np.ndarray:
    """Chunk twin of key_theorem_margin on the Poincaré disk: f(x) = fx with
    subgradient components g, and ``sup`` is the closed-form sup of f over
    B[xbar, delta]."""
    d_xbar = distance_array(x, xbar)
    if np.any(d_xbar < 2.0 * delta * (1.0 - 1e-12)):
        raise HypothesisUnverified("d(x, xbar) < 2 delta for a sampled configuration")
    if not np.all(sup < fx):
        raise HypothesisUnverified("sup f on the ball >= f(x) for a sampled configuration")
    gn = norm_array(x, g)
    if np.any(gn == 0.0):
        raise HypothesisUnverified("zero subgradient: a sampled x is already optimal")
    z = exp_array(x, g * (-lam / gn))
    d_zx = distance_array(x, z)
    rhs = np.cosh(d_xbar) * np.cosh(d_zx) - np.sinh(d_zx) * np.sinh(0.5 * delta)
    return rhs - np.cosh(distance_array(z, xbar))


def per_step_margins(
    kappa: float, d_k: float, d_k1: float, lam_k: float, delta: float
) -> tuple[float, float]:
    """Margins of the two per-step forms of the contraction inequality.

    The second is the first divided by sinh(kappa * lam_k) via the half-angle
    identity, so the pair must agree up to that exact factor.
    """
    ck = math.cosh(kappa * d_k)
    sl = math.sinh(kappa * lam_k)
    shd = math.sinh(0.5 * kappa * delta)
    m1 = ck * math.cosh(kappa * lam_k) - sl * shd - math.cosh(kappa * d_k1)
    m2 = ck * math.tanh(0.5 * kappa * lam_k) - shd - (math.cosh(kappa * d_k1) - ck) / sl
    return m1, m2


@dataclass(frozen=True)
class PerStepSample:
    k: int
    d_k: float
    d_k1: float
    lam: float
    delta: float


def harvest_two_busemann_steps(steps: int) -> tuple[list[PerStepSample], int]:
    """Per-step quantities from a two-Busemann run from 0.9i with
    lambda_k = 1/(k+1), and the number of steps skipped.

    With xbar at the origin and delta = d_k / 2, the ball hypothesis holds in
    closed form: sup f over B[0, delta] is log1p(sinh^2 delta), strictly below
    f(x^k) = log1p(sinh^2 d_k) whenever d_k > 0. Steps within 1e-8 of the
    origin are skipped (delta would vanish).
    """
    m = POINCARE_DISK
    trace = run(SolveConfig(m, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), steps))
    out: list[PerStepSample] = []
    skipped = 0
    for prev, nxt in zip(trace.records, trace.records[1:]):
        d_k = m.distance_z(prev.z, 0j)
        delta = 0.5 * d_k
        if d_k <= 1e-8 or not math.log1p(math.sinh(delta) ** 2) < prev.f_value:
            skipped += 1
            continue
        out.append(
            PerStepSample(
                k=prev.k,
                d_k=d_k,
                d_k1=m.distance_z(nxt.z, 0j),
                lam=m.distance_z(prev.z, nxt.z),
                delta=delta,
            )
        )
    return out, skipped


# -- sublevel-set boundedness ------------------------------------------------------


@dataclass(frozen=True)
class RayWitness:
    direction: complex
    witness_radius: float | None  # None when f stayed <= a out to the cap


def sublevel_boundedness_check(
    m: Manifold,
    oracle: SubgradientOracle,
    a: float,
    n_rays: int,
    seed: int = 0,
) -> tuple["InequalityReport", list[RayWitness]]:
    """Certify along n_rays rays from ``oracle.solution_set.point``, a point of
    S, that f eventually exceeds ``a``.

    Each ray either yields a witness radius (refined to RAY_REFINE_TOL) or is
    flagged; flagged rays count as violations and indicate an unbounded
    sublevel set, i.e. the compactness hypothesis fails in that direction.
    The report's worst_margin is the largest witness radius, an empirical
    bound on the sublevel set.
    """
    t0 = time.perf_counter()
    center = oracle.solution_set.point
    if center is None:
        raise ValueError("oracle has no canonical solution point")
    c = center.z

    def f_at(d: complex, radius: float) -> float:
        s = radius / m.norm_z(c, d)
        return oracle.fn(m, m.exp_z(c, complex(d.real * s, d.imag * s))[0])[0]

    witnesses: list[RayWitness] = []
    for j in range(n_rays):
        theta = 2.0 * math.pi * j / n_rays
        direction = complex(math.cos(theta), math.sin(theta))
        lo = 0.0
        found = None
        r = RAY_STEP
        while r <= RAY_CAP + 1e-9:
            if f_at(direction, r) > a:
                found = r
                break
            lo = r
            r += RAY_STEP
        if found is None:
            witnesses.append(RayWitness(direction, None))
            continue
        hi = found
        while hi - lo > RAY_REFINE_TOL:
            mid = 0.5 * (lo + hi)
            if f_at(direction, mid) > a:
                hi = mid
            else:
                lo = mid
        witnesses.append(RayWitness(direction, hi))

    radii = [w.witness_radius for w in witnesses if w.witness_radius is not None]
    report = InequalityReport(
        check=f"sublevel[{oracle.name},a={a!r}]",
        n=n_rays,
        rejected=0,
        violations=sum(1 for w in witnesses if w.witness_radius is None),
        worst_margin=max(radii) if radii else math.inf,
        tolerance=RAY_REFINE_TOL,
        seed=seed,
        hypothesis_mode="rays",
        histogram=_histogram(radii),
        wall_s=time.perf_counter() - t0,
    )
    return report, witnesses


# -- fuzz harness --------------------------------------------------------------------


def _histogram(values: Sequence[float]) -> dict:
    if not len(values):
        return {"edges": [], "counts": []}
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=20)
    return {"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}


@dataclass(frozen=True)
class InequalityReport:
    # The fields in the order of the report's JSON keys.
    check: str
    n: int
    rejected: int  # draws the samplers discarded (skipped steps for per-step)
    violations: int
    worst_margin: float
    tolerance: float
    seed: int
    hypothesis_mode: str | None
    histogram: dict
    # Wall time spent producing the report; None for a report built by hand.
    wall_s: float | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["samples_per_s"] = None if not self.wall_s else self.n / self.wall_s
        return out


def report_margins(
    margins: Sequence[float] | np.ndarray,
    tolerance: float,
    check: str,
    seed: int,
    two_sided: bool = False,
    hypothesis_mode: str | None = None,
    rejected: int = 0,
) -> InequalityReport:
    """Aggregate margins into a report.

    A one-sided check counts margin < -tolerance as a violation and reports
    the smallest margin; a two-sided check counts |margin| > tolerance and
    reports the largest magnitude.
    """
    values = np.asarray(margins, dtype=float)
    if two_sided:
        magnitudes = np.abs(values)
        violations = np.count_nonzero(magnitudes > tolerance)
        worst = magnitudes.max()
    else:
        violations = np.count_nonzero(values < -tolerance)
        worst = values.min()
    return InequalityReport(
        check=check,
        n=len(values),
        violations=int(violations),
        worst_margin=float(worst),
        tolerance=tolerance,
        seed=seed,
        hypothesis_mode=hypothesis_mode,
        histogram=_histogram(values),
        rejected=rejected,
    )


def fuzz(
    sample_chunk: Callable[[np.random.Generator, int], tuple[Sequence[float] | np.ndarray, int]],
    n: int,
    seed: int,
    tolerance: float,
    check: str,
    two_sided: bool = False,
    hypothesis_mode: str | None = None,
) -> InequalityReport:
    """Draw n margins chunk by chunk and aggregate them with report_margins.

    Chunk c holds k = min(CHUNK, n - c * CHUNK) samples, drawn by one call
    ``sample_chunk(default_rng((seed, c)), k)``, which returns k margins and
    the number of draws it rejected on the way to them.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    t0 = time.perf_counter()
    chunks: list[np.ndarray] = []
    rejected = 0
    for c in range((n + CHUNK - 1) // CHUNK):
        k = min(CHUNK, n - c * CHUNK)
        margins, dropped = sample_chunk(np.random.default_rng((seed, c)), k)
        margins = np.asarray(margins, dtype=float)
        if margins.shape != (k,):
            raise ValueError(f"chunk {c} gave margins of shape {margins.shape}, not ({k},)")
        chunks.append(margins)
        rejected += dropped
    report = report_margins(
        np.concatenate(chunks), tolerance, check, seed, two_sided, hypothesis_mode, rejected
    )
    return replace(report, wall_s=time.perf_counter() - t0)


# -- bundled suites --------------------------------------------------------------------


def suite_law_of_cosines(n: int, seed: int) -> list[InequalityReport]:
    """Equality at the true curvature (kappa = 1) and the lower-bound
    direction at kappa = 2 on the same triangle distribution."""
    eq = fuzz(
        partial(_law_of_cosines_margins, 1.0),
        n,
        seed,
        1e-9,
        "law-of-cosines-equality-k1",
        two_sided=True,
    )
    lb = fuzz(
        partial(_law_of_cosines_margins, 2.0),
        n,
        seed + 1,
        1e-12,
        "law-of-cosines-lower-bound-k2",
    )
    return [eq, lb]


def _distance_key_margins(rng: np.random.Generator, k: int) -> tuple[np.ndarray, int]:
    # Anchored-distance configurations with xbar at the anchor.
    def draw(m: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        anchor = _sample_points(rng, m, 2.0)
        x = _sample_points(rng, m, 2.5)
        d = distance_array(x, anchor)
        delta = 0.5 * d * rng.uniform(0.3, 1.0, m)
        lam = 10.0 ** rng.uniform(-3.0, 0.0, m)
        return d >= 0.2, (anchor, x, d, delta, lam)

    (anchor, x, d, delta, lam), rejected = _accepted(draw, k)
    # f = d(., anchor) with the distance oracle's subgradient; its sup over
    # B[anchor, delta] is exactly delta.
    g = log_array(x, anchor) * (-1.0 / d)
    return _key_margins(x, anchor, d, g, delta, lam, delta), rejected


def _two_busemann_value(x: np.ndarray) -> np.ndarray:
    q = 2.0 * x.imag / (1.0 - abs2(x))
    return np.log1p(q * q)


def _two_busemann_key_margins(rng: np.random.Generator, k: int) -> tuple[np.ndarray, int]:
    """Two-Busemann configurations with xbar at the origin, whose ball
    hypothesis is certified in closed form."""

    def draw(m: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        x = _sample_points(rng, m, 2.5)
        t = distance_array(0j, x)
        r = np.abs(x)
        sin_theta = np.divide(np.abs(x.imag), r, out=np.zeros(m), where=r > 0.0)
        reach = np.sinh(t) * sin_theta
        delta_max = np.minimum(np.arcsinh(reach), 0.5 * t)
        delta = 0.9 * delta_max * rng.uniform(0.2, 1.0, m)
        lam = 10.0 ** rng.uniform(-3.0, 0.0, m)
        return (t >= 0.1) & (reach > 0.0) & (delta >= 1e-6), (x, delta, lam)

    (x, delta, lam), rejected = _accepted(draw, k)
    # sup of f over B[0, delta] in closed form (polar expression).
    sup = np.log1p(np.sinh(delta) ** 2)
    g = busemann_gradient_array(1.0, x) + busemann_gradient_array(-1.0, x)
    return _key_margins(x, 0j, _two_busemann_value(x), g, delta, lam, sup), rejected


def suite_key_theorem(n: int, seed: int) -> list[InequalityReport]:
    """Contraction-inequality margins over n // 2 anchored-distance and
    n - n // 2 two-Busemann configurations, each verified by a closed-form sup."""
    half = n // 2
    rest = n - half
    return [
        fuzz(
            _distance_key_margins,
            half,
            seed,
            1e-10,
            "key-theorem-distance",
            hypothesis_mode="analytic",
        ),
        fuzz(
            _two_busemann_key_margins,
            rest,
            seed + 1,
            1e-10,
            "key-theorem-two-busemann",
            hypothesis_mode="analytic",
        ),
    ]


def suite_per_step(steps: int, seed: int) -> list[InequalityReport]:
    """Per-step margins harvested from a two-Busemann run, plus the exact
    division consistency between the two forms. The three checks share one
    harvest run, so each report carries the wall time of the whole suite."""
    t0 = time.perf_counter()
    samples, skipped = harvest_two_busemann_steps(steps)
    if not samples:
        raise RuntimeError("harvest produced no hypothesis-verified steps")
    m1s, m2s, consistency = [], [], []
    for s in samples:
        m1, m2 = per_step_margins(1.0, s.d_k, s.d_k1, s.lam, s.delta)
        m1s.append(m1)
        m2s.append(m2)
        consistency.append(m2 - m1 / math.sinh(s.lam))
    common = {"hypothesis_mode": "analytic", "rejected": skipped}
    reports = [
        report_margins(m1s, 1e-10, "per-step-cdelta", seed, **common),
        report_margins(m2s, 1e-10, "per-step-cdelta-divided", seed, **common),
        report_margins(
            consistency, 1e-10, "per-step-consistency", seed, two_sided=True, **common
        ),
    ]
    wall_s = time.perf_counter() - t0
    return [replace(r, wall_s=wall_s) for r in reports]


def suite_sublevel(n_rays: int, seed: int) -> list[InequalityReport]:
    """Witness radii for the coercive bundled oracles (compact solution
    sets); both must certify on every ray."""
    m = POINCARE_DISK
    r1, _ = sublevel_boundedness_check(m, distance_oracle(ORIGIN), 1.0, n_rays, seed)
    r2, _ = sublevel_boundedness_check(m, ball_hinge_oracle(ORIGIN, 0.3), 1.0, n_rays, seed)
    return [r1, r2]


def _gradcheck_norm_margins(rng: np.random.Generator, k: int) -> tuple[np.ndarray, int]:
    p = _sample_points(rng, k, 2.5)
    eta = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k))
    return norm_array(p, busemann_gradient_array(eta, p)) - 1.0, 0


def _gradcheck_fd_margins(rng: np.random.Generator, k: int) -> tuple[np.ndarray, int]:
    h = 1e-5
    p = _sample_points(rng, k, 2.0)
    eta = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k))
    s = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k))
    s = s * (1.0 / norm_array(p, s))
    fd = (busemann_value_array(eta, exp_array(p, s * h)) - busemann_value_array(eta, p)) / h
    return fd - inner_array(p, busemann_gradient_array(eta, p), s), 0


def suite_gradcheck(n: int, seed: int) -> list[InequalityReport]:
    """Unit gradient norm and geodesic finite-difference agreement for
    Busemann functions."""
    return [
        fuzz(
            _gradcheck_norm_margins,
            n,
            seed,
            1e-10,
            "busemann-unit-gradient-norm",
            two_sided=True,
        ),
        fuzz(
            _gradcheck_fd_margins,
            n,
            seed + 1,
            1e-4,
            "busemann-finite-difference",
            two_sided=True,
        ),
    ]


@dataclass(frozen=True)
class Suite:
    """A bundled suite: ``fn(n, seed)`` runs it, ``n`` is the default of
    ``--n``, ``counts`` what ``--n`` counts and ``min_n`` its least value.
    The suite functions take no defaults, so this table is the only place a
    suite's defaults are written; each check's tolerance is written at the
    check."""

    fn: Callable[[int, int], list[InequalityReport]]
    n: int
    counts: str
    min_n: int


SUITES = {
    "law-of-cosines": Suite(suite_law_of_cosines, 100_000, "triangles per check", 1),
    "key-theorem": Suite(
        suite_key_theorem, 10_000, "configurations, split over the distance and two-Busemann checks", 2
    ),
    "per-step": Suite(suite_per_step, 2000, "steps of the harvest run", 1),
    "sublevel": Suite(suite_sublevel, 64, "rays per oracle", 1),
    "gradcheck": Suite(suite_gradcheck, 1000, "samples per check", 1),
}


def run_suite(name: str, n: int | None = None, seed: int = 0) -> list[InequalityReport]:
    """Run one named suite, or all of them; ``n`` None picks each suite's default.

    ``n`` and ``seed`` are checked against the table first (ConfigError keyed
    by the flag): ``all`` needs the largest of the suites' smallest ``n``.
    """
    if name != "all" and name not in SUITES:
        raise KeyError(name)
    suites = list(SUITES.values()) if name == "all" else [SUITES[name]]
    least = max(suite.min_n for suite in suites)
    if n is not None and n < least:
        raise ConfigError("--n", f"must be >= {least} for {name}, got {n}")
    if seed < 0:
        raise ConfigError("--seed", f"must be >= 0, got {seed}")
    reports: list[InequalityReport] = []
    for suite in suites:
        reports += suite.fn(suite.n if n is None else n, seed)
    return reports
