"""Geodesically convex objectives with one-subgradient oracles.

Every oracle returns a pair ``(value, subgradient)`` at a query point; the
subgradient ``g`` satisfies ``f(y) >= f(x) + <g, log_x y>`` in the metric of
the manifold the oracle was evaluated on.

The bundled families are Busemann functions on the disk (closed forms below),
their sums, the hinge of the distance to a closed ball, and the plain distance
to an anchor point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import (
    ORIGIN,
    POINCARE_DISK,
    DiskPoint,
    Manifold,
    Tangent,
    abs2_array,
)


class LengthMismatch(ValueError):
    """Oracle and weight lists have different lengths."""


# -- solution-set descriptors -------------------------------------------------

SINGLE_POINT = "single-point"
X_AXIS = "x-axis"
CLOSED_BALL = "closed-ball"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SolutionSet:
    """Where the minimizers are, when that is known in closed form."""

    kind: str
    point: DiskPoint | None = None
    radius: float = 0.0

    @classmethod
    def single_point(cls, p: DiskPoint) -> "SolutionSet":
        return cls(SINGLE_POINT, p)

    @classmethod
    def x_axis(cls) -> "SolutionSet":
        return cls(X_AXIS)

    @classmethod
    def closed_ball(cls, center: DiskPoint, radius: float) -> "SolutionSet":
        if not radius > 0.0:
            raise ValueError("ball radius must be positive")
        return cls(CLOSED_BALL, center, radius)

    @classmethod
    def unknown(cls) -> "SolutionSet":
        return cls(UNKNOWN)

    def distance_to(self, m: Manifold, p: DiskPoint) -> float | None:
        if self.kind == SINGLE_POINT:
            return m.distance(p, self.point)
        if self.kind == X_AXIS:
            return m.distance_to_x_axis(p)
        if self.kind == CLOSED_BALL:
            return max(0.0, m.distance(p, self.point) - self.radius)
        return None

    def nearest_point(self, m: Manifold, p: DiskPoint) -> DiskPoint | None:
        if self.kind == SINGLE_POINT:
            return self.point
        if self.kind == X_AXIS:
            return m.x_axis_projection(p)
        if self.kind == CLOSED_BALL:
            d = m.distance(p, self.point)
            if d <= self.radius:
                return p
            v = m.log(self.point, p)
            return m.exp(self.point, v.scaled(self.radius / d))
        return None


@dataclass(frozen=True)
class SubgradientOracle:
    name: str
    fn: Callable[[Manifold, DiskPoint], tuple[float, Tangent]]
    known_min: float | None = None
    solution_set: SolutionSet = field(default_factory=SolutionSet.unknown)

    def evaluate(self, m: Manifold, p: DiskPoint) -> tuple[float, Tangent]:
        return self.fn(m, p)

    def value(self, m: Manifold, p: DiskPoint) -> float:
        return self.fn(m, p)[0]

    def subgradient(self, m: Manifold, p: DiskPoint) -> Tangent:
        return self.fn(m, p)[1]


# -- Busemann functions --------------------------------------------------------

def _unit(eta: complex) -> complex:
    a = abs(eta)
    if not math.isfinite(a) or a == 0.0:
        raise ValueError("boundary direction must be a nonzero complex number")
    if abs(a - 1.0) > 1e-9:
        raise ValueError(f"boundary direction must be unit, got |eta| = {a}")
    return eta / a


def busemann_value(eta: complex, x: DiskPoint) -> float:
    """Busemann function of the ray from the origin toward the boundary point
    ``eta``: log(|x - eta|^2 / (1 - |x|^2))."""
    e = _unit(eta)
    return math.log(abs(x.z - e) ** 2) - math.log1p(-x.abs2())


def busemann_gradient(eta: complex, p: DiskPoint) -> Tangent:
    """Poincaré gradient (1-|p|^2)/2 * (p-eta)/(1-eta conj(p)); unit norm."""
    e = _unit(eta)
    g = 0.5 * (1.0 - p.abs2()) * (p.z - e) / (1.0 - e * p.z.conjugate())
    return Tangent.from_complex(p, g)


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
    return np.log(np.abs(x - e) ** 2) - np.log1p(-abs2_array(x))


def busemann_gradient_array(eta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Elementwise twin of ``busemann_gradient``, as tangent components."""
    e = _unit_array(eta)
    return 0.5 * (1.0 - abs2_array(p)) * (p - e) / (1.0 - e * np.conj(p))


def _require_disk(m: Manifold, what: str) -> None:
    if m.flat:
        raise ValueError(f"{what} is defined on disk models only")


def _disk_gradient_scale(m: Manifold) -> float:
    # Under the conformal rescaling by 1/kappa^2 the gradient components grow
    # by kappa^2 (the inverse metric scales the differential).
    return m.kappa * m.kappa


def busemann_oracle(eta: complex) -> SubgradientOracle:
    e = _unit(eta)

    def fn(m: Manifold, p: DiskPoint) -> tuple[float, Tangent]:
        _require_disk(m, "a Busemann oracle")
        g = busemann_gradient(e, p)
        return busemann_value(e, p), g.scaled(_disk_gradient_scale(m))

    return SubgradientOracle(f"busemann:eta={format_complex(e)}", fn)


def two_busemann_value_polar(p: DiskPoint) -> float:
    """The worked-example objective in polar form, log(1 + sinh^2 t sin^2 theta)
    with t the Poincaré distance to the origin and theta the angle at the
    origin to the +x direction."""
    if p == ORIGIN:
        return 0.0
    t = POINCARE_DISK.distance(ORIGIN, p)
    theta = math.atan2(p.y, p.x)
    return math.log1p((math.sinh(t) * math.sin(theta)) ** 2)


def two_busemann_oracle() -> SubgradientOracle:
    """Sum of the Busemann functions of the rays toward +1 and -1.

    Nonnegative, zero exactly on the x-axis diameter; its gradient on the
    y-axis points along the axis toward the origin.
    """

    def fn(m: Manifold, p: DiskPoint) -> tuple[float, Tangent]:
        _require_disk(m, "the two-Busemann oracle")
        value = busemann_value(1.0, p) + busemann_value(-1.0, p)
        g = busemann_gradient(1.0, p).v + busemann_gradient(-1.0, p).v
        scale = _disk_gradient_scale(m)
        return value, Tangent.from_complex(p, g * scale)

    return SubgradientOracle("two-busemann", fn, known_min=0.0, solution_set=SolutionSet.x_axis())


# -- distance-based oracles -----------------------------------------------------

def distance_oracle(anchor: DiskPoint) -> SubgradientOracle:
    """f(p) = d(p, anchor); coercive with the single minimizer ``anchor``."""

    def fn(m: Manifold, p: DiskPoint) -> tuple[float, Tangent]:
        d = m.distance(p, anchor)
        if d == 0.0:
            return 0.0, Tangent(p, 0.0, 0.0)
        s = m.log(p, anchor).scaled(-1.0 / d)
        return d, s

    return SubgradientOracle(
        f"distance:anchor={format_complex(anchor.z)}",
        fn,
        known_min=0.0,
        solution_set=SolutionSet.single_point(anchor),
    )


def ball_hinge_oracle(center: DiskPoint, r: float) -> SubgradientOracle:
    """f(p) = max(0, d(p, center) - r); zero subgradient on the closed ball
    (a valid choice there, and the one that triggers the STOP rule)."""
    if not r > 0.0:
        raise ValueError("hinge radius must be positive")

    def fn(m: Manifold, p: DiskPoint) -> tuple[float, Tangent]:
        d = m.distance(p, center)
        if d <= r:
            return 0.0, Tangent(p, 0.0, 0.0)
        s = m.log(p, center).scaled(-1.0 / d)
        return d - r, s

    return SubgradientOracle(
        f"ball-hinge:center={format_complex(center.z)},r={r!r}",
        fn,
        known_min=0.0,
        solution_set=SolutionSet.closed_ball(center, r),
    )


def weighted_sum(
    oracles: list[SubgradientOracle],
    weights: list[float],
    name: str = "weighted-sum",
    known_min: float | None = None,
    solution_set: SolutionSet | None = None,
) -> SubgradientOracle:
    """Positively weighted sum; convexity is preserved. The minimum and the
    solution set are unknown unless supplied."""
    if len(oracles) != len(weights):
        raise LengthMismatch(f"{len(oracles)} oracles vs {len(weights)} weights")
    if not oracles:
        raise ValueError("need at least one oracle")
    if any(not w > 0.0 for w in weights):
        raise ValueError("weights must be positive")
    parts = list(zip(oracles, weights))

    def fn(m: Manifold, p: DiskPoint) -> tuple[float, Tangent]:
        total = 0.0
        gx = 0.0
        gy = 0.0
        for oracle, w in parts:
            f, g = oracle.evaluate(m, p)
            total += w * f
            gx += w * g.vx
            gy += w * g.vy
        return total, Tangent(p, gx, gy)

    return SubgradientOracle(
        name,
        fn,
        known_min=known_min,
        solution_set=solution_set if solution_set is not None else SolutionSet.unknown(),
    )


# -- registry (CLI-facing) -------------------------------------------------------

def parse_complex(text: str) -> complex:
    """Parse 'a+bi' notation ('0.9i', '-0.5', '0.0+0.9i', ...)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None


def format_complex(z: complex) -> str:
    re, im = z.real, z.imag
    sign = "+" if im >= 0 or math.isnan(im) else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def _parse_params(body: str, spec: str) -> dict[str, str]:
    params: dict[str, str] = {}
    if not body:
        return params
    for item in body.split(","):
        if "=" not in item:
            raise ValueError(f"malformed oracle parameter {item!r} in {spec!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def make_oracle(spec: str) -> SubgradientOracle:
    """Build a bundled oracle from its config string.

    Known names: ``two-busemann``, ``ball-hinge:center=...,r=...``,
    ``distance:anchor=...``, ``busemann:eta=...``.
    """
    name, _, body = spec.partition(":")
    name = name.strip()
    params = _parse_params(body, spec)

    def take(key: str) -> str:
        if key not in params:
            raise ValueError(f"oracle {name!r} needs parameter {key!r}")
        return params.pop(key)

    try:
        if name == "two-busemann":
            oracle = two_busemann_oracle()
        elif name == "ball-hinge":
            center = DiskPoint.from_complex(parse_complex(take("center")))
            oracle = ball_hinge_oracle(center, float(take("r")))
        elif name == "distance":
            oracle = distance_oracle(DiskPoint.from_complex(parse_complex(take("anchor")), check=False))
        elif name == "busemann":
            oracle = busemann_oracle(parse_complex(take("eta")))
        else:
            raise ValueError(f"unknown oracle {name!r}")
    except ValueError:
        raise
    if params:
        raise ValueError(f"unexpected oracle parameters {sorted(params)} in {spec!r}")
    return oracle


ORACLE_NAMES = ("two-busemann", "ball-hinge", "distance", "busemann")
