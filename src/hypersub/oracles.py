"""Geodesically convex objectives with one-subgradient oracles.

Every oracle returns a pair ``(value, subgradient)`` at a query point; the
subgradient ``g`` satisfies ``f(y) >= f(x) + <g, log_x y>`` in the metric of
the manifold the oracle was evaluated on. An oracle's ``fn(m, z)`` takes the
point as a complex number and returns the subgradient's Euclidean components
as one; ``evaluate`` gives the same pair as DiskPoint -> Tangent.

The bundled families are Busemann functions on the disk (closed forms below),
their sums, the hinge of the distance to a closed ball, and the plain distance
to an anchor point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .geometry import (
    ORIGIN,
    DiskPoint,
    Manifold,
    Tangent,
    abs2,
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
    """Where the minimizers S are, when that is known in closed form."""

    kind: str
    point: DiskPoint | None = None  # a point of S; the origin on the x-axis
    radius: float = 0.0

    @cached_property
    def point_z(self) -> complex:
        """``point`` as the complex number x + iy, built once for distance_to."""
        return self.point.z

    @classmethod
    def single_point(cls, p: DiskPoint) -> "SolutionSet":
        return cls(SINGLE_POINT, p)

    @classmethod
    def x_axis(cls) -> "SolutionSet":
        return cls(X_AXIS, ORIGIN)

    @classmethod
    def closed_ball(cls, center: DiskPoint, radius: float) -> "SolutionSet":
        if not radius > 0.0:
            raise ValueError("ball radius must be positive")
        return cls(CLOSED_BALL, center, radius)

    @classmethod
    def unknown(cls) -> "SolutionSet":
        return cls(UNKNOWN)

    def distance_to(self, m: Manifold, z: complex) -> float | None:
        """d(z, S) for a point given as the complex number z = x + iy, with no
        disk-bound check (``run()`` passes x0 and exp_z outputs); None if S is unknown."""
        if self.kind == SINGLE_POINT:
            return m.distance_z(z, self.point_z)
        if self.kind == X_AXIS:
            return m.distance_to_x_axis_z(z)
        if self.kind == CLOSED_BALL:
            return max(0.0, m.distance_z(z, self.point_z) - self.radius)
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
    fn: Callable[[Manifold, complex], tuple[float, complex]]
    known_min: float | None = None
    solution_set: SolutionSet = field(default_factory=SolutionSet.unknown)
    disk_only: bool = False  # Busemann-based: undefined on the flat plane

    def evaluate(self, m: Manifold, p: DiskPoint) -> tuple[float, Tangent]:
        f, g = self.fn(m, p.z)
        return f, Tangent.from_complex(p, g)

    def value(self, m: Manifold, p: DiskPoint) -> float:
        return self.fn(m, p.z)[0]

    def subgradient(self, m: Manifold, p: DiskPoint) -> Tangent:
        return self.evaluate(m, p)[1]


# -- Busemann functions --------------------------------------------------------

def _unit(eta: complex) -> complex:
    a = abs(eta)
    if not math.isfinite(a) or a == 0.0:
        raise ValueError("boundary direction must be a nonzero complex number")
    if abs(a - 1.0) > 1e-9:
        raise ValueError(f"boundary direction must be unit, got |eta| = {a}")
    return eta / a


def _busemann_value(e: complex, z: complex) -> float:
    # e is a unit boundary direction (the result of _unit).
    return math.log(abs(z - e) ** 2) - math.log1p(-abs2(z))


def _busemann_gradient(e: complex, z: complex) -> complex:
    return 0.5 * (1.0 - abs2(z)) * (z - e) / (1.0 - e * z.conjugate())


def busemann_value(eta: complex, x: DiskPoint) -> float:
    """Busemann function of the ray from the origin toward the boundary point
    ``eta``: log(|x - eta|^2 / (1 - |x|^2))."""
    return _busemann_value(_unit(eta), x.z)


def busemann_gradient(eta: complex, p: DiskPoint) -> Tangent:
    """Poincaré gradient (1-|p|^2)/2 * (p-eta)/(1-eta conj(p)); unit norm."""
    return Tangent.from_complex(p, _busemann_gradient(_unit(eta), p.z))


def _require_disk(m: Manifold, what: str) -> None:
    if m.flat:
        raise ValueError(f"{what} is defined on disk models only")


def _disk_gradient_scale(m: Manifold) -> float:
    # Under the conformal rescaling by 1/kappa^2 the gradient components grow
    # by kappa^2 (the inverse metric scales the differential).
    return m.kappa * m.kappa


def busemann_oracle(eta: complex) -> SubgradientOracle:
    e = _unit(eta)
    # The public forms normalize their argument again; keep that rounding.
    e2 = _unit(e)

    def fn(m: Manifold, z: complex) -> tuple[float, complex]:
        _require_disk(m, "a Busemann oracle")
        g = _busemann_gradient(e2, z)
        c = _disk_gradient_scale(m)
        return _busemann_value(e2, z), complex(g.real * c, g.imag * c)

    return SubgradientOracle(f"busemann:eta={format_complex(e)}", fn, disk_only=True)


def two_busemann_oracle() -> SubgradientOracle:
    """Sum of the Busemann functions of the rays toward +1 and -1.

    Nonnegative, zero exactly on the x-axis diameter; its gradient on the
    y-axis points along the axis toward the origin.
    """

    def fn(m: Manifold, z: complex) -> tuple[float, complex]:
        _require_disk(m, "the two-Busemann oracle")
        value = _busemann_value(1.0, z) + _busemann_value(-1.0, z)
        g = _busemann_gradient(1.0, z) + _busemann_gradient(-1.0, z)
        return value, g * _disk_gradient_scale(m)

    return SubgradientOracle(
        "two-busemann", fn, known_min=0.0, solution_set=SolutionSet.x_axis(), disk_only=True
    )


# -- distance-based oracles -----------------------------------------------------

def _term_sum_fn(terms: tuple) -> Callable[[Manifold, complex], tuple[float, complex]]:
    """fn of the sum ``m.term_sum_z(z, terms)``. The terms ride on fn as
    ``fn.terms``, so that ``weighted_sum`` can inline a lone term of weight 1."""

    def fn(m: Manifold, z: complex) -> tuple[float, complex]:
        return m.term_sum_z(z, terms)

    fn.terms = terms
    return fn


def distance_oracle(anchor: DiskPoint) -> SubgradientOracle:
    """f(p) = d(p, anchor); coercive with the single minimizer ``anchor``."""
    return SubgradientOracle(
        f"distance:anchor={format_complex(anchor.z)}",
        _term_sum_fn(((anchor.z, 0.0, 1.0),)),
        known_min=0.0,
        solution_set=SolutionSet.single_point(anchor),
    )


def ball_hinge_oracle(center: DiskPoint, r: float) -> SubgradientOracle:
    """f(p) = max(0, d(p, center) - r); zero subgradient on the closed ball
    (a valid choice there, and the one that triggers the STOP rule)."""
    if not r > 0.0:
        raise ValueError("hinge radius must be positive")
    return SubgradientOracle(
        f"ball-hinge:center={format_complex(center.z)},r={r!r}",
        _term_sum_fn(((center.z, r, 1.0),)),
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
    terms = []
    for oracle, w in zip(oracles, weights):
        # A part that is one term of weight 1 is inlined as that term of
        # weight w, which rounds as w * (its f, g) did. Any other part, a
        # nested sum too, stays opaque: w1 * (w2 * f) does not round like
        # (w1 * w2) * f.
        inner = getattr(oracle.fn, "terms", ())
        if len(inner) == 1 and inner[0][2] == 1.0:
            a, r, _ = inner[0]
            terms.append((a, r, w))
        else:
            terms.append((oracle.fn, None, w))
    return SubgradientOracle(
        name,
        _term_sum_fn(tuple(terms)),
        known_min=known_min,
        solution_set=solution_set if solution_set is not None else SolutionSet.unknown(),
        disk_only=any(o.disk_only for o in oracles),
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


def parse_spec(
    spec: str, what: str, signatures: dict[str, dict[str, str | None]]
) -> tuple[str, dict[str, str]]:
    """Split a ``name:key=value,...`` spec into its name and parameters.

    ``signatures`` maps each accepted name to its parameters and their
    default text (None marks a required parameter); the returned parameters
    include the defaults. Every error is a ValueError quoting ``spec``.
    """
    name, _, body = spec.partition(":")
    name = name.strip()
    if name not in signatures:
        raise ValueError(f"unknown {what} {name!r} in {spec!r}")
    signature = signatures[name]
    params: dict[str, str] = {}
    for item in body.split(",") if body else []:
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"malformed {what} parameter {item!r} in {spec!r}")
        if key not in signature or key in params:
            raise ValueError(f"unexpected or repeated {what} parameter {key!r} in {spec!r}")
        params[key] = value.strip()
    for key, default in signature.items():
        if key not in params:
            if default is None:
                raise ValueError(f"{what} {name!r} needs parameter {key!r} in {spec!r}")
            params[key] = default
    return name, params


def make_oracle(spec: str) -> SubgradientOracle:
    """Build a bundled oracle from its config string.

    Known names: ``two-busemann``, ``ball-hinge:center=...,r=...``,
    ``distance:anchor=...``, ``busemann:eta=...``. Points are not checked
    against the disk here; ``SolveConfig`` checks them against its manifold.
    """
    name, params = parse_spec(
        spec,
        "oracle",
        {
            "two-busemann": {},
            "ball-hinge": {"center": None, "r": None},
            "distance": {"anchor": None},
            "busemann": {"eta": None},
        },
    )
    if name == "two-busemann":
        return two_busemann_oracle()
    if name == "ball-hinge":
        center = DiskPoint.from_complex(parse_complex(params["center"]), check=False)
        return ball_hinge_oracle(center, float(params["r"]))
    if name == "distance":
        return distance_oracle(DiskPoint.from_complex(parse_complex(params["anchor"]), check=False))
    return busemann_oracle(parse_complex(params["eta"]))
