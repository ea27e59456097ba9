"""Geometry of the Poincaré disk, its curvature-scaled variants, and the flat plane.

Models
------
* ``poincare-disk``: the open unit disk with metric
  ``<u,v>_p = 4<u,v> / (1-|p|^2)^2`` (constant curvature -1).
* ``scaled-disk``: same carrier, metric divided by ``kappa^2``. Distances are
  the Poincaré distances divided by ``kappa`` and the curvature is
  ``-kappa^2``; geodesics and the exponential map coincide with the
  unscaled disk.
* ``euclidean-plane``: the flat fallback. Points are unconstrained pairs.

All operations are pure functions of immutable values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import InitVar, dataclass, field

# exp() clamps radially to BOUNDARY_CLAMP when the result lands within
# DRIFT_EPS of the unit circle; the caller sees a drift flag.
DRIFT_EPS = 1e-15
BOUNDARY_CLAMP = 1.0 - 1e-12
# Largest float below 1: distance and log clamp atanh's argument to it.
_BELOW_ONE = math.nextafter(1.0, 0.0)


class ZeroVector(ValueError):
    """An operation that needs a nonzero tangent vector received zero."""


class ResultOutsideDisk(ArithmeticError):
    """A disk operation produced a non-finite or out-of-disk point."""


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open unit disk, read as the complex number x + iy.

    ``check=False`` skips the disk bound and is reserved for carriers of the
    flat plane (where coordinates are unconstrained).
    """

    x: float
    y: float
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")
        if check and self.x * self.x + self.y * self.y >= 1.0:
            raise ValueError(f"point ({self.x}, {self.y}) is not inside the open unit disk")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    @classmethod
    def from_complex(cls, z: complex, check: bool = True) -> "DiskPoint":
        return cls(z.real, z.imag, check)

    @classmethod
    def plane(cls, x: float, y: float) -> "DiskPoint":
        """Unconstrained point for the Euclidean plane model."""
        return cls(x, y, check=False)


ORIGIN = DiskPoint(0.0, 0.0)


@dataclass(frozen=True)
class Tangent:
    """Tangent vector at ``base``, stored by its Euclidean components.

    The length of a tangent depends on the owning manifold; use
    ``Manifold.norm``.
    """

    base: DiskPoint
    vx: float
    vy: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "vx", float(self.vx))
        object.__setattr__(self, "vy", float(self.vy))
        if not (math.isfinite(self.vx) and math.isfinite(self.vy)):
            raise ValueError(f"tangent components must be finite, got ({self.vx}, {self.vy})")

    @property
    def v(self) -> complex:
        return complex(self.vx, self.vy)

    @classmethod
    def from_complex(cls, base: DiskPoint, v: complex) -> "Tangent":
        return cls(base, v.real, v.imag)

    def is_zero(self) -> bool:
        return self.vx == 0.0 and self.vy == 0.0

    def scaled(self, factor: float) -> "Tangent":
        return Tangent(self.base, self.vx * factor, self.vy * factor)


def abs2(z: complex) -> float:
    """|z|^2 as x*x + y*y, the rounding of the disk-bound check of
    ``DiskPoint``; elementwise on a numpy complex array too."""
    return z.real * z.real + z.imag * z.imag


@dataclass(frozen=True)
class Manifold:
    """One of the three supported models with its curvature bound ``kappa``.

    ``kappa`` is the comparison constant: the sectional curvature is
    ``-kappa^2`` (0 for the plane, 1 for the Poincaré disk).
    """

    model: str
    kappa: float
    flat: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.model not in ("poincare-disk", "scaled-disk", "euclidean-plane"):
            raise ValueError(f"unknown manifold model {self.model!r}")
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "flat", self.model == "euclidean-plane")
        if self.model == "euclidean-plane":
            if self.kappa != 0.0:
                raise ValueError("the flat plane has curvature bound 0")
        elif not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise ValueError(f"disk models need a finite kappa > 0, got {self.kappa}")
        if self.model == "poincare-disk" and self.kappa != 1.0:
            raise ValueError("the Poincaré disk has kappa = 1")

    def contains(self, p: DiskPoint) -> bool:
        return self.flat or abs2(p.z) < 1.0

    # -- metric ------------------------------------------------------------
    # The ``_z`` forms take points z = x + iy and tangent components
    # v = vx + i vy as complex numbers; the solver and the oracles call them.

    def distance_z(self, p: complex, q: complex) -> float:
        """The distance between the points ``p`` and ``q``."""
        dq = q - p
        if self.flat:
            return abs(dq)
        # 2*atanh(|p-q| / |1 - conj(p) q|) equals the usual
        # arccosh(1 + 2|p-q|^2 / ((1-|p|^2)(1-|q|^2))) but keeps full relative
        # accuracy for nearby points.
        num = abs(dq)
        if num == 0.0:
            return 0.0
        # rho >= 1 is only reachable through rounding at the very boundary.
        rho = num / abs(1.0 - p.conjugate() * q)
        return 2.0 * math.atanh(_BELOW_ONE if rho >= 1.0 else rho) / self.kappa

    def term_sum_z(self, z: complex, terms: tuple) -> tuple[float, complex]:
        """The ordered sum of ``terms`` at ``z`` and its subgradient components.

        A hinge term ``(a, r, w)`` adds w * max(0, d(z, a) - r), with the zero
        subgradient where d <= r and w times the unit one, -log_z(a) / d,
        elsewhere; r = 0 is the distance to ``a``. An opaque term
        ``(fn, None, w)`` adds w times ``fn(self, z)``. The hinge repeats the
        formulas of ``distance_z`` and ``log_z`` inline, sharing conj(z) and
        1 - |z|^2 across the terms, with the same roundings. The sums start
        at -0.0, the exact additive identity, so one hinge of weight 1
        returns its own (f, g) bit for bit.
        """
        total = gx = gy = -0.0
        flat = self.flat
        if not flat:
            zc = z.conjugate()
            s = 1.0 - abs2(z)
            kappa = self.kappa
            atanh = math.atanh
        for a, r, w in terms:
            if r is None:
                f, g = a(self, z)
                fx, fy = g.real, g.imag
            else:
                # d and the log are |v| and v on the plane, and at z = a.
                v = a - z
                d = abs(v)
                if not flat and d != 0.0:
                    den = 1.0 - zc * a
                    rho = d / abs(den)
                    d = 2.0 * atanh(_BELOW_ONE if rho >= 1.0 else rho) / kappa
                    w0 = v / den
                    rho = abs(w0)
                    if rho == 0.0:
                        v = 0j
                    else:
                        t = 2.0 * atanh(_BELOW_ONE if rho >= 1.0 else rho)
                        v = w0 * (t * s / (2.0 * rho))
                # A NaN d is no d <= r and gives a NaN sum.
                if d <= r:
                    f = fx = fy = 0.0
                else:
                    c = -1.0 / d
                    f, fx, fy = d - r, v.real * c, v.imag * c
            total += w * f
            gx += w * fx
            gy += w * fy
        return total, complex(gx, gy)

    def distance(self, p: DiskPoint, q: DiskPoint) -> float:
        return self.distance_z(p.z, q.z)

    def inner(self, u: Tangent, v: Tangent) -> float:
        if u.base != v.base:
            raise ValueError("tangents live at different base points")
        dot = u.vx * v.vx + u.vy * v.vy
        if self.flat:
            return dot
        lam = 2.0 / (1.0 - abs2(u.base.z))
        return dot * (lam / self.kappa) ** 2

    def norm_z(self, p: complex, v: complex) -> float:
        """Manifold length of the tangent with components ``v`` at ``p``."""
        e = math.hypot(v.real, v.imag)
        if self.flat:
            return e
        return 2.0 * e / ((1.0 - abs2(p)) * self.kappa)

    def norm(self, v: Tangent) -> float:
        return self.norm_z(v.base.z, v.v)

    def angle(self, u: Tangent, v: Tangent) -> float:
        """Angle in [0, pi]; all three models are conformal to the plane, so
        this is the Euclidean angle between the component vectors."""
        if u.base != v.base:
            raise ValueError("tangents live at different base points")
        nu = math.hypot(u.vx, u.vy)
        nv = math.hypot(v.vx, v.vy)
        if nu == 0.0 or nv == 0.0:
            raise ZeroVector("angle of a zero tangent is undefined")
        c = (u.vx * v.vx + u.vy * v.vy) / (nu * nv)
        return math.acos(max(-1.0, min(1.0, c)))

    # -- exponential map and its inverse ------------------------------------

    def exp_z(self, p: complex, v: complex) -> tuple[complex, bool]:
        """Endpoint of the unit-time geodesic from ``p`` with velocity ``v``,
        and whether rounding pushed it against the unit circle so that it was
        clamped radially to ``BOUNDARY_CLAMP``. A non-finite input or endpoint
        raises; a disk endpoint then needs no bound check, as its modulus is
        below 1 - DRIFT_EPS or it was clamped."""
        if not cmath.isfinite(v):
            raise ValueError(f"tangent components must be finite, got ({v.real}, {v.imag})")
        if v == 0.0:
            return p, False
        if self.flat:
            w = p + v
            if not cmath.isfinite(w):
                raise ValueError(f"point coordinates must be finite, got ({w.real}, {w.imag})")
            return w, False
        # Step length in unscaled-disk units: the scaled metric shortens the
        # manifold norm by kappa, and the geodesic parameter stretches by the
        # same factor, so kappa cancels.
        a = abs(v)
        t = 2.0 * a / (1.0 - abs2(p))
        u = v / a
        r = math.tanh(0.5 * t)
        w = (u * r + p) / (1.0 + p.conjugate() * u * r)
        if not cmath.isfinite(w):
            raise ResultOutsideDisk(f"exp produced a non-finite point from {p} with |v|={t}")
        a = abs(w)
        if a >= 1.0 - DRIFT_EPS:
            return w * (BOUNDARY_CLAMP / a), True
        return w, False

    def exp(self, p: DiskPoint, v: Tangent) -> DiskPoint:
        """``exp_z`` on a DiskPoint and a Tangent based there; a zero tangent returns ``p`` itself."""
        if v.base != p:
            raise ValueError("tangent is not based at p")
        if v.is_zero():
            return p
        return DiskPoint.from_complex(self.exp_z(p.z, v.v)[0], check=not self.flat)

    def log_z(self, p: complex, q: complex) -> complex:
        """The components of the tangent at ``p`` with ``exp_z(p, .) = q`` and
        manifold norm ``distance_z(p, q)``. The distance takes the modulus
        ratio and the log the modulus of the complex quotient; each keeps its
        own rounding."""
        dq = q - p
        if self.flat:
            return dq
        if dq == 0.0:
            # Before the quotient: 1 - conj(p) q is 0 for a point on the circle.
            return 0j
        w0 = dq / (1.0 - p.conjugate() * q)
        rho = abs(w0)
        if rho == 0.0:
            return 0j
        # Euclidean components are kappa-independent: the manifold norm and
        # the manifold distance pick up the same 1/kappa.
        t = 2.0 * math.atanh(_BELOW_ONE if rho >= 1.0 else rho)
        return w0 * (t * (1.0 - abs2(p)) / (2.0 * rho))

    def log(self, p: DiskPoint, q: DiskPoint) -> Tangent:
        """The tangent at ``p`` with ``exp(p, log(p, q)) = q`` and manifold
        norm equal to ``distance(p, q)``."""
        return Tangent.from_complex(p, self.log_z(p.z, q.z))

    # -- derived quantities --------------------------------------------------

    def distance_to_x_axis_z(self, z: complex) -> float:
        """Distance from the point ``z`` to the diameter (-1, 1) x {0} (to the
        x-axis in the flat model)."""
        if self.flat:
            return abs(z.imag)
        return math.asinh(2.0 * abs(z.imag) / (1.0 - abs2(z))) / self.kappa

    def distance_to_x_axis(self, p: DiskPoint) -> float:
        return self.distance_to_x_axis_z(p.z)

    def x_axis_projection(self, p: DiskPoint) -> DiskPoint:
        """Nearest point of the x-axis diameter to ``p``."""
        if self.flat:
            return DiskPoint.plane(p.x, 0.0)
        if p.x == 0.0:
            return ORIGIN
        # The foot s solves x s^2 - (1+|p|^2) s + x = 0; its two roots have
        # product 1, so take the reciprocal of the stable large root.
        n = abs2(p.z)
        s_big = ((1.0 + n) + math.sqrt((1.0 + n) ** 2 - 4.0 * p.x * p.x)) / (2.0 * p.x)
        return DiskPoint(1.0 / s_big, 0.0)


POINCARE_DISK = Manifold("poincare-disk", 1.0)
EUCLIDEAN_PLANE = Manifold("euclidean-plane", 0.0)


def scaled_disk(kappa: float) -> Manifold:
    return Manifold("scaled-disk", kappa)
