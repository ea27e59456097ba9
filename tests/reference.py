"""Independent reference computations for the test suite.

Everything here is deliberately built on other code paths than the library:
mpmath arbitrary precision for limit definitions and closed forms, scipy
minimization for distances-to-sets, math.fsum for series. The library is
never called from this module, but by ``reference_run``, which rebuilds the
solver's loop on the library's single-point forms.
"""

import itertools
import math

import mpmath as mp
from scipy.optimize import minimize_scalar


def mp_distance(p: complex, q: complex, dps: int = 60) -> float:
    """Poincaré distance via the arccosh form, in arbitrary precision."""
    with mp.workdps(dps):
        zp, zq = mp.mpc(p), mp.mpc(q)
        num = 2 * mp.fabs(zp - zq) ** 2
        den = (1 - mp.fabs(zp) ** 2) * (1 - mp.fabs(zq) ** 2)
        return float(mp.acosh(1 + num / den))


def mp_busemann_limit(eta: complex, p: complex, t: float = 30.0, dps: int = 60) -> float:
    """Truncated limit definition d(p, gamma(t)) - t along the unit-speed ray
    gamma(t) = eta * tanh(t/2), evaluated in arbitrary precision."""
    with mp.workdps(dps):
        e = mp.mpc(eta)
        e = e / mp.fabs(e)
        g = e * mp.tanh(mp.mpf(t) / 2)
        zp = mp.mpc(p)
        num = 2 * mp.fabs(zp - g) ** 2
        den = (1 - mp.fabs(zp) ** 2) * (1 - mp.fabs(g) ** 2)
        return float(mp.acosh(1 + num / den) - t)


def mobius(c: complex, u: complex, z: complex) -> complex:
    """Disk automorphism z -> (u z + c) / (1 + conj(c) u z) for |c| < 1 and
    |u| = 1; it maps 0 to c and preserves the Poincaré metric."""
    return (u * z + c) / (1 + c.conjugate() * u * z)


def mobius_derivative(c: complex, u: complex, z: complex) -> complex:
    """Complex derivative of ``mobius`` at z; the map is conformal, so a
    tangent's components are pushed forward by multiplying with it."""
    return u * (1 - abs(c) ** 2) / (1 + c.conjugate() * u * z) ** 2


def mp_two_busemann(p: complex, dps: int = 60) -> float:
    """The sum of the Busemann functions toward +1 and -1 at p,
    log(|p - 1|^2 |p + 1|^2 / (1 - |p|^2)^2), evaluated with dps digits."""
    with mp.workdps(dps):
        z = mp.mpc(p)
        ratio = mp.fabs(z - 1) ** 2 * mp.fabs(z + 1) ** 2 / (1 - mp.fabs(z) ** 2) ** 2
        return float(mp.log(ratio))


def two_busemann_polar(p: complex) -> float:
    """The worked-example objective in polar form, log(1 + sinh^2 t sin^2 theta),
    with t = 2 atanh|p| the Poincaré distance to the origin and theta the
    angle at the origin to the +x direction."""
    if p == 0:
        return 0.0
    t = 2 * math.atanh(abs(p))
    theta = math.atan2(p.imag, p.real)
    return math.log1p((math.sinh(t) * math.sin(theta)) ** 2)


def min_distance_to_x_axis(p: complex) -> float:
    """1-D numerical minimization of the Poincaré distance from p to the
    diameter, over the foot coordinate."""

    def dist_to(s: float) -> float:
        q = complex(s, 0.0)
        num = 2 * abs(p - q) ** 2
        den = (1 - abs(p) ** 2) * (1 - s * s)
        return math.acosh(1 + num / den)

    res = minimize_scalar(
        dist_to, bounds=(-1 + 1e-12, 1 - 1e-12), method="bounded",
        options={"xatol": 1e-13},
    )
    return float(res.fun)


def argmin_on_x_axis(p: complex) -> float:
    def dist_to(s: float) -> float:
        q = complex(s, 0.0)
        num = 2 * abs(p - q) ** 2
        den = (1 - abs(p) ** 2) * (1 - s * s)
        return math.acosh(1 + num / den)

    res = minimize_scalar(
        dist_to, bounds=(-1 + 1e-12, 1 - 1e-12), method="bounded",
        options={"xatol": 1e-13},
    )
    return float(res.x)


def fsum_partial_sums(fn, n: int) -> tuple[float, float]:
    """(sum lambda_k, sum lambda_k^2) for k = 0..n by math.fsum."""
    vals = [fn(k) for k in range(n + 1)]
    return math.fsum(vals), math.fsum(v * v for v in vals)


def reference_run(cfg) -> tuple[list[tuple], tuple]:
    """The records and the termination of ``run(cfg)``, from the method's loop
    written on the single-point forms: one call each of ``Manifold.norm_z``,
    ``Manifold.exp_z`` and ``StepSchedule.step`` per step. Records are tuples
    in the field order of IterationRecord, and the termination is the tuple
    (kind, step, reason)."""
    from hypersub.solver import stop_threshold

    m, fn, step = cfg.manifold, cfg.oracle.fn, cfg.schedule.step
    sset = cfg.oracle.solution_set
    z, drift_in, records = cfg.x0.z, False, []
    for k in itertools.count():
        f, g = fn(m, z)
        gn = m.norm_z(z, g)
        if not (math.isfinite(f) and math.isfinite(gn)):
            return records, ("numerical-failure", k, "non-finite value or subgradient")
        try:
            lam = step(k)
        except ValueError as exc:
            return records, ("numerical-failure", k, f"step size failed: {exc}")
        if k == 0:
            stop_tol = stop_threshold(gn)
        end = None
        if gn <= stop_tol:
            end = ("subgradient-zero", k, None)
        elif k == cfg.max_iters:
            end = ("max-iters", k, None)
        else:
            c = -1.0 / gn
            if math.isfinite(c):
                v = complex(g.real * c * lam, g.imag * c * lam)
            else:
                v = complex(-g.real / gn * lam, -g.imag / gn * lam)
            try:
                z_next, drift_next = m.exp_z(z, v)
            except (ValueError, ArithmeticError) as exc:
                end = ("numerical-failure", k, f"step failed: {exc}")
        if end is not None or k % cfg.record_every == 0:
            records.append((k, z, f, gn, lam, sset.distance_to(m, z), drift_in))
        if end is not None:
            return records, end
        z, drift_in = z_next, drift_next
