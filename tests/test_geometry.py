import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypersub.geometry import (
    EUCLIDEAN_PLANE,
    ORIGIN,
    POINCARE_DISK,
    BOUNDARY_CLAMP,
    DiskPoint,
    Manifold,
    Tangent,
    ZeroVector,
    scaled_disk,
)
from hypersub.verify import sample_point

from reference import (
    argmin_on_x_axis,
    min_distance_to_x_axis,
    mobius,
    mobius_derivative,
    mp_distance,
)

M = POINCARE_DISK


@st.composite
def disk_points(draw, cap=2.5):
    t = draw(st.floats(0.0, cap))
    theta = draw(st.floats(0.0, 2 * math.pi))
    r = math.tanh(t / 2)
    return DiskPoint(r * math.cos(theta), r * math.sin(theta))


def rng_points(n, seed=0, cap=2.5):
    rng = np.random.default_rng(seed)
    return [sample_point(rng, cap) for _ in range(n)]


class TestDiskPoint:
    def test_rejects_boundary_and_exterior(self):
        with pytest.raises(ValueError):
            DiskPoint(1.0, 0.0)
        with pytest.raises(ValueError):
            DiskPoint(0.8, 0.8)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DiskPoint(math.nan, 0.0)
        with pytest.raises(ValueError):
            DiskPoint.plane(math.inf, 0.0)

    def test_plane_points_are_unconstrained(self):
        p = DiskPoint.plane(2.0, -3.0)
        assert p.z == 2.0 - 3.0j


class TestDistance:
    def test_identity(self):
        assert M.distance(ORIGIN, ORIGIN) == 0.0

    @pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
    def test_unit_speed_ray_from_origin(self, t):
        # gamma(t) = eta tanh(t/2) is unit speed from 0
        eta = cmath.exp(0.7j)
        p = DiskPoint.from_complex(eta * math.tanh(t / 2))
        assert abs(M.distance(ORIGIN, p) - t) < 1e-12

    def test_scaled_disk_halves_distance(self):
        p = DiskPoint(math.tanh(0.5), 0.0)
        assert abs(scaled_disk(2.0).distance(ORIGIN, p) - 0.5) < 1e-15

    def test_scaled_equals_poincare_over_kappa_exactly(self):
        m3 = scaled_disk(3.0)
        for p, q in zip(rng_points(200, seed=1), rng_points(200, seed=2)):
            assert m3.distance(p, q) == M.distance(p, q) / 3.0

    def test_matches_arccosh_form(self):
        # the stable atanh evaluation must agree with the defining formula
        for p, q in zip(rng_points(300, seed=3), rng_points(300, seed=4)):
            assert M.distance(p, q) == pytest.approx(mp_distance(p.z, q.z), abs=1e-12)

    def test_symmetry_and_separation(self):
        for p, q in zip(rng_points(100, seed=5), rng_points(100, seed=6)):
            assert M.distance(p, q) == M.distance(q, p)
            assert M.distance(p, q) > 0.0
        assert M.distance(ORIGIN, ORIGIN) == 0.0

    @given(disk_points(), disk_points(), disk_points())
    def test_triangle_inequality(self, p, q, r):
        assert M.distance(p, r) <= M.distance(p, q) + M.distance(q, r) + 1e-12

    def test_euclidean(self):
        a = DiskPoint.plane(3.0, 4.0)
        assert EUCLIDEAN_PLANE.distance(DiskPoint.plane(0, 0), a) == 5.0

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.inf, math.nan])
    def test_scaled_disk_needs_finite_positive_kappa(self, kappa):
        with pytest.raises(ValueError):
            scaled_disk(kappa)


class TestFlat:
    def test_flag_per_model(self):
        assert EUCLIDEAN_PLANE.flat
        assert not POINCARE_DISK.flat
        assert not scaled_disk(0.5).flat

    def test_flag_is_derived_from_the_model(self):
        m = Manifold("euclidean-plane", 0.0)
        assert m.flat and m == EUCLIDEAN_PLANE and hash(m) == hash(EUCLIDEAN_PLANE)
        assert repr(scaled_disk(2.0)) == "Manifold(model='scaled-disk', kappa=2.0)"
        assert not dataclasses.replace(EUCLIDEAN_PLANE, model="scaled-disk", kappa=2.0).flat
        with pytest.raises(TypeError):
            Manifold("poincare-disk", 1.0, True)


def _distance_reference(m, p, q):
    """Manifold.distance_z as written before distance_log_z existed."""
    if m.flat:
        return abs(q - p)
    num = abs(q - p)
    if num == 0.0:
        return 0.0
    rho = num / abs(1.0 - p.conjugate() * q)
    if rho >= 1.0:
        rho = math.nextafter(1.0, 0.0)
    return 2.0 * math.atanh(rho) / m.kappa


def _log_reference(m, p, q):
    """Manifold.log_z as written before distance_log_z existed."""
    if m.flat:
        return q - p
    w0 = (q - p) / (1.0 - p.conjugate() * q)
    rho = abs(w0)
    if rho == 0.0:
        return 0j
    d = 2.0 * math.atanh(math.nextafter(1.0, 0.0) if rho >= 1.0 else rho)
    return w0 * (d * (1.0 - (p.real * p.real + p.imag * p.imag)) / (2.0 * rho))


def _bits(d, v):
    return d.hex(), v.real.hex(), v.imag.hex()


class TestDistanceLog:
    @staticmethod
    def pairs(m, seed):
        rng = np.random.default_rng(seed)
        if m.flat:
            pts = [complex(*rng.uniform(-10.0, 10.0, 2)) for _ in range(400)]
        else:
            pts = [p.z for p in (sample_point(rng, 2.5) for _ in range(400))]
            # near the circle, where rounding can push the ratio to 1
            pts += [cmath.exp(1j * a) * math.nextafter(1.0, 0.0) for a in rng.uniform(0, 7, 200)]
        out = list(zip(pts[::2], pts[1::2]))
        out += [(p, p) for p in pts[:20]]  # coincident
        out += [(p, -p) for p in pts[-100:]]  # antipodal
        return out

    @pytest.mark.parametrize("m", [M, scaled_disk(0.5), scaled_disk(3.0), EUCLIDEAN_PLANE])
    def test_matches_the_separate_formulas_bit_for_bit(self, m):
        for p, q in self.pairs(m, seed=11):
            got = m.distance_log_z(p, q)
            want = (_distance_reference(m, p, q), _log_reference(m, p, q))
            assert _bits(*got) == _bits(*want), (p, q)
            assert _bits(m.distance_z(p, q), m.log_z(p, q)) == _bits(*want)

    def test_samples_reach_the_clamp_and_coincidence(self):
        pairs = [(p, q) for p, q in self.pairs(M, 11) if p != q]
        # both ratios, the distance's and the log's, reach the clamp
        assert any(abs(q - p) / abs(1.0 - p.conjugate() * q) >= 1.0 for p, q in pairs)
        assert any(abs((q - p) / (1.0 - p.conjugate() * q)) >= 1.0 for p, q in pairs)
        assert M.distance_log_z(0.3 - 0.2j, 0.3 - 0.2j) == (0.0, 0j)
        assert EUCLIDEAN_PLANE.distance_log_z(3.0 + 4.0j, 0j) == (5.0, -3.0 - 4.0j)


class TestExpLog:
    def test_exp_along_ray(self):
        eta = cmath.exp(1.1j)
        t = 1.7
        v = Tangent.from_complex(ORIGIN, eta * t / 2)  # Poincaré norm t at 0
        assert M.norm(v) == pytest.approx(t, abs=1e-15)
        got = M.exp(ORIGIN, v)
        want = eta * math.tanh(t / 2)
        assert abs(got.z - want) < 1e-15

    def test_exp_zero_vector_is_identity(self):
        p = DiskPoint(0.3, -0.4)
        assert M.exp(p, Tangent(p, 0.0, 0.0)) is p

    def test_log_at_origin(self):
        eta = cmath.exp(0.3j)
        q = DiskPoint.from_complex(eta * math.tanh(0.5))
        v = M.log(ORIGIN, q)
        assert M.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert abs(v.v / abs(v.v) - eta) < 1e-14

    def test_log_same_point_is_zero(self):
        p = DiskPoint(0.2, 0.6)
        assert M.log(p, p).is_zero()

    @pytest.mark.parametrize("m", [M, scaled_disk(2.0), EUCLIDEAN_PLANE])
    def test_round_trips(self, m):
        for p, q in zip(rng_points(500, seed=7), rng_points(500, seed=8)):
            v = m.log(p, q)
            assert m.distance(q, m.exp(p, v)) < 1e-10
            assert abs(m.norm(v) - m.distance(p, q)) < 1e-10

    def test_unit_speed_geodesics(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            p = sample_point(rng, 2.5)
            t = rng.uniform(1e-3, 5.0)
            phi = rng.uniform(0, 2 * math.pi)
            s = Tangent.from_complex(p, cmath.exp(1j * phi))
            s = s.scaled(1.0 / M.norm(s))
            assert abs(M.distance(p, M.exp(p, s.scaled(t))) - t) < 1e-10

    def test_base_mismatch_rejected(self):
        p, q = DiskPoint(0.1, 0.0), DiskPoint(0.2, 0.0)
        with pytest.raises(ValueError):
            M.exp(p, Tangent(q, 0.1, 0.0))

    def test_boundary_drift_clamps_and_flags(self):
        p = DiskPoint(0.0, 0.0)
        v = Tangent(p, 60.0, 0.0)  # length 120, lands within 1e-15 of the circle
        q, drifted = M.exp_with_drift(p, v)
        assert drifted
        assert abs(q.z) == pytest.approx(BOUNDARY_CLAMP, abs=1e-15)

    def test_euclidean_exp_log(self):
        p = DiskPoint.plane(2.0, 0.0)
        v = EUCLIDEAN_PLANE.log(p, DiskPoint.plane(-1.0, 4.0))
        assert (v.vx, v.vy) == (-3.0, 4.0)
        assert EUCLIDEAN_PLANE.norm(v) == 5.0
        assert EUCLIDEAN_PLANE.exp(p, v).z == -1.0 + 4.0j


class TestAngle:
    def test_same_vector(self):
        u = Tangent(ORIGIN, 0.3, 0.1)
        assert M.angle(u, u) == 0.0

    def test_opposite_vector(self):
        u = Tangent(ORIGIN, 0.3, 0.1)
        assert M.angle(u, u.scaled(-1.0)) == math.pi

    def test_orthogonal_components(self):
        p = DiskPoint(0.5, 0.1)
        u = Tangent(p, 1.0, 0.0)
        v = Tangent(p, 0.0, -2.0)
        assert M.angle(u, v) == pytest.approx(math.pi / 2, abs=1e-15)
        assert EUCLIDEAN_PLANE.angle(u, v) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_zero_vector_rejected(self):
        u = Tangent(ORIGIN, 0.0, 0.0)
        with pytest.raises(ZeroVector):
            M.angle(u, Tangent(ORIGIN, 1.0, 0.0))


class TestMobius:
    def test_isometry_invariance(self):
        c, u = complex(0.3, 0.5), cmath.exp(0.4j)
        for a, b in zip(rng_points(500, seed=10), rng_points(500, seed=11)):
            d0 = M.distance(a, b)
            d1 = M.distance(
                DiskPoint.from_complex(mobius(c, u, a.z)), DiskPoint.from_complex(mobius(c, u, b.z))
            )
            assert abs(d0 - d1) < 1e-10

    def test_pushforward_preserves_norm(self):
        c = complex(-0.2, 0.6)
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = sample_point(rng, 2.0)
            t = Tangent.from_complex(p, complex(rng.normal(), rng.normal()))
            pushed = Tangent.from_complex(
                DiskPoint.from_complex(mobius(c, 1, p.z)), mobius_derivative(c, 1, p.z) * t.v
            )
            assert M.norm(pushed) == pytest.approx(M.norm(t), rel=1e-12)


class TestAxisDistance:
    def test_on_axis_is_zero(self):
        assert M.distance_to_x_axis(DiskPoint(0.7, 0.0)) == 0.0

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_imaginary_axis_point(self, q):
        # nearest axis point of qi is the origin
        p = DiskPoint(0.0, q)
        want = 2 * math.atanh(q)
        assert M.distance_to_x_axis(p) == pytest.approx(want, abs=1e-13)
        # candidate closed form: sinh(dist) = 2|Im|/(1-|p|^2)
        assert math.sinh(want) == pytest.approx(2 * q / (1 - q * q), rel=1e-13)

    def test_against_numerical_minimization(self):
        for p in rng_points(50, seed=13):
            want = min_distance_to_x_axis(p.z)
            assert abs(M.distance_to_x_axis(p) - want) < 1e-8

    def test_scaled_and_flat(self):
        p = DiskPoint(0.0, 0.5)
        assert scaled_disk(2.0).distance_to_x_axis(p) == M.distance_to_x_axis(p) / 2.0
        assert EUCLIDEAN_PLANE.distance_to_x_axis(DiskPoint.plane(3.0, -2.5)) == 2.5

    def test_projection_against_numerical_argmin(self):
        for p in rng_points(50, seed=14):
            foot = M.x_axis_projection(p)
            assert foot.y == 0.0
            assert abs(foot.x - argmin_on_x_axis(p.z)) < 1e-6
            # the projection is no farther than the numerical minimum
            assert M.distance(p, foot) <= min_distance_to_x_axis(p.z) + 1e-10

    def test_projection_of_axis_point_is_itself(self):
        p = DiskPoint(0.37, 0.0)
        assert M.x_axis_projection(p) == p
