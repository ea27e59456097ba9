import cmath
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
    MobiusIsometry,
    Tangent,
    ZeroVector,
    geodesic_from_origin,
    ray_distance,
    scaled_disk,
)
from hypersub.verify import sample_point

from reference import argmin_on_x_axis, min_distance_to_x_axis, mp_distance

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
    def test_origin_maps_to_p(self):
        p = DiskPoint(0.4, -0.2)
        iso = MobiusIsometry.origin_to(p)
        assert iso.apply(ORIGIN) == p
        assert abs(iso.apply_inverse(p).z) < 1e-16

    def test_isometry_invariance(self):
        iso = MobiusIsometry.origin_to(DiskPoint(0.3, 0.5), direction=cmath.exp(0.4j))
        for a, b in zip(rng_points(500, seed=10), rng_points(500, seed=11)):
            d0 = M.distance(a, b)
            d1 = M.distance(iso.apply(a), iso.apply(b))
            assert abs(d0 - d1) < 1e-10

    def test_pushforward_preserves_norm_and_inverts(self):
        iso = MobiusIsometry.origin_to(DiskPoint(-0.2, 0.6))
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = sample_point(rng, 2.0)
            t = Tangent.from_complex(p, complex(rng.normal(), rng.normal()))
            pushed = iso.push(t)
            assert M.norm(pushed) == pytest.approx(M.norm(t), rel=1e-12)
            back = iso.pull(pushed)
            assert abs(back.base.z - p.z) < 1e-14
            assert abs(back.v - t.v) < 1e-12 * max(1.0, abs(t.v))

    def test_initial_velocity_of_translated_ray(self):
        # the image of the diameter ray is the geodesic through p with unit
        # initial speed in the chosen direction
        p = DiskPoint(0.25, 0.55)
        u = cmath.exp(0.9j)
        iso = MobiusIsometry.origin_to(p, direction=u)
        at0 = Tangent(ORIGIN, 0.5, 0.0)  # beta'(0), unit Poincaré norm
        xi = iso.push(at0)
        assert xi.base == p
        assert M.norm(xi) == pytest.approx(1.0, abs=1e-14)
        assert abs(xi.v / abs(xi.v) - u) < 1e-14


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


class TestRayDistance:
    def test_matches_distance_for_moderate_t(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            p = sample_point(rng, 2.0)
            eta = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0.1, 5.0)
            q = geodesic_from_origin(eta, t)
            assert ray_distance(p, eta, t) == pytest.approx(M.distance(p, q), abs=1e-11)
