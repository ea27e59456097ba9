import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypersub.geometry import (
    EUCLIDEAN_PLANE,
    ORIGIN,
    POINCARE_DISK,
    DiskPoint,
    Tangent,
    scaled_disk,
)
from hypersub.oracles import (
    LengthMismatch,
    SolutionSet,
    ball_hinge_oracle,
    busemann_gradient,
    busemann_oracle,
    busemann_value,
    distance_oracle,
    format_complex,
    make_oracle,
    parse_complex,
    parse_spec,
    two_busemann_oracle,
    weighted_sum,
)
from hypersub.verify import sample_point

from reference import mp_busemann_limit, two_busemann_polar

M = POINCARE_DISK


def subgradient_slacks(m, oracle, n_pairs, seed, cap=2.0):
    """Worst slack of f(y) - f(x) - <g, log_x y> over random pairs; a valid
    subgradient keeps this nonnegative."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(n_pairs):
        x = sample_point(rng, cap)
        y = sample_point(rng, cap)
        fx, g = oracle.evaluate(m, x)
        fy = oracle.value(m, y)
        worst = min(worst, fy - fx - m.inner(g, m.log(x, y)))
    return worst


class TestBusemannValue:
    def test_at_origin(self):
        assert busemann_value(1.0, ORIGIN) == 0.0

    def test_half_radius(self):
        # ln(0.25 / 0.75), cross-checked against the truncated limit
        got = busemann_value(1.0, DiskPoint(0.5, 0.0))
        assert got == pytest.approx(-math.log(3.0), abs=1e-14)
        assert got == pytest.approx(mp_busemann_limit(1.0, 0.5 + 0.0j), abs=1e-6)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.5])
    def test_along_own_ray(self, t):
        p = DiskPoint(math.tanh(t / 2), 0.0)
        assert busemann_value(1.0, p) == pytest.approx(-t, abs=1e-12)
        assert mp_busemann_limit(1.0, p.z) == pytest.approx(-t, abs=1e-6)

    def test_agrees_with_limit_definition(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = sample_point(rng, 2.5)
            eta = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert busemann_value(eta, p) == pytest.approx(
                mp_busemann_limit(eta, p.z), abs=1e-6
            )

    def test_one_lipschitz(self):
        rng = np.random.default_rng(22)
        eta = cmath.exp(0.3j)
        for _ in range(2000):
            x = sample_point(rng, 2.5)
            y = sample_point(rng, 2.5)
            assert abs(busemann_value(eta, x) - busemann_value(eta, y)) <= (
                M.distance(x, y) + 1e-12
            )

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            busemann_value(0.5 + 0.0j, ORIGIN)


class TestBusemannGradient:
    def test_at_origin(self):
        g = busemann_gradient(1.0, ORIGIN)
        assert g.v == -0.5 + 0.0j
        assert M.norm(g) == 1.0

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            p = sample_point(rng, 2.5)
            eta = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert abs(M.norm(busemann_gradient(eta, p)) - 1.0) < 1e-10

    def test_oracle_subgradient_inequality(self):
        oracle = busemann_oracle(cmath.exp(0.5j))
        assert subgradient_slacks(M, oracle, 2000, seed=24) >= -1e-9

    def test_scaled_disk_gradient_is_rescaled(self):
        m2 = scaled_disk(2.0)
        oracle = busemann_oracle(1.0)
        p = DiskPoint(0.1, 0.3)
        g1 = oracle.subgradient(M, p)
        g2 = oracle.subgradient(m2, p)
        assert g2.v == pytest.approx(4.0 * g1.v, rel=1e-15)
        # still a valid subgradient in the scaled metric
        assert subgradient_slacks(m2, oracle, 1000, seed=25) >= -1e-9

    def test_flat_model_rejected(self):
        with pytest.raises(ValueError):
            busemann_oracle(1.0).evaluate(EUCLIDEAN_PLANE, DiskPoint.plane(2.0, 0.0))


class TestTwoBusemann:
    def test_zero_at_origin_and_on_axis(self):
        oracle = two_busemann_oracle()
        assert oracle.value(M, ORIGIN) == 0.0
        for x in (-0.9, -0.3, 0.4, 0.8):
            assert abs(oracle.value(M, DiskPoint(x, 0.0))) < 1e-13

    def test_polar_and_sum_forms_agree(self):
        oracle = two_busemann_oracle()
        assert oracle.value(M, DiskPoint(0.0, 0.5)) == pytest.approx(
            two_busemann_polar(0.5j), abs=1e-12
        )
        rng = np.random.default_rng(26)
        for _ in range(500):
            p = sample_point(rng, 2.5)
            assert oracle.value(M, p) == pytest.approx(
                two_busemann_polar(p.z), abs=1e-12
            )

    def test_value_at_half_i(self):
        # ln(1 + sinh^2(2 artanh 1/2)) with sin(theta) = 1
        t = 2 * math.atanh(0.5)
        want = math.log1p(math.sinh(t) ** 2)
        assert two_busemann_oracle().value(M, DiskPoint(0.0, 0.5)) == pytest.approx(
            want, abs=1e-14
        )

    @pytest.mark.parametrize("q", [-0.9, -0.5, -0.1, 0.1, 0.5, 0.9])
    def test_gradient_on_y_axis(self, q):
        g = two_busemann_oracle().subgradient(M, DiskPoint(0.0, q))
        want = 2 * (1 - q * q) / (1 + q * q) * q
        assert abs(g.vx) < 1e-12
        assert g.vy == pytest.approx(want, abs=1e-12)

    def test_nonnegative_and_zero_only_near_axis(self):
        oracle = two_busemann_oracle()
        rng = np.random.default_rng(27)
        for _ in range(5000):
            p = sample_point(rng, 2.3)
            f = oracle.value(M, p)
            assert f >= -1e-13
            if abs(p.y) <= 1e-9:
                assert f < 1e-12
            if f < 1e-12:
                assert abs(p.y) < 1e-6

    def test_subgradient_inequality(self):
        assert subgradient_slacks(M, two_busemann_oracle(), 2000, seed=28) >= -1e-9

    def test_solution_set_is_axis(self):
        sset = two_busemann_oracle().solution_set
        assert sset.kind == "x-axis"
        assert sset.distance_to(M, 0.5j) == pytest.approx(
            2 * math.atanh(0.5), abs=1e-13
        )


class TestBallHinge:
    def test_inside_is_flat_zero(self):
        oracle = ball_hinge_oracle(ORIGIN, 0.5)
        f, g = oracle.evaluate(M, DiskPoint(0.1, 0.1))
        assert f == 0.0 and g.is_zero()

    def test_value_one_past_the_ball(self):
        r = 0.4
        oracle = ball_hinge_oracle(ORIGIN, r)
        p = DiskPoint(math.tanh((r + 1.0) / 2), 0.0)  # distance r + 1 from 0
        assert oracle.value(M, p) == pytest.approx(1.0, abs=1e-12)

    def test_subgradient_inequality(self):
        oracle = ball_hinge_oracle(DiskPoint(0.2, -0.1), 0.3)
        assert subgradient_slacks(M, oracle, 10_000, seed=29) >= -1e-10

    def test_subgradient_is_unit_outside(self):
        oracle = ball_hinge_oracle(ORIGIN, 0.3)
        g = oracle.subgradient(M, DiskPoint(0.0, 0.8))
        assert M.norm(g) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            ball_hinge_oracle(ORIGIN, 0.0)


class TestDistanceOracle:
    def test_at_anchor(self):
        anchor = DiskPoint(0.3, 0.0)
        f, g = distance_oracle(anchor).evaluate(M, anchor)
        assert f == 0.0 and g.is_zero()

    def test_unit_speed_values(self):
        anchor = DiskPoint(0.1, 0.2)
        oracle = distance_oracle(anchor)
        rng = np.random.default_rng(30)
        for _ in range(100):
            t = rng.uniform(0.1, 3.0)
            phi = rng.uniform(0, 2 * math.pi)
            s = Tangent.from_complex(anchor, cmath.exp(1j * phi))
            s = s.scaled(t / M.norm(s))
            assert oracle.value(M, M.exp(anchor, s)) == pytest.approx(t, abs=1e-11)

    def test_subgradient_inequality(self):
        oracle = distance_oracle(DiskPoint(-0.2, 0.4))
        assert subgradient_slacks(M, oracle, 10_000, seed=31) >= -1e-10
        assert subgradient_slacks(EUCLIDEAN_PLANE, oracle, 2000, seed=32) >= -1e-10

    def test_gradient_matches_finite_differences(self):
        # smooth away from the anchor
        oracle = distance_oracle(DiskPoint(0.05, -0.15))
        rng = np.random.default_rng(33)
        h = 1e-5
        for _ in range(500):
            p = sample_point(rng, 2.0)
            if oracle.value(M, p) < 0.1:
                continue
            phi = rng.uniform(0, 2 * math.pi)
            s = Tangent.from_complex(p, cmath.exp(1j * phi))
            s = s.scaled(1.0 / M.norm(s))
            fd = (oracle.value(M, M.exp(p, s.scaled(h))) - oracle.value(M, p)) / h
            g = oracle.subgradient(M, p)
            assert fd == pytest.approx(M.inner(g, s), abs=1e-4)


class TestWeightedSum:
    def test_singleton_identity(self):
        inner = distance_oracle(DiskPoint(0.2, 0.2))
        combo = weighted_sum([inner], [1.0])
        p = DiskPoint(-0.4, 0.1)
        assert combo.evaluate(M, p) == inner.evaluate(M, p)

    def test_matches_two_busemann_on_y_axis(self):
        combo = weighted_sum([busemann_oracle(1.0), busemann_oracle(-1.0)], [1.0, 1.0])
        ref = two_busemann_oracle()
        for q in (-0.7, -0.2, 0.3, 0.8):
            p = DiskPoint(0.0, q)
            fc, gc = combo.evaluate(M, p)
            fr, gr = ref.evaluate(M, p)
            assert fc == pytest.approx(fr, abs=1e-14)
            assert abs(gc.v - gr.v) < 1e-14

    def test_doubling_weight_doubles_values(self):
        inner = two_busemann_oracle()
        combo = weighted_sum([inner], [2.0])
        rng = np.random.default_rng(34)
        for _ in range(100):
            p = sample_point(rng, 2.0)
            assert combo.value(M, p) == pytest.approx(2 * inner.value(M, p), rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weighted_sum([two_busemann_oracle()], [1.0, 2.0])


def reference_sum(m, z, hinges):
    """The sum of w * max(0, d(z, a) - r) over the hinges (a, r, w) and its
    subgradient, built part by part from distance_z and log_z and added from -0.0."""
    total = gx = gy = -0.0
    for a, r, w in hinges:
        d, v = m.distance_z(z, a), m.log_z(z, a)
        if d <= r:
            f, g = 0.0, 0j
        else:
            c = -1.0 / d
            f, g = d - r, complex(v.real * c, v.imag * c)
        total += w * f
        gx += w * g.real
        gy += w * g.imag
    return total, complex(gx, gy)


def hinge_oracle(a, r):
    p = DiskPoint.from_complex(a, check=False)
    return distance_oracle(p) if r == 0.0 else ball_hinge_oracle(p, r)


MANIFOLDS = [M, scaled_disk(0.5), scaled_disk(2.0), EUCLIDEAN_PLANE]
MANIFOLD_IDS = ["poincare", "scaled05", "scaled2", "plane"]
coordinates = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.7, 0.7))
points = st.builds(complex, coordinates, coordinates)
hinges = st.lists(
    st.tuples(points, st.one_of(st.just(0.0), st.floats(1e-3, 3.0)), st.floats(1e-3, 1e3)),
    min_size=1,
    max_size=4,
)


class TestTermSum:
    """Manifold.term_sum_z repeats the formulas of distance_z and log_z inline; these
    pin the two copies against each other bit for bit, signed zeros included."""

    @given(st.sampled_from(MANIFOLDS), hinges, points, st.booleans())
    def test_matches_the_sum_of_distance_log_z_parts(self, m, parts, z, at_anchor):
        if at_anchor:
            z = parts[0][0]
        want = repr(reference_sum(m, z, parts))
        assert repr(m.term_sum_z(z, tuple(parts))) == want
        combo = weighted_sum([hinge_oracle(a, r) for a, r, _ in parts], [w for _, _, w in parts])
        assert repr(combo.fn(m, z)) == want

    @pytest.mark.parametrize("m", MANIFOLDS, ids=MANIFOLD_IDS)
    @pytest.mark.parametrize("r", [0.0, 0.4])
    @pytest.mark.parametrize(
        "z",
        [complex(0.5, 0.0), complex(-0.5, -0.0), complex(0.0, 0.5), complex(-0.0, -0.5),
         complex(0.0, 0.0), complex(-0.0, -0.0), 0.2 + 0.3j, 0.05 - 0.1j, 0.1 - 0.05j],
    )
    def test_lone_oracle_is_its_own_hinge(self, m, r, z):
        # 0.1 - 0.05j is the anchor; 0.05 - 0.1j lies inside the ball of radius 0.4.
        a = 0.1 - 0.05j
        d, v = m.distance_z(z, a), m.log_z(z, a)
        if d <= r:
            want = (0.0, 0j)
        else:
            c = -1.0 / d
            want = (d - r, complex(v.real * c, v.imag * c))
        assert repr(hinge_oracle(a, r).fn(m, z)) == repr(want)

    def test_wrapped_part_is_called(self):
        part = distance_oracle(DiskPoint(0.2, 0.1))
        other = ball_hinge_oracle(DiskPoint(-0.3, 0.0), 0.2)
        calls = []

        def traced(m, z):
            calls.append(z)
            return part.fn(m, z)

        wrapped = weighted_sum([dataclasses.replace(part, fn=traced), other], [2.0, 0.5])
        z = -0.3 + 0.4j
        assert repr(wrapped.fn(M, z)) == repr(weighted_sum([part, other], [2.0, 0.5]).fn(M, z))
        assert calls == [z]

    @pytest.mark.parametrize("m", MANIFOLDS, ids=MANIFOLD_IDS)
    def test_nested_sum_is_its_weight_times_the_inner_sum(self, m):
        inner = weighted_sum(
            [distance_oracle(DiskPoint(0.2, 0.1)), ball_hinge_oracle(DiskPoint(-0.3, 0.0), 0.2)],
            [0.3, 1.7],
        )
        outer = weighted_sum([inner], [3.1])
        for z in (0.5j, -0.4 + 0.1j, -0.3 + 0j):
            f, g = inner.fn(m, z)
            assert repr(outer.fn(m, z)) == repr((3.1 * f, complex(3.1 * g.real, 3.1 * g.imag)))


class TestSolutionSet:
    @pytest.mark.parametrize("m", [M, scaled_disk(2.0)], ids=["poincare", "scaled2"])
    def test_closed_ball_point_outside(self, m):
        rng = np.random.default_rng(40)
        center = sample_point(rng, 1.0)
        ball = SolutionSet.closed_ball(center, 0.4)
        seen = 0
        for _ in range(200):
            p = sample_point(rng, 2.5)
            d = m.distance(p, center)
            if d <= 0.4:
                continue
            seen += 1
            q = ball.nearest_point(m, p)
            assert m.distance(q, center) == pytest.approx(0.4, abs=1e-11)
            assert m.distance(p, q) == pytest.approx(d - 0.4, abs=1e-11)
            assert ball.distance_to(m, p.z) == d - 0.4
        assert seen > 100

    def test_closed_ball_point_inside(self):
        rng = np.random.default_rng(41)
        center = sample_point(rng, 1.0)
        ball = SolutionSet.closed_ball(center, 0.5)
        for _ in range(50):
            step = Tangent.from_complex(center, cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
            p = M.exp(center, step.scaled(rng.uniform(0.0, 0.45) / M.norm(step)))
            assert ball.nearest_point(M, p) == p
            assert ball.distance_to(M, p.z) == 0.0

    def test_x_axis_is_the_projection(self):
        axis = SolutionSet.x_axis()
        assert axis.point == ORIGIN
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = sample_point(rng, 2.5)
            assert axis.nearest_point(M, p) == M.x_axis_projection(p)
            assert axis.distance_to(M, p.z) == M.distance_to_x_axis(p)

    def test_single_point(self):
        a = DiskPoint(0.3, -0.2)
        only = SolutionSet.single_point(a)
        rng = np.random.default_rng(43)
        for _ in range(50):
            p = sample_point(rng, 2.5)
            assert only.nearest_point(M, p) == a
            assert only.distance_to(M, p.z) == M.distance(p, a)

    def test_unknown_set_has_no_answer(self):
        unknown = SolutionSet.unknown()
        p = DiskPoint(0.1, 0.2)
        assert unknown.nearest_point(M, p) is None
        assert unknown.distance_to(M, p.z) is None


class TestRegistry:
    def test_round_trips(self):
        for spec in (
            "two-busemann",
            "ball-hinge:center=0.0+0.0i,r=0.3",
            "distance:anchor=0.5+0.0i",
            "busemann:eta=1.0+0.0i",
        ):
            oracle = make_oracle(spec)
            rebuilt = make_oracle(oracle.name)
            p = DiskPoint(0.2, 0.3)
            assert rebuilt.value(M, p) == oracle.value(M, p)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_oracle("nonsense")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            make_oracle("two-busemann:x=1")

    @pytest.mark.parametrize(
        "spec", ["ball-hinge:center=0.0+0.0i", "distance:anchor=0.5+0.0i,anchor=0.1+0.0i"]
    )
    def test_missing_or_repeated_parameter(self, spec):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            make_oracle(spec)

    def test_spec_grammar(self):
        signatures = {"a": {"x": None, "y": "2"}, "b": {}}
        assert parse_spec(" a : x = 1 ", "thing", signatures) == ("a", {"x": "1", "y": "2"})
        assert parse_spec("b", "thing", signatures) == ("b", {})
        for bad in ("c", "a", "a:y=1", "a:x=1,z=2", "a:x=1,x=2", "a:x", "b:x=1"):
            with pytest.raises(ValueError, match="thing"):
                parse_spec(bad, "thing", signatures)

    def test_busemann_oracles_are_disk_only(self):
        assert two_busemann_oracle().disk_only and busemann_oracle(1.0).disk_only
        assert not distance_oracle(ORIGIN).disk_only
        assert weighted_sum([distance_oracle(ORIGIN), busemann_oracle(1.0)], [1.0, 1.0]).disk_only

    @given(st.floats(-0.95, 0.95), st.floats(-0.95, 0.95))
    def test_complex_format_round_trip(self, a, b):
        z = complex(a, b)
        assert parse_complex(format_complex(z)) == z

    def test_parse_complex_forms(self):
        assert parse_complex("0.9i") == 0.9j
        assert parse_complex("-0.5") == -0.5
        assert parse_complex("1+2i") == 1 + 2j
        with pytest.raises(ValueError):
            parse_complex("zz")
