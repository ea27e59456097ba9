import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from reference import reference_run

from hypersub.geometry import (
    EUCLIDEAN_PLANE,
    ORIGIN,
    POINCARE_DISK,
    DiskPoint,
    scaled_disk,
)
from hypersub.oracles import (
    SolutionSet,
    SubgradientOracle,
    ball_hinge_oracle,
    busemann_oracle,
    distance_oracle,
    two_busemann_oracle,
    weighted_sum,
)
from hypersub.schedules import (
    StepSchedule,
    harmonic,
    log_inverse,
    partial_sums,
    power_law,
    sqrt_harmonic,
    table,
)
from hypersub.solver import (
    STOP_GRAD_TOL,
    ConfigError,
    IterationRecord,
    MAX_ITERS,
    MissingFStar,
    MissingSolutionPoint,
    SUBGRADIENT_ZERO,
    SolveConfig,
    Termination,
    build_summary,
    complexity_bound_report,
    load_trace,
    min_gap_series,
    run,
    stop_threshold,
    write_trace_csv,
    write_trace_json,
)
from hypersub.verify import sample_point

M = POINCARE_DISK


def constant_oracle(c=1.0, solution_set=None):
    def fn(m, z):
        return c, 0j

    return SubgradientOracle(
        "constant",
        fn,
        known_min=c,
        solution_set=solution_set if solution_set is not None else SolutionSet.unknown(),
    )


def one_step(m, oracle, x, lam):
    """A run with a one-step budget: records k = 0 at x and k = 1 after it."""
    return run(SolveConfig(m, oracle, table([lam]), x, 1))


class TestSmStep:
    def test_flat_unit_step_toward_anchor(self):
        anchor = DiskPoint.plane(0.0, 0.0)
        x = DiskPoint.plane(2.0, 0.0)
        first, nxt = one_step(EUCLIDEAN_PLANE, distance_oracle(anchor), x, 0.5).records
        assert (nxt.point.x, nxt.point.y) == (1.5, 0.0)
        assert first.f_value == 2.0 and first.grad_norm == 1.0 and not nxt.drift

    def test_stays_on_y_axis(self):
        oracle = two_busemann_oracle()
        x = DiskPoint(0.0, 0.35)
        nxt = one_step(M, oracle, x, 0.2).records[-1]
        assert nxt.k == 1
        assert abs(nxt.point.x) < 1e-12

    def test_step_length_equals_lambda(self):
        rng = np.random.default_rng(40)
        oracles = [
            two_busemann_oracle(),
            distance_oracle(DiskPoint(0.2, -0.3)),
            ball_hinge_oracle(ORIGIN, 0.2),
        ]
        checked = 0
        while checked < 1000:
            x = sample_point(rng, 2.5)
            oracle = oracles[checked % len(oracles)]
            lam = rng.uniform(1e-3, 1.0)
            trace = one_step(M, oracle, x, lam)
            if trace.termination.kind == SUBGRADIENT_ZERO:
                continue
            assert abs(M.distance(x, trace.records[-1].point) - lam) < 1e-10
            checked += 1

    def test_zero_subgradient_stops_at_k0(self):
        oracle = ball_hinge_oracle(ORIGIN, 0.5)
        trace = one_step(M, oracle, DiskPoint(0.1, 0.0), 0.5)
        assert trace.termination == Termination(SUBGRADIENT_ZERO, 0)
        assert [r.k for r in trace.records] == [0]

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            one_step(M, distance_oracle(ORIGIN), DiskPoint(0.5, 0.0), 0.0)


class TestRun:
    def test_ball_hinge_finite_termination(self):
        # Starting at hyperbolic distance 3 with harmonic steps, the iterate
        # enters the radius-0.3 ball at the first k with 3 - H_{k} < 0.3;
        # the partial sums give k = 8.
        h = 0.0
        expected_k = None
        for k in range(20):
            if 3.0 - h < 0.3:
                expected_k = k
                break
            h += 1.0 / (k + 1)
        assert expected_k == 8
        x0 = DiskPoint(math.tanh(1.5), 0.0)
        cfg = SolveConfig(M, ball_hinge_oracle(ORIGIN, 0.3), harmonic(1.0), x0, 10_000)
        trace = run(cfg)
        assert trace.termination.kind == "subgradient-zero"
        assert trace.termination.step == expected_k
        assert trace.records[-1].dist_to_s == 0.0

    def test_plane_single_step_hit_then_stop(self):
        # Dyadic coordinates make the flat one-step landing exact, so the
        # STOP rule fires at the anchor.
        anchor = DiskPoint.plane(0.0, 0.0)
        cfg = SolveConfig(
            EUCLIDEAN_PLANE, distance_oracle(anchor), table([0.5]), DiskPoint.plane(0.5, 0.0), 100
        )
        trace = run(cfg)
        assert trace.termination.kind == "subgradient-zero"
        assert trace.termination.step == 1
        assert trace.records[-1].point.z == 0j
        assert trace.records[-1].f_value == 0.0

    def test_disk_single_step_lands_within_rounding(self):
        # On the disk the same construction lands within rounding of the
        # anchor but not exactly on it, so the run continues.
        x0 = DiskPoint(0.5, 0.0)
        d0 = M.distance(x0, ORIGIN)
        cfg = SolveConfig(M, distance_oracle(ORIGIN), table([d0]), x0, 1)
        trace = run(cfg)
        assert trace.records[-1].f_value < 1e-14

    def test_two_busemann_stops_on_machine_precision_solution(self):
        cfg = SolveConfig(
            M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 10_000
        )
        trace = run(cfg)
        assert trace.termination.kind == "subgradient-zero"
        assert trace.records[-1].dist_to_s < 1e-12

    def test_determinism(self):
        cfg = SolveConfig(
            M, two_busemann_oracle(), sqrt_harmonic(0.5), DiskPoint(0.0, 0.9), 500
        )
        t1 = run(cfg)
        t2 = run(cfg)
        assert t1.records == t2.records
        assert t1.termination == t2.termination
        assert t1.summary == t2.summary

    def test_consecutive_recorded_distance_is_lambda(self):
        cfg = SolveConfig(
            M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 300
        )
        trace = run(cfg)
        for prev, nxt in zip(trace.records, trace.records[1:]):
            assert abs(M.distance(prev.point, nxt.point) - prev.lambda_k) < 1e-10

    def test_record_thinning_keeps_first_and_last(self):
        cfg = SolveConfig(
            M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 100,
            record_every=7,
        )
        trace = run(cfg)
        ks = [r.k for r in trace.records]
        assert ks[0] == 0
        assert ks[-1] == trace.termination.step
        assert all(k % 7 == 0 for k in ks[:-1])

    def test_lambda_matches_schedule(self):
        sched = sqrt_harmonic(0.5)
        cfg = SolveConfig(M, two_busemann_oracle(), sched, DiskPoint(0.0, 0.8), 50)
        trace = run(cfg)
        for r in trace.records:
            assert r.lambda_k == sched.step(r.k)

    def test_numerical_failure_retains_records(self):
        def fn(m, z):
            p = DiskPoint.from_complex(z)
            if p.x < 0.3:
                return math.nan, 1 + 0j
            d = m.distance(p, ORIGIN)
            return d, m.log(p, ORIGIN).scaled(-1.0 / d).v

        bad = SubgradientOracle("bad", fn)
        cfg = SolveConfig(M, bad, table([0.1]), DiskPoint(0.5, 0.0), 100)
        trace = run(cfg)
        assert trace.termination.kind == "numerical-failure"
        assert trace.termination.reason is not None
        assert len(trace.records) >= 1
        assert all(math.isfinite(r.f_value) for r in trace.records)

    def test_underflowing_step_is_a_numerical_failure(self):
        # 5e-324 / 2 rounds to 0.0, which the schedule rejects at k = 1.
        cfg = SolveConfig(M, two_busemann_oracle(), harmonic(5e-324), DiskPoint(0.0, 0.9), 10)
        trace = run(cfg)
        assert trace.termination.kind == "numerical-failure"
        assert trace.termination.step == 1
        assert "nonpositive step 0.0 at k=1" in trace.termination.reason
        assert [r.k for r in trace.records] == [0]

    @pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(0.0, math.nan)])
    def test_non_finite_subgradient_is_a_numerical_failure(self, bad):
        def fn(m, z):
            if z.real < 0.3:
                return 1.0, bad
            return 1.0, 1 + 0j

        cfg = SolveConfig(M, SubgradientOracle("bad", fn), table([0.1]), DiskPoint(0.5, 0.0), 100)
        trace = run(cfg)
        assert trace.termination.kind == "numerical-failure"
        assert trace.termination.reason == "non-finite value or subgradient"
        assert trace.records and all(r.point.x >= 0.3 for r in trace.records)

    def test_x0_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(
                M, two_busemann_oracle(), harmonic(1.0), DiskPoint.plane(2.0, 0.0), 10
            )

    @pytest.mark.parametrize(
        "key,changes",
        [
            ("max_iters", {"max_iters": 0}),
            ("record_every", {"record_every": 0}),
            ("x0", {"x0": DiskPoint.plane(1.0, 0.0)}),  # on the circle, not in the open disk
            ("oracle", {"manifold": EUCLIDEAN_PLANE, "oracle": busemann_oracle(1 + 0j)}),
            ("x0", {"x0": DiskPoint.plane(0.0, 1.5)}),
            ("oracle", {"oracle": distance_oracle(DiskPoint.plane(2.0, 0.0))}),
            ("oracle", {"oracle": ball_hinge_oracle(DiskPoint.plane(0.0, -1.0), 0.3)}),
            ("oracle", {"manifold": EUCLIDEAN_PLANE}),
            ("oracle", {"manifold": EUCLIDEAN_PLANE,
                        "oracle": weighted_sum([two_busemann_oracle()], [1.0])}),
        ],
    )
    def test_rejections_name_the_field(self, key, changes):
        fields = dict(manifold=M, oracle=two_busemann_oracle(), schedule=harmonic(1.0),
                      x0=DiskPoint(0.0, 0.5), max_iters=10)
        fields.update(changes)
        with pytest.raises(ConfigError) as exc:
            SolveConfig(**fields)
        assert exc.value.key == key
        assert str(exc.value).startswith(key)

    def test_stop_threshold_is_a_constant(self):
        # x0 lies 3 from the center; the hinge's subgradient has norm 1
        # outside the ball and 0 inside it, which the iterate enters at k = 8.
        fields = dict(manifold=M, oracle=ball_hinge_oracle(ORIGIN, 0.3), schedule=harmonic(1.0),
                      x0=DiskPoint(math.tanh(1.5), 0.0), max_iters=10_000)
        trace = run(SolveConfig(**fields))
        assert trace.termination == Termination(SUBGRADIENT_ZERO, 8)
        assert trace.config["stop_grad_tol"] == STOP_GRAD_TOL == 1e-12
        with pytest.raises(TypeError):
            SolveConfig(**fields, stop_grad_tol=STOP_GRAD_TOL)

    def test_stop_threshold_is_relative_to_the_binade_of_the_first_norm(self):
        assert stop_threshold(1.0) == stop_threshold(1.99) == STOP_GRAD_TOL
        assert stop_threshold(2.0) == 2.0 * STOP_GRAD_TOL
        assert stop_threshold(0.75) == stop_threshold(0.0) == 0.5 * STOP_GRAD_TOL
        assert stop_threshold(1e-13) == math.ldexp(STOP_GRAD_TOL, -44)

    def test_tiny_weight_is_no_false_minimizer(self):
        # Every subgradient off the anchor has norm 1e-13, below the absolute
        # 1e-12 that once reported x0, 2.51 from the anchor, as a minimizer.
        oracle = weighted_sum([distance_oracle(DiskPoint(0.3, 0.2))], [1e-13])
        trace = run(SolveConfig(M, oracle, harmonic(1.0), DiskPoint(-0.5, -0.5), 50))
        assert trace.termination == Termination(MAX_ITERS, 50)

    @given(
        st.sampled_from([M, scaled_disk(0.5), EUCLIDEAN_PLANE]),
        st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
        st.integers(-60, 60),
    )
    def test_power_of_two_weights_give_the_same_iterates(self, m, weights, j):
        # The method steps along -g/|g|, so it is invariant under f -> 2^j f;
        # with the STOP threshold scaled too, the runs agree bit for bit.
        parts = [distance_oracle(DiskPoint(0.3, 0.2)), distance_oracle(DiskPoint(-0.5, 0.1)),
                 ball_hinge_oracle(DiskPoint(0.1, -0.4), 0.3)]

        def solve(ws):
            return run(SolveConfig(m, weighted_sum(parts, ws), harmonic(1.0), DiskPoint(0.6, 0.5), 200))

        base = solve(weights)
        scaled = solve([math.ldexp(w, j) for w in weights])
        assert scaled.termination == base.termination
        assert len(scaled.records) == len(base.records)
        for a, b in zip(base.records, scaled.records):
            assert repr(b.z) == repr(a.z)
            assert b.f_value == math.ldexp(a.f_value, j)
            assert b.grad_norm == math.ldexp(a.grad_norm, j)

    def test_flat_plane_takes_points_off_the_disk(self):
        anchor = DiskPoint.plane(2.0, 0.0)
        cfg = SolveConfig(EUCLIDEAN_PLANE, distance_oracle(anchor), table([0.5]),
                          DiskPoint.plane(3.0, 0.0), 10)
        assert run(cfg).termination.kind == SUBGRADIENT_ZERO

    def test_trace_config_has_no_seed(self):
        trace = run(SolveConfig(M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.5), 3))
        assert "seed" not in trace.config

    @pytest.mark.parametrize(
        "m", [M, scaled_disk(0.5), scaled_disk(2.0), EUCLIDEAN_PLANE],
        ids=["poincare", "scaled05", "scaled2", "plane"],
    )
    def test_dist_x0_to_solution_is_the_first_records(self, m):
        # One d(x0, S) path: the trace's and records[0]'s agree to the bit, for
        # random starts against the x-axis and random closed balls.
        rng = np.random.default_rng(18)

        def point(cap):
            if m.flat:
                return DiskPoint.plane(*rng.uniform(-5.0, 5.0, 2))
            return sample_point(rng, cap)

        for _ in range(200):
            ball = SolutionSet.closed_ball(point(1.5), rng.uniform(0.05, 1.0))
            for sset in (SolutionSet.x_axis(), ball):
                trace = run(SolveConfig(m, constant_oracle(solution_set=sset), harmonic(1.0), point(4.0), 1))
                assert trace.dist_x0_to_solution == trace.records[0].dist_to_s

    def test_dist_to_s_omitted_for_unknown_sets(self):
        cfg = SolveConfig(M, constant_oracle(), harmonic(1.0), DiskPoint(0.3, 0.0), 10)
        trace = run(cfg)
        assert all(r.dist_to_s is None for r in trace.records)


def assert_runs_alike(cfg) -> None:
    """run(cfg) equals reference_run(cfg): the repr of every record field,
    signed zeros included, and the termination's kind, step and reason."""
    trace = run(cfg)
    records, end = reference_run(cfg)
    t = trace.termination
    assert [tuple(map(repr, r)) for r in trace.records] == [tuple(map(repr, r)) for r in records]
    assert (t.kind, t.step, t.reason) == end


# kappa = 3 is no power of two, so a norm that divides by s and kappa in
# another order rounds differently there.
MODELS = [M, scaled_disk(0.5), scaled_disk(2.0), scaled_disk(3.0), EUCLIDEAN_PLANE]
coordinates = st.floats(-0.69, 0.69)
points = st.builds(complex, coordinates, coordinates)
scales = st.floats(0.05, 2.0)
schedules = st.one_of(
    st.builds(harmonic, scales),
    st.builds(sqrt_harmonic, scales),
    st.builds(power_law, scales, st.floats(0.55, 1.0)),
    st.builds(log_inverse, scales),
    st.builds(table, st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4)),
)
hinge_terms = st.lists(
    st.tuples(points, st.one_of(st.just(0.0), st.floats(0.05, 1.0)), st.floats(0.1, 10.0)),
    min_size=1,
    max_size=3,
)
directions = st.floats(0.0, 2.0 * math.pi).map(lambda t: complex(math.cos(t), math.sin(t)))


def hinge_sum(m, terms, opaque, w_opaque):
    """The distances (r = 0) and ball hinges of ``terms`` plus an opaque part,
    with the solution set of the first term."""
    def point(a):
        return DiskPoint.from_complex(a, check=not m.flat)

    parts = [distance_oracle(point(a)) if r == 0.0 else ball_hinge_oracle(point(a), r) for a, r, _ in terms]
    a, r, _ = terms[0]
    sset = SolutionSet.single_point(point(a)) if r == 0.0 else SolutionSet.closed_ball(point(a), r)
    return weighted_sum(parts + [opaque], [w for _, _, w in terms] + [w_opaque], solution_set=sset)


@st.composite
def problems(draw):
    m = draw(st.sampled_from(MODELS))
    kind = draw(st.sampled_from(["hinges"] if m.flat else ["hinges", "busemann", "two-busemann"]))
    if kind == "hinges":
        # A Busemann part on the disks; on the plane, a nested sum, which
        # weighted_sum keeps opaque as well.
        if m.flat:
            opaque = weighted_sum([distance_oracle(DiskPoint.plane(draw(coordinates), draw(coordinates)))], [2.0])
        else:
            opaque = busemann_oracle(draw(directions))
        oracle = hinge_sum(m, draw(hinge_terms), opaque, draw(st.floats(0.1, 10.0)))
    elif kind == "busemann":
        oracle = busemann_oracle(draw(directions))
    else:
        oracle = two_busemann_oracle()
    x0 = draw(points)
    x0 = DiskPoint.plane(x0.real, x0.imag) if m.flat else DiskPoint.from_complex(x0)
    return SolveConfig(m, oracle, draw(schedules), x0, 150, record_every=draw(st.integers(1, 7)))


def raising(k):
    raise ValueError(f"no step at k={k}")


class TestRunMatchesTheReferenceLoop:
    """run() writes the step's norm and exp out inline and takes lambda_k from
    schedule.fn; reference_run is the loop on norm_z, exp_z and
    StepSchedule.step. They must agree record for record, bit for bit."""

    @given(problems())
    def test_on_every_model_oracle_kind_and_schedule_family(self, cfg):
        assert_runs_alike(cfg)

    def test_through_the_drift_clamp(self):
        cfg = SolveConfig(scaled_disk(0.5), busemann_oracle(complex(0.6, 0.8)), sqrt_harmonic(1.0),
                          DiskPoint(-0.3, 0.1), 3000)
        assert sum(r.drift for r in run(cfg).records) == 3
        assert_runs_alike(cfg)

    def test_from_a_subnormal_first_subgradient(self):
        cfg = SolveConfig(M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.5, 5e-324), 200)
        assert math.isinf(-1.0 / run(cfg).records[0].grad_norm)
        assert_runs_alike(cfg)

    @pytest.mark.parametrize("m", MODELS, ids=["poincare", "scaled05", "scaled2", "scaled3", "plane"])
    @pytest.mark.parametrize("lam", [5e-324, 1e308])
    def test_steps_that_exp_z_ends_or_fails(self, m, lam):
        # On the disk and on scaled 0.5, 5e-324 scales the step to zero,
        # where exp_z returns z itself.
        cfg = SolveConfig(m, distance_oracle(DiskPoint(0.1, 0.2)), table([lam]), DiskPoint(0.05, 0.01), 20)
        assert_runs_alike(cfg)

    def test_a_step_that_exp_z_rejects(self):
        # kappa = 4 near the origin: the components of a 1e308 step overflow.
        cfg = SolveConfig(scaled_disk(4.0), distance_oracle(DiskPoint(0.1, 0.2)), table([1e308]),
                          DiskPoint(0.05, 0.01), 20)
        t = run(cfg).termination
        assert (t.kind, t.step) == ("numerical-failure", 0)
        assert t.reason.startswith("step failed: tangent components must be finite")
        assert_runs_alike(cfg)

    @pytest.mark.parametrize("fn", [lambda k: 0.0, lambda k: 0.1 if k < 3 else -0.0, raising])
    def test_a_schedule_that_returns_no_step(self, fn):
        schedule = StepSchedule("custom", fn, False, False, False)
        cfg = SolveConfig(M, two_busemann_oracle(), schedule, DiskPoint(0.0, 0.5), 20)
        t = run(cfg).termination
        assert (t.kind, t.reason[:18]) == ("numerical-failure", "step size failed: ")
        assert_runs_alike(cfg)


class TestIterationRecord:
    def test_frozen_and_slotted(self):
        r = run(SolveConfig(M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 3)).records[1]
        assert not hasattr(r, "__dict__")
        with pytest.raises(AttributeError):
            r.z = 0j

    def test_point_is_derived_from_z(self):
        for r in run(SolveConfig(M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.1, 0.9), 20)).records:
            assert type(r.z) is complex
            assert r.point == DiskPoint(r.z.real, r.z.imag, check=False)
        r = IterationRecord(0, 2.0 - 3.0j, 1.0, 1.0, 0.5, None, False)
        assert (r.point.x, r.point.y) == (2.0, -3.0)  # no disk-bound check


class TestMinGapSeries:
    def test_requires_f_star(self):
        def fn(m, z):
            return 1.0, 1 + 0j

        cfg = SolveConfig(
            M, SubgradientOracle("nameless", fn), harmonic(1.0), DiskPoint(0.2, 0.0), 5
        )
        with pytest.raises(MissingFStar):
            min_gap_series(run(cfg))

    def test_failure_at_k0_gives_empty_series(self):
        def fn(m, z):
            return math.nan, 1 + 0j

        oracle = SubgradientOracle("nan", fn, known_min=0.0)
        trace = run(SolveConfig(M, oracle, harmonic(1.0), DiskPoint(0.2, 0.0), 5))
        assert trace.records == [] and "min_gap_series" not in trace.summary
        assert min_gap_series(trace) == []

    def test_constant_oracle_gives_all_zeros(self):
        cfg = SolveConfig(M, constant_oracle(2.5), harmonic(1.0), DiskPoint(0.2, 0.0), 10)
        series = min_gap_series(run(cfg))
        assert all(gap == 0.0 for _, gap in series)

    def test_nonincreasing(self):
        cfg = SolveConfig(
            M, two_busemann_oracle(), sqrt_harmonic(0.5), DiskPoint(0.0, 0.9), 2000
        )
        series = min_gap_series(run(cfg))
        gaps = [g for _, g in series]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_strict_decay_between_1e2_and_1e4(self):
        cfg = SolveConfig(
            M, two_busemann_oracle(), sqrt_harmonic(0.5), DiskPoint(0.0, 0.9), 10_000
        )
        series = dict(min_gap_series(run(cfg)))
        ks = sorted(series)
        at_100 = series[min(k for k in ks if k >= 100)]
        at_end = series[ks[-1]]
        assert at_end < at_100

    @pytest.mark.parametrize("schedule", [harmonic(1.0), sqrt_harmonic(0.5)])
    def test_running_min_drops_well_below_initial_gap(self, schedule):
        # bounded-iterate runs must shed at least 90% of the starting gap
        cfg = SolveConfig(M, two_busemann_oracle(), schedule, DiskPoint(0.0, 0.9), 10_000)
        series = min_gap_series(run(cfg))
        assert series[-1][1] < 0.1 * series[0][1]


class TestComplexityReport:
    def test_zero_gap_trace_satisfied_for_any_constants(self):
        oracle = constant_oracle(0.0, solution_set=SolutionSet.single_point(ORIGIN))
        cfg = SolveConfig(M, oracle, harmonic(1.0), DiskPoint(0.2, 0.0), 10)
        trace = run(cfg)
        for a, b in [(1e-6, 1e-6), (1.0, 1.0), (100.0, 0.01)]:
            rep = complexity_bound_report(trace, a, b)
            assert rep.satisfied_all

    def test_a_trace_with_no_records_certifies_nothing(self):
        def fn(m, z):
            return math.nan, 1 + 0j

        oracle = SubgradientOracle("nan", fn, known_min=0.0, solution_set=SolutionSet.single_point(ORIGIN))
        trace = run(SolveConfig(M, oracle, harmonic(1.0), DiskPoint(0.2, 0.0), 10))
        assert (trace.termination.kind, trace.termination.step, trace.records) == ("numerical-failure", 0, [])
        rep = complexity_bound_report(trace)
        assert (rep.rows, rep.satisfied_all, rep.fit_a, rep.fit_b) == ([], False, None, None)

    def test_missing_solution_point(self):
        def fn(m, z):
            return 1.0, 1 + 0j

        oracle = SubgradientOracle("flat", fn, known_min=0.0)
        cfg = SolveConfig(M, oracle, harmonic(1.0), DiskPoint(0.2, 0.0), 5)
        with pytest.raises(MissingSolutionPoint):
            complexity_bound_report(run(cfg))

    def test_two_busemann_fit_is_finite(self):
        cfg = SolveConfig(
            M, two_busemann_oracle(), sqrt_harmonic(0.5), DiskPoint(0.0, 0.9), 10_000
        )
        rep = complexity_bound_report(run(cfg))
        assert rep.fit_a is not None and rep.fit_b is not None
        assert math.isfinite(rep.fit_a) and math.isfinite(rep.fit_b)

    def test_rhs_decreases_once_sum_dominates(self):
        # for square-summable schedules the numerator converges while the
        # denominator diverges
        sched = harmonic(1.0)
        d0sq = 2.0

        def rhs(n):
            s1, s2 = partial_sums(sched, n)
            return (s2 + d0sq) / s1

        assert rhs(10_000) < rhs(100) < rhs(10)

    def test_report_rows_decreasing_for_square_summable_run(self):
        cfg = SolveConfig(
            M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 2000
        )
        rep = complexity_bound_report(run(cfg), 1.0, 1.0)
        rhs_values = [row[2] for row in rep.rows]
        assert rhs_values[-1] < rhs_values[100] < rhs_values[10]


class TestSerialization:
    def test_json_round_trip_reproduces_summary_bit_exactly(self, tmp_path):
        cfg = SolveConfig(
            M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 200
        )
        trace = run(cfg)
        path = tmp_path / "t.trace.json"
        write_trace_json(trace, path)
        loaded = load_trace(path)
        assert loaded.records == trace.records
        assert loaded.summary == trace.summary
        assert build_summary(loaded.records, loaded.f_star) == trace.summary

    @pytest.mark.parametrize(
        "m,oracle,x0",
        [
            # every iterate of this run lies outside the unit disk
            (EUCLIDEAN_PLANE, ball_hinge_oracle(DiskPoint.plane(3.0, 6.0), 0.5), DiskPoint.plane(-4.0, 5.0)),
            (scaled_disk(0.7), distance_oracle(DiskPoint(-0.3, 0.4)), DiskPoint(0.1, -0.8)),
        ],
        ids=["euclidean-plane", "scaled-disk"],
    )
    def test_json_round_trip_keeps_records(self, tmp_path, m, oracle, x0):
        trace = run(SolveConfig(m, oracle, harmonic(1.0), x0, 300))
        assert len(trace.records) > 2
        if m.flat:
            assert all(abs(r.z) > 1.0 for r in trace.records)
        path = tmp_path / "t.trace.json"
        write_trace_json(trace, path)
        loaded = load_trace(path)
        assert loaded.records == trace.records
        assert all(type(r.z) is complex for r in loaded.records)

    def test_csv_golden_header_and_shape(self, tmp_path):
        cfg = SolveConfig(
            M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 10
        )
        trace = run(cfg)
        path = tmp_path / "t.trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,x,y,f,grad_norm,lambda,dist_to_S,drift"
        assert len(lines) == len(trace.records) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == trace.records[0].f_value

    def test_csv_bit_stable(self, tmp_path):
        cfg = SolveConfig(
            M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 50
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(run(cfg), a)
        write_trace_csv(run(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_numpy_floats_are_written_as_json_writes_them(self, tmp_path):
        oracle = SubgradientOracle("np", lambda m, z: (np.float64(abs(z)), z))
        trace = run(SolveConfig(M, oracle, harmonic(1.0), DiskPoint(0.3, 0.2), 3))
        write_trace_csv(trace, tmp_path / "n.csv")
        write_trace_json(trace, tmp_path / "n.json")
        rows = [line.split(",") for line in (tmp_path / "n.csv").read_text().splitlines()[1:]]
        records = json.loads((tmp_path / "n.json").read_text())["records"]
        assert [row[3] for row in rows] == [repr(r["f"]) for r in records]
        assert rows[0][3] == "0.3605551275463989"

    def test_empty_dist_field_for_unknown_set(self, tmp_path):
        cfg = SolveConfig(M, constant_oracle(), harmonic(1.0), DiskPoint(0.1, 0.0), 2)
        path = tmp_path / "c.csv"
        write_trace_csv(run(cfg), path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[6] == ""

    @pytest.mark.parametrize(
        "value,known_min,n_records",
        [(math.nan, 0.0, 0), (1.0, None, 5)],
        ids=["zero-records", "no-f-star"],
    )
    def test_json_round_trip_of_edge_traces(self, tmp_path, value, known_min, n_records):
        # The first value is not finite, so no record is kept; or the oracle
        # declares no f*, so the trace has no min-gap series.
        def fn(m, z):
            return value, 1 + 0j

        oracle = SubgradientOracle("constant", fn, known_min=known_min, solution_set=SolutionSet.unknown())
        trace = run(SolveConfig(M, oracle, harmonic(1.0), DiskPoint(0.1, 0.2), 4))
        assert len(trace.records) == n_records
        assert "min_gap_series" not in trace.summary
        if known_min is None:
            with pytest.raises(MissingFStar):
                min_gap_series(trace)
        else:
            assert min_gap_series(trace) == []
        path = tmp_path / "t.trace.json"
        write_trace_json(trace, path)
        assert load_trace(path) == trace

    @pytest.mark.parametrize(
        "edit,fault",
        [
            (lambda r: r.pop("lambda"), "misses key(s) lambda"),
            (lambda r: r.update(extra=1.0), "has extra key(s) extra"),
            (lambda r: r.update(x="0.1"), "has \"x\" = '0.1', not a number"),
            (lambda r: r.update(y=None), 'has "y" = None, not a number'),
            (lambda r: r.update(x=True), 'has "x" = True, not a number'),
            (lambda r: r.update(k=1.5), 'has "k" = 1.5, not an integer'),
            (lambda r: r.update(k=True), 'has "k" = True, not an integer'),
            (lambda r: r.update(f="1.0"), "has \"f\" = '1.0', not a number"),
            (lambda r: r.update(f=None), 'has "f" = None, not a number'),
            (lambda r: r.update(grad_norm=False), 'has "grad_norm" = False, not a number'),
            (lambda r: r.update({"lambda": [1]}), 'has "lambda" = [1], not a number'),
            (lambda r: r.update(dist_to_s="0"), "has \"dist_to_s\" = '0', not a number or null"),
            (lambda r: r.update(drift="no"), "has \"drift\" = 'no', not true or false"),
            (lambda r: r.update(drift=0), 'has "drift" = 0, not true or false'),
        ],
        ids=[
            "missing-key", "extra-key", "string-x", "null-y", "bool-x", "float-k", "bool-k",
            "string-f", "null-f", "bool-grad-norm", "list-lambda", "string-dist", "string-drift", "int-drift",
        ],
    )
    def test_load_trace_names_a_faulty_record(self, tmp_path, edit, fault):
        trace = run(SolveConfig(M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 5))
        path = tmp_path / "t.trace.json"
        write_trace_json(trace, path)
        raw = json.loads(path.read_text())
        edit(raw["records"][3])
        path.write_text(json.dumps(raw, indent=2))
        with pytest.raises(ValueError, match=re.escape(f"record 3 {fault}")):
            load_trace(path)

    @pytest.mark.parametrize(
        "edit,fault",
        [
            (lambda t: t.update(f_star="zero"), "trace has \"f_star\" = 'zero', not a number or null"),
            (lambda t: t.update(termination=None), 'trace has "termination" = None, not an object'),
            (lambda t: t.update(x_star=5), 'trace has "x_star" = 5, not a string or null'),
            (lambda t: t.update(config=None), 'trace has "config" = None, not an object'),
            (lambda t: t.update(x_star="north"), "trace has \"x_star\" = 'north', not a point"),
            (lambda t: t.update(dist_x0_to_solution=True), 'trace has "dist_x0_to_solution" = True, not a number'),
            (lambda t: t.update(records={}), 'trace has "records" = {}, not an array'),
            (lambda t: t.pop("config"), "trace misses key(s) config"),
            (lambda t: t["termination"].update(kind=1), '"termination" has "kind" = 1, not a string'),
            (lambda t: t["termination"].update(step=1.0), '"termination" has "step" = 1.0, not an integer'),
            (lambda t: t["termination"].pop("reason"), '"termination" misses key(s) reason'),
            (lambda t: t["config"].pop("schedule"), '"config" misses key(s) schedule'),
            (lambda t: t["config"].update(schedule=1), '"config" has "schedule" = 1, not a string'),
            (lambda t: t["config"].update(manifold=None), '"config" has "manifold" = None, not an object'),
            (lambda t: t["config"]["manifold"].update(kappa="one"),
             '"config"."manifold" has "kappa" = \'one\', not a number'),
        ],
        ids=[
            "string-f-star", "null-termination", "int-x-star", "null-config", "bad-x-star",
            "bool-dist", "object-records", "missing-config", "int-kind", "float-step", "missing-reason",
            "missing-schedule", "int-schedule", "null-manifold", "string-kappa",
        ],
    )
    def test_load_trace_names_a_faulty_top_level_key(self, tmp_path, edit, fault):
        trace = run(SolveConfig(M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 5))
        path = tmp_path / "t.trace.json"
        write_trace_json(trace, path)
        raw = json.loads(path.read_text())
        edit(raw)
        path.write_text(json.dumps(raw, indent=2))
        with pytest.raises(ValueError, match=re.escape(fault)):
            load_trace(path)

    @pytest.mark.parametrize(
        "index,k,k_min",
        [(0, -5, 0), (3, 2, 3), (3, 1, 3), (-1, 5, 640)],
        ids=["negative", "repeated", "decreasing", "last-below-earlier"],
    )
    def test_load_trace_needs_steps_from_0_that_increase(self, tmp_path, index, k, k_min):
        # complexity_bound_report indexes its prefix sums by each record's k.
        trace = run(SolveConfig(M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 10_000))
        assert trace.records[-1].k == 640
        path = tmp_path / "t.trace.json"
        write_trace_json(trace, path)
        raw = json.loads(path.read_text())
        raw["records"][index]["k"] = k
        path.write_text(json.dumps(raw, indent=2))
        i = index % len(raw["records"])
        with pytest.raises(ValueError, match=re.escape(f'record {i} has "k" = {k}, not at least {k_min}')):
            load_trace(path)

    def test_load_trace_needs_an_object(self, tmp_path):
        path = tmp_path / "t.trace.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match=re.escape("trace is not an object: []")):
            load_trace(path)

    def test_load_trace_takes_every_json_number(self, tmp_path):
        # The writer emits NaN and the infinities, and a hand-written trace may
        # hold an integral value as an int; a null distance stands for unknown S.
        trace = run(SolveConfig(M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 5))
        path = tmp_path / "t.trace.json"
        write_trace_json(trace, path)
        raw = json.loads(path.read_text())
        raw["records"][1].update(f=math.nan, grad_norm=math.inf, dist_to_s=None)
        raw["records"][2].update({"x": 0, "f": -math.inf, "lambda": 1, "dist_to_s": 2})
        path.write_text(json.dumps(raw, indent=2))
        records = load_trace(path).records
        assert math.isnan(records[1].f_value)
        assert (records[1].grad_norm, records[1].dist_to_s) == (math.inf, None)
        assert records[2].z == complex(0, trace.records[2].z.imag)
        assert (records[2].f_value, records[2].lambda_k, records[2].dist_to_s) == (-math.inf, 1, 2)


@pytest.fixture(scope="module")
def long_trace():
    """20,001 records with an f*."""
    trace = run(SolveConfig(M, distance_oracle(DiskPoint(-0.3, 0.4)), sqrt_harmonic(0.5),
                            DiskPoint(0.1, -0.8), 20_000))
    assert len(trace.records) == 20_001 and "min_gap_series" not in trace.summary
    assert len(min_gap_series(trace)) == 20_001
    return trace


@pytest.mark.parametrize("writer", [write_trace_json, write_trace_csv], ids=["json", "csv"])
class TestStreamedWriters:
    def test_memory_does_not_grow_with_the_records(self, long_trace, tmp_path, writer):
        path = tmp_path / "t.trace"
        tracemalloc.start()
        try:
            writer(long_trace, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * path.stat().st_size

    def test_failure_mid_stream_keeps_the_earlier_file(self, long_trace, tmp_path, writer):
        # Neither json nor "%d" encodes an object(); the bad record sits
        # halfway, after the first part of the file has been written.
        path = tmp_path / "t.trace"
        path.write_text("earlier\n")
        records = list(long_trace.records)
        records[10_000] = records[10_000]._replace(k=object(), dist_to_s=object())
        with pytest.raises(TypeError):
            writer(dataclasses.replace(long_trace, records=records), path)
        assert path.read_text() == "earlier\n"
        assert list(tmp_path.iterdir()) == [path]
