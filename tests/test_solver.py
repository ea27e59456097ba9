import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

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
from hypersub.schedules import harmonic, partial_sums, sqrt_harmonic, table
from hypersub.solver import (
    STOP_GRAD_TOL,
    ConfigError,
    IterationRecord,
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

    def test_flat_plane_takes_points_off_the_disk(self):
        anchor = DiskPoint.plane(2.0, 0.0)
        cfg = SolveConfig(EUCLIDEAN_PLANE, distance_oracle(anchor), table([0.5]),
                          DiskPoint.plane(3.0, 0.0), 10)
        assert run(cfg).termination.kind == SUBGRADIENT_ZERO

    def test_trace_config_has_no_seed(self):
        trace = run(SolveConfig(M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.5), 3))
        assert "seed" not in trace.config

    def test_dist_to_s_omitted_for_unknown_sets(self):
        cfg = SolveConfig(M, constant_oracle(), harmonic(1.0), DiskPoint(0.3, 0.0), 10)
        trace = run(cfg)
        assert all(r.dist_to_s is None for r in trace.records)


class TestIterationRecord:
    def test_frozen_and_slotted(self):
        r = run(SolveConfig(M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 3)).records[1]
        assert not hasattr(r, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
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
        assert trace.records == [] and trace.summary["min_gap_series"] is None
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
        assert trace.summary["min_gap_series"] is None
        path = tmp_path / "t.trace.json"
        write_trace_json(trace, path)
        assert load_trace(path) == trace

    @pytest.mark.parametrize(
        "edit,fault",
        [
            (lambda r: r.pop("lambda"), "misses key(s) lambda"),
            (lambda r: r.update(extra=1.0), "has extra key(s) extra"),
            (lambda r: r.update(x="0.1"), "has a non-numeric coordinate"),
            (lambda r: r.update(y=None), "has a non-numeric coordinate"),
            (lambda r: r.update(x=True), "has a non-numeric coordinate"),
        ],
        ids=["missing-key", "extra-key", "string-x", "null-y", "bool-x"],
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


@pytest.fixture(scope="module")
def long_trace():
    """20,001 records with an f*, so the min-gap series is written too."""
    trace = run(SolveConfig(M, distance_oracle(DiskPoint(-0.3, 0.4)), sqrt_harmonic(0.5),
                            DiskPoint(0.1, -0.8), 20_000))
    assert len(trace.records) == 20_001 and trace.summary["min_gap_series"] is not None
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
        records[10_000] = dataclasses.replace(records[10_000], k=object(), dist_to_s=object())
        with pytest.raises(TypeError):
            writer(dataclasses.replace(long_trace, records=records), path)
        assert path.read_text() == "earlier\n"
        assert list(tmp_path.iterdir()) == [path]
