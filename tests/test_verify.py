import cmath
import inspect
import math

import numpy as np
import pytest

from hypersub.geometry import (
    ORIGIN,
    POINCARE_DISK,
    DiskPoint,
    Tangent,
    scaled_disk,
)
from hypersub.oracles import (
    SubgradientOracle,
    ball_hinge_oracle,
    distance_oracle,
    two_busemann_oracle,
)
from hypersub.verify import (
    CHUNK,
    DegenerateTriangle,
    HypothesisUnverified,
    KeyConfig,
    TriangleSample,
    _accepted,
    fuzz,
    harvest_two_busemann_steps,
    key_theorem_margin,
    law_of_cosines_margin,
    per_step_margins,
    report_margins,
    sample_point,
    sample_triangle,
    sublevel_boundedness_check,
    suite_gradcheck,
    suite_key_theorem,
    suite_law_of_cosines,
    suite_per_step,
    suite_sublevel,
    run_suite,
    SUITES,
)
from hypersub.schedules import harmonic
from hypersub.solver import ConfigError, SolveConfig, run

M = POINCARE_DISK


def scalar_chunks(margin):
    """A chunk sampler drawing one scalar margin at a time."""
    return lambda rng, k: ([margin(rng) for _ in range(k)], 0)


class TestTriangleSample:
    def test_sides_are_pairwise_distances(self):
        rng = np.random.default_rng(50)
        p, q, r = (sample_point(rng, 2.0) for _ in range(3))
        tri = TriangleSample.from_points(M, p, q, r)
        assert tri.a == M.distance(q, r)
        assert tri.b == M.distance(p, r)
        assert tri.c == M.distance(p, q)
        assert tri.alpha == M.angle(M.log(p, q), M.log(p, r))

    def test_degenerate_rejected(self):
        p = DiskPoint(0.1, 0.1)
        with pytest.raises(DegenerateTriangle):
            TriangleSample.from_points(M, p, p, DiskPoint(0.5, 0.0))

    def test_sampler_respects_min_side(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            tri = sample_triangle(rng)
            assert min(tri.a, tri.b, tri.c) >= 1e-3


class TestLawOfCosines:
    def test_collinear_degenerate_case(self):
        # alpha = 0 with a = |b - c| is the hyperbolic cosine subtraction
        # identity; margin vanishes for every comparison constant
        b, c = 1.2, 0.7
        tri = TriangleSample(ORIGIN, ORIGIN, ORIGIN, b - c, b, c, 0.0)
        for kappa in (1.0, 2.0, 0.5):
            assert abs(law_of_cosines_margin(kappa, tri)) < 1e-12

    def test_equality_at_true_curvature(self):
        report = fuzz(
            scalar_chunks(lambda rng: law_of_cosines_margin(1.0, sample_triangle(rng))),
            20_000,
            seed=1,
            tolerance=1e-9,
            check="eq",
            two_sided=True,
        )
        assert report.violations == 0
        assert report.worst_margin < 1e-9

    def test_lower_bound_direction_at_kappa_two(self):
        report = fuzz(
            scalar_chunks(lambda rng: law_of_cosines_margin(2.0, sample_triangle(rng))),
            20_000,
            seed=2,
            tolerance=1e-12,
            check="lb",
        )
        assert report.violations == 0

    def test_upper_bound_direction_below_true_curvature(self):
        # with kappa <= 1 the disk curvature -1 is <= -kappa^2, so the
        # comparison flips and margins must be nonpositive
        rng = np.random.default_rng(52)
        for _ in range(2000):
            tri = sample_triangle(rng)
            assert law_of_cosines_margin(0.5, tri) <= 1e-12

    def test_margin_nondecreasing_in_kappa(self):
        rng = np.random.default_rng(53)
        grid = [1.0, 1.3, 1.8, 2.5, 4.0]
        for _ in range(500):
            tri = sample_triangle(rng)
            margins = [law_of_cosines_margin(k, tri) for k in grid]
            assert all(m2 >= m1 - 1e-9 for m1, m2 in zip(margins, margins[1:]))

    def test_rejects_bad_kappa(self):
        tri = TriangleSample(ORIGIN, ORIGIN, ORIGIN, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            law_of_cosines_margin(0.0, tri)

    def test_scaled_disk_equality_at_its_own_constant(self):
        # triangles measured in the scaled metric satisfy the law of cosines
        # with the scaled comparison constant
        for kappa in (0.5, 2.0, 3.0):
            mk = scaled_disk(kappa)
            rng = np.random.default_rng(54)
            for _ in range(200):
                p, q, r = (sample_point(rng, 2.0) for _ in range(3))
                try:
                    tri = TriangleSample.from_points(mk, p, q, r)
                except DegenerateTriangle:
                    continue
                assert abs(law_of_cosines_margin(kappa, tri)) < 1e-9

    def test_flat_limit_recovers_euclidean_law(self):
        # third side of a fixed (b, c, alpha) triangle on the scaled disk
        # approaches the Euclidean one at rate kappa^2
        b, c, alpha = 0.8, 1.3, 0.9
        a_eucl_sq = b * b + c * c - 2 * b * c * math.cos(alpha)

        def residual(kappa):
            mk = scaled_disk(kappa)
            # unit tangents in the scaled metric have Euclidean length kappa/2
            q = mk.exp(ORIGIN, Tangent.from_complex(ORIGIN, 0.5 * kappa * b))
            r = mk.exp(
                ORIGIN, Tangent.from_complex(ORIGIN, 0.5 * kappa * c * cmath.exp(1j * alpha))
            )
            return a_eucl_sq - mk.distance(q, r) ** 2

        r1, r2 = residual(0.1), residual(0.02)
        assert abs(r1) < 0.02
        assert abs(r2) < 1e-3
        assert 15 < abs(r1 / r2) < 40  # second-order convergence


class TestKeyTheorem:
    def test_distance_oracle_margins_nonnegative(self):
        rng = np.random.default_rng(55)
        for _ in range(500):
            anchor = sample_point(rng, 2.0)
            x = sample_point(rng, 2.5)
            d = M.distance(x, anchor)
            if d < 0.2:
                continue
            delta = 0.5 * d * rng.uniform(0.3, 1.0)
            lam = 10.0 ** rng.uniform(-3, 0)
            cfg = KeyConfig(M, distance_oracle(anchor), x, anchor, delta, lam)
            assert key_theorem_margin(cfg, analytic_sup=delta) >= -1e-10

    def test_vanishing_step_margin_vanishes(self):
        cfg = KeyConfig(M, distance_oracle(ORIGIN), DiskPoint(0.5, 0.0), ORIGIN, 0.2, 1e-10)
        margin = key_theorem_margin(cfg, analytic_sup=0.2)
        assert -1e-10 <= margin < 1e-6

    def test_distance_hypothesis_rejected(self):
        cfg = KeyConfig(M, distance_oracle(ORIGIN), DiskPoint(0.5, 0.0), ORIGIN, 2.0, 0.1)
        with pytest.raises(HypothesisUnverified):
            key_theorem_margin(cfg, analytic_sup=2.0)

    def test_analytic_sup_rejected_when_too_large(self):
        x = DiskPoint(0.5, 0.0)
        fx = M.distance(x, ORIGIN)
        cfg = KeyConfig(M, distance_oracle(ORIGIN), x, ORIGIN, 0.25, 0.1)
        with pytest.raises(HypothesisUnverified):
            key_theorem_margin(cfg, analytic_sup=fx + 1.0)

    def test_zero_subgradient_guard(self):
        def fn(m, z):
            return m.distance(DiskPoint.from_complex(z), ORIGIN), 0j

        fake = SubgradientOracle("fake", fn)
        cfg = KeyConfig(M, fake, DiskPoint(0.5, 0.0), ORIGIN, 0.2, 0.1)
        with pytest.raises(HypothesisUnverified):
            key_theorem_margin(cfg, analytic_sup=0.2)

    def test_invalid_config_values(self):
        with pytest.raises(ValueError):
            KeyConfig(M, distance_oracle(ORIGIN), DiskPoint(0.5, 0.0), ORIGIN, 0.0, 0.1)
        with pytest.raises(ValueError):
            KeyConfig(M, distance_oracle(ORIGIN), DiskPoint(0.5, 0.0), ORIGIN, 0.1, -1.0)


class TestPerStep:
    def test_consistency_is_exact_division(self):
        # compare in the multiplied-out direction: the first form carries an
        # absolute rounding floor of order cosh(k d) * eps, which dividing by
        # sinh(k lam) would amplify at tiny steps
        for d_k in (0.5, 2.0):
            for lam in (1e-6, 1e-3, 0.1, 1.0):
                for kappa in (1.0, 2.0):
                    d_k1 = abs(d_k - lam)
                    delta = 0.5 * d_k
                    m1, m2 = per_step_margins(kappa, d_k, d_k1, lam, delta)
                    tol = 1e-13 * math.cosh(kappa * d_k)
                    assert abs(m1 - m2 * math.sinh(kappa * lam)) < tol

    def test_stationary_step_limit(self):
        # with d_{k+1} = d_k the first form reduces to
        # cosh(kd)(cosh(kl) - 1) - sinh(kl) sinh(kd/2); both pieces vanish
        # with lambda, the second one linearly
        kappa, d = 1.0, 1.5
        delta = 0.4
        for lam in (1e-4, 1e-6, 1e-8):
            m1, _ = per_step_margins(kappa, d, d, lam, delta)
            expected = math.cosh(d) * (math.cosh(lam) - 1.0) - math.sinh(lam) * math.sinh(delta / 2)
            assert m1 == pytest.approx(expected, rel=1e-10)
            assert abs(m1) < 2 * lam

    def test_harvested_margins_nonnegative(self):
        samples, _ = harvest_two_busemann_steps(steps=1500)
        assert len(samples) > 100
        for s in samples:
            m1, m2 = per_step_margins(1.0, s.d_k, s.d_k1, s.lam, s.delta)
            assert m1 >= -1e-10
            assert m2 >= -1e-10

    def test_harvest_steps_have_unit_schedule_length(self):
        samples, _ = harvest_two_busemann_steps(steps=200)
        for s in samples:
            assert s.lam == pytest.approx(1.0 / (s.k + 1), abs=1e-10)
            assert s.delta == 0.5 * s.d_k

    def test_half_angle_identity(self):
        # tanh(t/2) = (cosh t - 1)/sinh t, with the numerator evaluated
        # through expm1 so the small-t cancellation does not mask the check
        for t in np.geomspace(1e-6, 20.0, 200):
            cosh_minus_one = 0.5 * (math.expm1(t) + math.expm1(-t))
            ratio = cosh_minus_one / math.sinh(t)
            assert abs(ratio - math.tanh(0.5 * t)) < 1e-12


class TestSublevel:
    def test_distance_oracle_witness_radius_one(self):
        report, wits = sublevel_boundedness_check(M, distance_oracle(ORIGIN), 1.0, n_rays=16)
        assert report.violations == 0
        for w in wits:
            assert w.witness_radius == pytest.approx(1.0, abs=2e-6)

    def test_ball_hinge_witness_radius(self):
        r = 0.3
        report, wits = sublevel_boundedness_check(M, ball_hinge_oracle(ORIGIN, r), 1.0, n_rays=16)
        assert report.violations == 0
        for w in wits:
            assert w.witness_radius == pytest.approx(r + 1.0, abs=2e-6)

    def test_two_busemann_axis_rays_flagged(self):
        report, wits = sublevel_boundedness_check(M, two_busemann_oracle(), 1.0, n_rays=8)
        assert report.violations == 2
        for w in wits:
            on_axis = abs(w.direction.imag) < 1e-12
            assert (w.witness_radius is None) == on_axis

    def test_requires_center_for_unknown_sets(self):
        def fn(m, z):
            return 1.0, 1 + 0j

        with pytest.raises(ValueError):
            sublevel_boundedness_check(M, SubgradientOracle("u", fn), 1.0, n_rays=64)


class TestFuzz:
    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            fuzz(scalar_chunks(lambda rng: 0.0), 0, 0, 1e-9, "empty")

    def test_same_seed_identical_report(self):
        def margin(rng):
            return rng.normal()

        r1 = fuzz(scalar_chunks(margin), 5000, seed=7, tolerance=10.0, check="x")
        r2 = fuzz(scalar_chunks(margin), 5000, seed=7, tolerance=10.0, check="x")
        assert r1 == r2

    def test_chunks_draw_from_per_chunk_seeds(self):
        n = 2 * CHUNK + 5
        by_hand = []
        for c in range(3):
            rng = np.random.default_rng((7, c))
            by_hand += [rng.normal() for _ in range(min(CHUNK, n - c * CHUNK))]
        report = fuzz(scalar_chunks(lambda rng: rng.normal()), n, seed=7, tolerance=1.0, check="x")
        assert report == report_margins(by_hand, 1.0, "x", 7)
        assert report.n == n and report.violations > 0

    def test_violation_counting(self):
        values = iter([1.0, -1.0, 0.5, -2.0])

        def margin(rng):
            return next(values)

        report = fuzz(scalar_chunks(margin), 4, seed=0, tolerance=0.75, check="count")
        assert report.violations == 2
        assert report.worst_margin == -2.0

    def test_two_sided_counting(self):
        values = iter([1.0, -1.0, 0.5, -2.0])

        def margin(rng):
            return next(values)

        report = fuzz(
            scalar_chunks(margin), 4, seed=0, tolerance=0.75, check="count", two_sided=True
        )
        assert report.violations == 3
        assert report.worst_margin == 2.0

    def test_report_json_schema(self):
        report = fuzz(scalar_chunks(lambda rng: 1.0), 10, seed=3, tolerance=1e-9, check="schema")
        payload = report.to_json()
        for key in ("check", "n", "rejected", "violations", "worst_margin", "tolerance", "seed",
                    "hypothesis_mode", "histogram"):
            assert key in payload

    def test_report_wall_time(self):
        report = fuzz(scalar_chunks(lambda rng: 1.0), 10, seed=3, tolerance=1e-9, check="t")
        assert report.wall_s > 0.0
        payload = report.to_json()
        assert payload["wall_s"] == report.wall_s
        assert payload["samples_per_s"] == 10 / report.wall_s
        # the time is not part of the result: equal reports stay equal
        assert report == report_margins([1.0] * 10, 1e-9, "t", 3)
        by_hand = report_margins([1.0] * 10, 1e-9, "t", 3).to_json()
        assert (by_hand["wall_s"], by_hand["samples_per_s"]) == (None, None)

    def test_chunk_of_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            fuzz(lambda rng, k: (np.zeros(k + 1), 0), 10, 0, 1e-9, "size")

    def test_rejected_draws_are_counted(self):
        # after its first draw the sampler rejects every other draw, so a
        # chunk of k margins rejects k - 1 draws
        def sample(rng, k):
            kept, rejected = [], 0
            while len(kept) < k:
                x = rng.normal()
                if rejected < len(kept):
                    rejected += 1
                    continue
                kept.append(x)
            return kept, rejected

        n = 2 * CHUNK + 5
        report = fuzz(sample, n, seed=1, tolerance=10.0, check="rejects")
        assert report.rejected == n - 3  # k - 1 per chunk
        assert report.to_json()["rejected"] == n - 3
        assert report == fuzz(sample, n, seed=1, tolerance=10.0, check="rejects")

    def test_mask_and_top_up_counts_rejections(self):
        # every odd candidate is rejected: 5 candidates keep 3, then 2 keep 1,
        # then 1 keeps 1
        calls = []

        def draw(m):
            calls.append(m)
            idx = np.arange(m)
            return idx % 2 == 0, (idx,)

        (kept,), rejected = _accepted(draw, 5)
        assert calls == [5, 2, 1]
        assert rejected == 3
        assert kept.tolist() == [0, 2, 4, 0, 0]

    @pytest.mark.parametrize("two_sided", [False, True])
    def test_worst_margin_is_a_python_float(self, two_sided):
        report = report_margins(np.array([0.5, -0.25]), 1.0, "type", 0, two_sided=two_sided)
        assert type(report.worst_margin) is float
        assert type(report.violations) is int
        assert report.worst_margin == (0.5 if two_sided else -0.25)


class TestSuites:
    def test_law_of_cosines_small(self):
        for report in suite_law_of_cosines(n=2000, seed=3):
            assert report.violations == 0

    def test_key_theorem_small(self):
        reports = suite_key_theorem(n=400, seed=3)
        assert {r.hypothesis_mode for r in reports} == {"analytic"}
        assert sum(r.n for r in reports) == 400  # --n counts every sample
        for report in reports:
            assert report.violations == 0
            assert report.worst_margin >= -1e-10

    def test_per_step_suite(self):
        for report in suite_per_step(steps=800, seed=0):
            assert report.violations == 0

    def test_per_step_rejects_the_skipped_steps(self):
        samples, _ = harvest_two_busemann_steps(steps=2000)
        trace = run(SolveConfig(M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 2000))
        skipped = len(trace.records) - 1 - len(samples)
        assert skipped > 0
        assert [r.rejected for r in suite_per_step(steps=2000, seed=0)] == [skipped] * 3

    def test_sublevel_rejects_nothing(self):
        assert [r.rejected for r in suite_sublevel(n_rays=8, seed=0)] == [0, 0]

    @pytest.mark.parametrize("name,n", [("law-of-cosines", 3000), ("key-theorem", 3000),
                                        ("gradcheck", 3000)])
    def test_same_seed_identical_suite_report(self, name, n):
        first = run_suite(name, n=n, seed=4)
        assert first == run_suite(name, n=n, seed=4)
        assert first != run_suite(name, n=n, seed=5)

    def test_sublevel_suite(self):
        for report in suite_sublevel(n_rays=16, seed=0):
            assert report.violations == 0

    def test_gradcheck_suite(self):
        for report in suite_gradcheck(n=300, seed=2):
            assert report.violations == 0

    def test_unknown_suite_name(self):
        with pytest.raises(KeyError):
            run_suite("nonsense")

    @pytest.mark.parametrize(
        "name,kwargs,key",
        [
            ("sublevel", {"n": 0}, "--n"),
            ("key-theorem", {"n": 1}, "--n"),
            ("all", {"n": 1}, "--n"),
            ("law-of-cosines", {"n": 0}, "--n"),
            ("key-theorem", {"n": 0}, "--n"),
            ("per-step", {"n": 0}, "--n"),
            ("gradcheck", {"n": -5}, "--n"),
            *[(name, {"seed": -1}, "--seed") for name in [*SUITES, "all"]],
        ],
    )
    def test_library_calls_get_the_flag_checks(self, name, kwargs, key):
        with pytest.raises(ConfigError) as exc:
            run_suite(name, **kwargs)
        assert exc.value.key == key

    def test_defaults_come_from_the_table(self):
        assert [r.n for r in run_suite("gradcheck")] == [SUITES["gradcheck"].n] * 2
        assert [r.n for r in run_suite("sublevel")] == [SUITES["sublevel"].n] * 2

    @pytest.mark.parametrize("name", SUITES)
    def test_the_table_is_the_only_home_of_the_defaults(self, name):
        # size and seed are both required, so a default written
        # beside the table's cannot drift from it
        params = inspect.signature(SUITES[name].fn).parameters.values()
        assert [p.name for p in params if p.default is not inspect.Parameter.empty] == []

    def test_all_runs_every_suite(self):
        reports = run_suite("all", n=200, seed=5)
        checks = {r.check for r in reports}
        assert any("law-of-cosines" in c for c in checks)
        assert any("key-theorem" in c for c in checks)
        assert any("per-step" in c for c in checks)
        assert any("sublevel" in c for c in checks)
        assert any("busemann" in c for c in checks)
        assert all(r.violations == 0 for r in reports)
