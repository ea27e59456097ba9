import cmath
import inspect
import json
import math
import os
import threading
from functools import partial

import numpy as np
import pytest
from conftest import assert_no_child_left, forks_per_split, scalar_key_margin
from reference import mp_key_margin

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
from hypersub import verify
from hypersub.verify import (
    CHUNK,
    DegenerateTriangle,
    TriangleSample,
    _accepted,
    _distance_key_margins,
    _gradcheck_fd_margins,
    _gradcheck_norm_margins,
    _law_of_cosines_margins,
    _triangles,
    _two_busemann_key_margins,
    fuzz,
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

    def test_the_chunk_check_fails_below_the_true_curvature(self):
        # A negative control: curvature -1 is below -0.9^2, so the lower-bound
        # direction fails on every sampled triangle.
        report = fuzz(partial(_law_of_cosines_margins, 0.9), 4096, seed=0, tolerance=1e-12, check="lb-k0.9")
        assert report.violations == report.n == 4096
        assert report.worst_margin < -1.0

    def test_the_suite_compares_at_kappa_two(self):
        # The lower-bound report's worst margin is the least scalar margin at
        # kappa = 2 over the triangles its chunks draw, redrawn here.
        n, seed = 4096, 5
        _, lb = suite_law_of_cosines(n, seed)
        want = []
        for c in range(-(-n // CHUNK)):
            (p, q, r, *_), _ = _triangles(np.random.default_rng((seed + 1, c)), min(CHUNK, n - c * CHUNK))
            for i in range(len(p)):
                tri = TriangleSample.from_points(M, *(DiskPoint.from_complex(v[i]) for v in (p, q, r)))
                want.append(law_of_cosines_margin(2.0, tri))
        assert len(want) == lb.n
        assert lb.worst_margin == pytest.approx(min(want), rel=1e-9)

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
            assert scalar_key_margin(M, distance_oracle(anchor), x, anchor, delta, lam) >= -1e-10

    def test_vanishing_step_margin_vanishes(self):
        margin = scalar_key_margin(M, distance_oracle(ORIGIN), DiskPoint(0.5, 0.0), ORIGIN, 0.2, 1e-10)
        assert -1e-10 <= margin < 1e-6

    def test_a_step_that_rounds_to_x_has_margin_zero(self):
        # At lambda = 1e-20 the step rounds to x itself, so d(x, z) = 0 and
        # the inequality holds with equality.
        assert scalar_key_margin(M, distance_oracle(ORIGIN), DiskPoint(0.5, 0.0), ORIGIN, 0.2, 1e-20) == 0.0


def key_columns(monkeypatch, sampler, seed, k):
    """The margins of one chunk of ``sampler`` and the columns it handed to
    _key_margins, each broadcast to the chunk's length."""
    columns = []
    key_margins = verify._key_margins

    def recording(*cols):
        columns.append(np.broadcast_arrays(*cols))
        return key_margins(*cols)

    monkeypatch.setattr(verify, "_key_margins", recording)
    margins, _ = sampler(np.random.default_rng(seed), k)
    return margins, columns[0]


class TestKeyInequalityAgainstAnIndependentReference:
    """Both key-theorem twins against ``mp_key_margin``, the paper's key
    inequality written on the hyperboloid in mpmath, on the configurations
    the two bundled key-theorem samplers draw."""

    @pytest.mark.parametrize("sampler", [_distance_key_margins, _two_busemann_key_margins],
                             ids=["distance", "two-busemann"])
    def test_both_twins_match_the_reference(self, monkeypatch, sampler):
        margins, columns = key_columns(monkeypatch, sampler, 70, 64)
        for margin, (x, xbar, fx, g, delta, lam, sup) in zip(margins, zip(*columns)):
            want = mp_key_margin(1.0, x, xbar, g, delta, lam)
            tol = 1e-12 * math.cosh(M.distance_z(x, xbar)) * math.cosh(lam)
            assert abs(margin - want) <= tol
            if sampler is _distance_key_margins:
                oracle = distance_oracle(DiskPoint.from_complex(xbar))
            else:
                oracle = two_busemann_oracle()
            scalar = scalar_key_margin(M, oracle, DiskPoint.from_complex(x), DiskPoint.from_complex(xbar), delta, lam)
            assert abs(scalar - want) <= tol

    def test_the_reference_on_scaled_disks(self):
        rng = np.random.default_rng(71)
        for kappa in (0.5, 2.0):
            mk = scaled_disk(kappa)
            for _ in range(20):
                anchor, x = sample_point(rng, 2.0), sample_point(rng, 2.5)
                d = mk.distance(x, anchor)
                if kappa * d < 0.2:
                    continue
                delta, lam = 0.5 * d * rng.uniform(0.3, 1.0), 10.0 ** rng.uniform(-3.0, 0.0)
                _, g = distance_oracle(anchor).evaluate(mk, x)
                want = mp_key_margin(kappa, x.z, anchor.z, g.v, delta, lam)
                tol = 1e-12 * math.cosh(kappa * d) * math.cosh(kappa * lam)
                assert abs(scalar_key_margin(mk, distance_oracle(anchor), x, anchor, delta, lam) - want) <= tol


class TestKeySamplersReachTheEdgeOfTheHypothesis:
    """On one chunk each, the key-theorem samplers draw delta close to the
    largest radius their ball hypothesis allows, so the certified margins
    cover the whole hypothesis domain and not only its interior."""

    def test_the_distance_sampler_reaches_half_the_distance(self, monkeypatch):
        _, (x, xbar, _, _, delta, _, _) = key_columns(monkeypatch, _distance_key_margins, (0, 0), CHUNK)
        assert np.max(delta / (0.5 * verify.distance_array(x, xbar))) >= 0.99

    def test_the_two_busemann_sampler_reaches_its_largest_ball(self, monkeypatch):
        # f < f(x) on B[0, delta] for delta up to
        # delta_max = min(asinh(sinh t |sin theta|), t / 2), with x at
        # distance t from 0 and at angle theta; the sampler draws up to 0.9
        # of it.
        _, (x, xbar, _, _, delta, _, _) = key_columns(monkeypatch, _two_busemann_key_margins, (1, 0), CHUNK)
        assert np.all(xbar == 0j)
        t = 2.0 * np.arctanh(np.abs(x))
        delta_max = np.minimum(np.arcsinh(np.sinh(t) * np.abs(x.imag) / np.abs(x)), 0.5 * t)
        assert np.max(delta / delta_max) >= 0.85


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

    def test_a_step_of_length_zero_has_no_divided_form(self):
        m1, m2 = per_step_margins(1.0, 1.5, 1.5, 0.0, 0.4)
        assert m1 == 0.0 and math.isnan(m2)

    def test_run_margins_nonnegative(self):
        reports = {r.check: r for r in suite_per_step(1500, 0)}
        for check in ("per-step-cdelta", "per-step-cdelta-divided"):
            assert reports[check].n > 100
            assert reports[check].violations == 0

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

    def test_zero_rays_is_rejected(self):
        # No ray certifies nothing, where a report would read ok over n = 0.
        with pytest.raises(ValueError, match="at least one ray"):
            sublevel_boundedness_check(M, distance_oracle(ORIGIN), 1.0, n_rays=0)

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

    def test_a_samplers_value_error_is_no_config_error(self):
        # Only a failed allocation of the n margins is keyed by --n.
        def sampler(rng, k):
            raise ValueError("the sampler's own fault")

        with pytest.raises(ValueError, match="the sampler's own fault") as exc:
            fuzz(sampler, 10, 0, 1e-9, "own")
        assert type(exc.value) is ValueError

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

    @pytest.mark.parametrize(
        "margins,two_sided,violations,worst",
        [
            ([0.5, math.inf, 0.25], False, 1, math.inf),
            ([0.5, -math.inf, 0.25], False, 1, -math.inf),
            ([0.5, math.inf, -math.inf, math.nan], False, 3, math.nan),
            ([0.5, -math.inf, 0.25], True, 2, math.inf),
            ([0.5, math.nan, math.inf, 0.25], True, 3, math.nan),
            ([math.nan, math.nan], False, 2, math.nan),
            ([math.inf], True, 1, math.inf),
        ],
    )
    def test_a_non_finite_margin_is_a_violation(self, margins, two_sided, violations, worst):
        # It certifies nothing: the worst margin carries it, and the
        # histogram is that of the finite margins.
        report = report_margins(margins, 0.375, "nonfinite", 0, two_sided=two_sided)
        assert report.violations == violations
        assert type(report.worst_margin) is float
        assert report.worst_margin == worst or math.isnan(report.worst_margin) and math.isnan(worst)
        finite = [m for m in margins if math.isfinite(m)]
        expected = report_margins(finite, 1.0, "f", 0).histogram if finite else {"edges": [], "counts": []}
        assert report.histogram == expected


def untimed(report):
    """The report's JSON text without wall_s and samples_per_s."""
    payload = report.to_json()
    del payload["wall_s"], payload["samples_per_s"]
    return json.dumps(payload)


def chunk_index(rng):
    """c for the generator ``default_rng((seed, c))`` fuzz draws chunk c from."""
    return rng.bit_generator.seed_seq.entropy[1]


BUNDLED_SAMPLERS = {
    "law-of-cosines-k1": partial(_law_of_cosines_margins, 1.0),
    "law-of-cosines-k2": partial(_law_of_cosines_margins, 2.0),
    "key-theorem-distance": _distance_key_margins,
    "key-theorem-two-busemann": _two_busemann_key_margins,
    "gradcheck-norm": _gradcheck_norm_margins,
    "gradcheck-fd": _gradcheck_fd_margins,
}


class TestSplitFuzz:
    """From _SPLIT_MIN_CHUNKS chunks, fuzz draws the second half of them in
    a forked child when the process may run on 2 CPUs and has one thread."""

    # The least chunk count that splits, with a ragged last chunk.
    N = verify._SPLIT_MIN_CHUNKS * CHUNK - 700
    CHUNKS = verify._SPLIT_MIN_CHUNKS

    def serial(self, monkeypatch):
        monkeypatch.setattr(verify, "_SPLIT_MIN_CHUNKS", self.CHUNKS + 1)

    @pytest.mark.parametrize("sampler", BUNDLED_SAMPLERS.values(), ids=BUNDLED_SAMPLERS)
    def test_split_draws_the_serial_margins(self, sampler, forks, monkeypatch):
        drawn = []

        def report(margins, *args):
            drawn.append(margins.tobytes())
            return report_margins(margins, *args)

        monkeypatch.setattr(verify, "report_margins", report)
        affinity = os.sched_getaffinity(0)
        split = fuzz(sampler, self.N, 5, 1e-9, "split", two_sided=True)
        assert len(forks) == forks_per_split()
        assert_no_child_left()
        assert os.sched_getaffinity(0) == affinity
        self.serial(monkeypatch)
        serial = fuzz(sampler, self.N, 5, 1e-9, "split", two_sided=True)
        assert len(forks) == forks_per_split()
        assert drawn[0] == drawn[1]
        assert untimed(split) == untimed(serial)
        assert split.n == self.N

    def test_rejections_of_both_halves_are_counted(self, forks):
        # Chunk c rejects c + 1 draws.
        report = fuzz(lambda rng, k: (rng.random(k), chunk_index(rng) + 1), self.N, 0, 1.0, "rejects")
        assert len(forks) == forks_per_split()
        assert report.rejected == self.CHUNKS * (self.CHUNKS + 1) // 2

    @pytest.mark.parametrize(
        "bad,fault",
        [(1, "raise"), (CHUNKS - 2, "raise"), (CHUNKS - 1, "shape")],
        ids=["first-half", "second-half", "second-half-shape"],
    )
    def test_a_faulty_chunk_raises_the_serial_error(self, forks, monkeypatch, bad, fault):
        def sampler(rng, k):
            if chunk_index(rng) != bad:
                return rng.random(k), 0
            if fault == "shape":
                return rng.random(k + 1), 0
            raise RuntimeError(f"chunk {bad} is faulty")

        affinity = os.sched_getaffinity(0)
        with pytest.raises(Exception) as split:
            fuzz(sampler, self.N, 2, 1.0, "fault")
        assert len(forks) == forks_per_split()
        assert_no_child_left()
        assert os.sched_getaffinity(0) == affinity
        self.serial(monkeypatch)
        with pytest.raises(Exception) as serial:
            fuzz(sampler, self.N, 2, 1.0, "fault")
        assert (split.type, str(split.value)) == (serial.type, str(serial.value))
        assert split.type is (ValueError if fault == "shape" else RuntimeError)

    @pytest.mark.parametrize("two_sided", [False, True], ids=["one-sided", "two-sided"])
    def test_a_nan_in_each_half_is_the_serial_report(self, forks, monkeypatch, two_sided):
        def sampler(rng, k):
            margins = rng.random(k)
            if chunk_index(rng) in (0, self.CHUNKS - 1):
                margins[k // 2] = math.nan
            return margins, 0

        split = fuzz(sampler, self.N, 4, 1.0, "nan", two_sided=two_sided)
        assert len(forks) == forks_per_split()
        self.serial(monkeypatch)
        serial = fuzz(sampler, self.N, 4, 1.0, "nan", two_sided=two_sided)
        assert untimed(split) == untimed(serial)
        assert math.isnan(split.worst_margin)
        assert split.violations == 2
        assert sum(split.histogram["counts"]) == self.N - 2

    @pytest.mark.parametrize("why", ["one-cpu", "second-thread"])
    def test_no_fork_on_one_cpu_or_with_a_second_thread(self, forks, monkeypatch, why):
        sampler = BUNDLED_SAMPLERS["gradcheck-norm"]
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        with monkeypatch.context() as patch:
            if why == "one-cpu":
                patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            if why == "second-thread":
                thread.start()
            try:
                report = fuzz(sampler, self.N, 6, 1e-10, "nofork")
            finally:
                stop.set()
                if thread.is_alive():
                    thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        self.serial(monkeypatch)
        assert untimed(report) == untimed(fuzz(sampler, self.N, 6, 1e-10, "nofork"))


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

    def test_per_step_recomputed_from_the_run(self):
        # The suite's hypothesis and first form, written out again on run()'s
        # records: xbar = 0 and delta = d_k / 2, and a pair is skipped when
        # d_k <= 1e-8 or sup f = log1p(sinh^2 delta) does not lie below f(x^k).
        trace = run(SolveConfig(M, two_busemann_oracle(), harmonic(1.0), DiskPoint(0.0, 0.9), 2000))
        skipped, margins = 0, []
        for prev, nxt in zip(trace.records, trace.records[1:]):
            d_k = M.distance(prev.point, ORIGIN)
            delta = d_k / 2
            if d_k <= 1e-8 or not math.log1p(math.sinh(delta) ** 2) < prev.f_value:
                skipped += 1
                continue
            lam, d_k1 = M.distance(prev.point, nxt.point), M.distance(nxt.point, ORIGIN)
            rhs = math.cosh(d_k) * math.cosh(lam) - math.sinh(lam) * math.sinh(delta / 2)
            margins.append(rhs - math.cosh(d_k1))
        reports = suite_per_step(steps=2000, seed=0)
        assert skipped > 0
        assert [r.rejected for r in reports] == [skipped] * 3
        assert (reports[0].check, reports[0].n) == ("per-step-cdelta", len(margins))
        assert reports[0].worst_margin == min(margins)

    def test_per_step_n_is_a_step_budget_the_run_stops_short_of(self):
        # The run stops subgradient-zero at k = 640, so every budget from 640
        # gives the same reports, and one below it cuts the last pair. At the
        # default budget each check certifies 589 steps and skips 51.
        at_stop, at_default = suite_per_step(640, 0), suite_per_step(SUITES["per-step"].n, 0)
        assert list(map(untimed, at_stop)) == list(map(untimed, at_default))
        checks = ["per-step-cdelta", "per-step-cdelta-divided", "per-step-consistency"]
        got = [(r.check, r.n, r.rejected, r.violations) for r in at_default]
        assert got == [(check, 589, 51, 0) for check in checks]
        assert [(r.n, r.rejected) for r in suite_per_step(639, 0)] == [(588, 51)] * 3

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
