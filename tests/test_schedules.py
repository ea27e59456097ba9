import math

import pytest
from hypothesis import given, strategies as st

from hypersub.schedules import (
    harmonic,
    log_inverse,
    parse_schedule,
    partial_sums,
    power_law,
    sqrt_harmonic,
    table,
)

from reference import fsum_partial_sums

# frozen with math.fsum over 1/(k+1), k = 0..10^4
SQRT_SQUARE_SUM_1E4 = 9.787706026045383


class TestStep:
    def test_harmonic_values(self):
        s = harmonic(1.0)
        assert s.step(0) == 1.0
        assert s.step(9) == 0.1

    def test_sqrt_value(self):
        assert sqrt_harmonic(2.0).step(3) == 1.0

    def test_power_law_value(self):
        assert power_law(1.0, 0.75).step(0) == 1.0

    def test_log_inverse_value(self):
        assert log_inverse(1.0).step(0) == 1.0 / math.log(2.0)

    def test_table_clamps_to_last(self):
        s = table([0.5, 0.25])
        assert s.step(0) == 0.5
        assert s.step(1) == 0.25
        assert s.step(100) == 0.25

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            harmonic(1.0).step(-1)

    def test_positivity_enforced_at_build(self):
        with pytest.raises(ValueError):
            harmonic(-1.0)
        with pytest.raises(ValueError):
            table([0.5, 0.0])
        with pytest.raises(ValueError):
            table([])

    def test_power_law_exponent_domain(self):
        with pytest.raises(ValueError):
            power_law(1.0, 0.5)
        with pytest.raises(ValueError):
            power_law(1.0, 1.2)
        power_law(1.0, 0.51)
        power_law(1.0, 1.0)


class TestStepProperties:
    @given(st.floats(0.01, 10.0), st.integers(0, 10_000))
    def test_harmonic_strictly_decreasing(self, c, k):
        s = harmonic(c)
        assert s.step(k + 1) < s.step(k)

    @given(st.floats(0.01, 10.0), st.floats(0.51, 1.0), st.integers(0, 1000))
    def test_power_law_positive_and_bounded_by_scale(self, c, alpha, k):
        lam = power_law(c, alpha).step(k)
        assert 0.0 < lam <= c

    @given(st.integers(0, 500))
    def test_partial_sums_monotone(self, n):
        s1a, s2a = partial_sums(sqrt_harmonic(1.0), n)
        s1b, s2b = partial_sums(sqrt_harmonic(1.0), n + 1)
        assert s1b > s1a and s2b > s2a


class TestDeclaredFlags:
    def test_harmonic_all_three(self):
        s = harmonic(2.0)
        assert (s.diminishing, s.nonsummable, s.square_summable) == (True, True, True)

    def test_sqrt_not_square_summable(self):
        s = sqrt_harmonic(1.0)
        assert (s.diminishing, s.nonsummable, s.square_summable) == (True, True, False)

    def test_power_law_square_summable(self):
        # alpha restricted to (1/2, 1], where the squares always converge
        s = power_law(1.0, 0.6)
        assert (s.diminishing, s.nonsummable, s.square_summable) == (True, True, True)

    def test_table_constant_tail(self):
        s = table([0.5, 0.5])
        assert (s.diminishing, s.nonsummable, s.square_summable) == (False, True, False)


class TestPartialSums:
    def test_harmonic_first_two(self):
        assert partial_sums(harmonic(1.0), 1) == (1.5, 1.25)

    def test_table_first_two(self):
        assert partial_sums(table([0.5, 0.5]), 1) == (1.0, 0.5)

    def test_sqrt_square_sum_at_1e4(self):
        _, sq = partial_sums(sqrt_harmonic(1.0), 10_000)
        assert sq == pytest.approx(SQRT_SQUARE_SUM_1E4, abs=1e-9)
        # integral-comparison bracket: log(N+2) <= H_{N+1} <= 1 + log(N+1)
        assert math.log(10_002) <= sq <= 1 + math.log(10_001)

    def test_matches_fsum_reference(self):
        for s in (harmonic(0.7), sqrt_harmonic(1.3), power_law(1.0, 0.8)):
            assert partial_sums(s, 5000) == fsum_partial_sums(s.fn, 5000)


class TestParse:
    @pytest.mark.parametrize(
        "spec",
        ["harmonic:c=1.0", "powerlaw:c=1.0,alpha=0.75", "sqrt:c=0.5", "table:0.5,0.4,0.3"],
    )
    def test_round_trip(self, spec):
        s = parse_schedule(spec)
        assert parse_schedule(s.spec).step(5) == s.step(5)

    def test_defaults(self):
        assert parse_schedule("harmonic").step(0) == 1.0

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            parse_schedule("harmonic:c=-1")

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            parse_schedule("geometric:c=1")

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            parse_schedule("sqrt:c=1,z=2")

    def test_rejects_bad_table(self):
        with pytest.raises(ValueError):
            parse_schedule("table:0.5,abc")

    @pytest.mark.parametrize("spec", ["harmonic:c=1,c=2", "powerlaw:c", "sqrt:c=x"])
    def test_rejects_repeated_malformed_or_bad_parameters(self, spec):
        with pytest.raises(ValueError, match=spec):
            parse_schedule(spec)
