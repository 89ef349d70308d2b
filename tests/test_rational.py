"""Unit and property tests for the exact-arithmetic helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro._rational import (
    INF,
    as_fraction,
    format_fraction,
    is_infinite,
    lcm_denominators,
)

fractions_st = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=1000
)


class TestAsFraction:
    def test_int_passthrough(self):
        assert as_fraction(7) == Fraction(7)

    def test_fraction_passthrough(self):
        f = Fraction(3, 7)
        assert as_fraction(f) is f

    def test_float_decimal(self):
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_float_half(self):
        assert as_fraction(0.5) == Fraction(1, 2)

    def test_string(self):
        assert as_fraction("2/3") == Fraction(2, 3)

    def test_infinite_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(float("inf"))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(float("nan"))

    def test_bad_type(self):
        with pytest.raises(TypeError):
            as_fraction(object())


class TestIsInfinite:
    def test_inf(self):
        assert is_infinite(INF)

    def test_fraction(self):
        assert not is_infinite(Fraction(10**9))

    def test_int(self):
        assert not is_infinite(5)


class TestLcmDenominators:
    def test_empty(self):
        assert lcm_denominators([]) == 1

    def test_integers(self):
        assert lcm_denominators([Fraction(3), Fraction(5)]) == 1

    def test_simple(self):
        assert lcm_denominators([Fraction(1, 2), Fraction(1, 3)]) == 6

    def test_shared_factor(self):
        assert lcm_denominators([Fraction(1, 4), Fraction(1, 6)]) == 12

    @given(st.lists(fractions_st, min_size=1, max_size=10))
    def test_products_are_integers(self, values):
        lcm = lcm_denominators(values)
        for v in values:
            assert (v * lcm).denominator == 1

    @given(st.lists(fractions_st, min_size=1, max_size=8))
    def test_minimality(self, values):
        """No proper divisor of the lcm clears all denominators."""
        lcm = lcm_denominators(values)
        if lcm > 1:
            for p in (2, 3, 5, 7, 11, 13):
                if lcm % p == 0:
                    smaller = lcm // p
                    assert any(
                        (v * smaller).denominator != 1 for v in values
                    )


class TestFormat:
    def test_integer(self):
        assert format_fraction(Fraction(4)) == "4"

    def test_ratio(self):
        assert format_fraction(Fraction(3, 7)) == "3/7"

    def test_long_falls_back_to_float(self):
        f = Fraction(123456789, 987654321001)
        text = format_fraction(f, max_len=8)
        assert "/" not in text
