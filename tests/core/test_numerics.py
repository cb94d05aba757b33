"""Unit tests for the exact arithmetic layer."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.numerics import (
    clamp01,
    common_denominator,
    format_frac,
    frac_ceil,
    frac_floor,
    frac_sum,
    is_share,
    parse_frac,
    product_sum,
    quantize,
    to_frac,
    to_frac_seq,
)


class TestToFrac:
    def test_int(self):
        assert to_frac(3) == Fraction(3)

    def test_fraction_passthrough(self):
        f = Fraction(2, 7)
        assert to_frac(f) is f

    def test_string_ratio(self):
        assert to_frac("3/7") == Fraction(3, 7)

    def test_string_decimal(self):
        assert to_frac("0.35") == Fraction(7, 20)

    def test_decimal(self):
        assert to_frac(Decimal("0.1")) == Fraction(1, 10)

    def test_float_uses_intended_decimal_value(self):
        # The exact binary expansion of 0.1 is NOT 1/10; the conversion
        # must recover what the user meant.
        assert to_frac(0.1) == Fraction(1, 10)
        assert to_frac(0.25) == Fraction(1, 4)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            to_frac(True)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            to_frac(float("nan"))

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            to_frac(float("inf"))

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            to_frac([1])  # type: ignore[arg-type]

    def test_seq(self):
        assert to_frac_seq([1, "1/2"]) == (Fraction(1), Fraction(1, 2))


class TestCeilFloorSum:
    def test_ceil_integer(self):
        assert frac_ceil(Fraction(4)) == 4

    def test_ceil_fraction(self):
        assert frac_ceil(Fraction(7, 2)) == 4

    def test_ceil_negative(self):
        assert frac_ceil(Fraction(-7, 2)) == -3

    def test_floor(self):
        assert frac_floor(Fraction(7, 2)) == 3

    def test_sum_empty(self):
        assert frac_sum([]) == 0

    def test_sum_exact(self):
        assert frac_sum(["1/3", "1/3", "1/3"]) == 1

    @given(st.lists(st.fractions(min_value=0, max_value=1), max_size=10))
    def test_sum_matches_builtin(self, values):
        assert frac_sum(values) == sum(values, Fraction(0))


class TestProductSum:
    def test_empty_is_zero(self):
        assert product_sum([]) == 0
        assert isinstance(product_sum([]), Fraction)

    @given(
        st.lists(
            st.tuples(
                st.fractions(max_denominator=97) | st.integers(-50, 50),
                st.fractions(max_denominator=97) | st.integers(-50, 50),
            ),
            max_size=12,
        )
    )
    def test_matches_frac_sum_of_products(self, pairs):
        got = product_sum(pairs)
        assert isinstance(got, Fraction)
        assert got == frac_sum(a * b for a, b in pairs)


class TestGrid:
    def test_common_denominator(self):
        assert common_denominator(["1/2", "1/3"]) == 6

    def test_common_denominator_empty(self):
        assert common_denominator([]) == 1

    def test_quantize_default(self):
        units, den = quantize(["1/2", "1/3"])
        assert den == 6
        assert units == [3, 2]

    def test_quantize_custom_denominator(self):
        units, den = quantize(["1/2"], denominator=10)
        assert units == [5] and den == 10

    def test_quantize_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            quantize(["1/3"], denominator=10)

    @given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=6))
    def test_quantize_roundtrip(self, values):
        units, den = quantize(values)
        assert [Fraction(u, den) for u in units] == [Fraction(v) for v in values]


class TestFormatting:
    def test_integer(self):
        assert format_frac(Fraction(5)) == "5"

    def test_terminating_decimal(self):
        assert format_frac(Fraction(7, 20)) == "0.35"

    def test_non_terminating_falls_back_to_ratio(self):
        assert format_frac(Fraction(1, 3)) == "1/3"

    def test_long_decimal_falls_back(self):
        assert format_frac(Fraction(1, 2**10)) == f"1/{2**10}"

    @given(st.fractions(min_value=-2, max_value=2))
    def test_parse_roundtrip(self, f):
        assert parse_frac(format_frac(f)) == f


class TestShares:
    def test_is_share(self):
        assert is_share(0) and is_share(1) and is_share("1/2")
        assert not is_share("3/2") and not is_share(-1)

    def test_clamp(self):
        assert clamp01(Fraction(3, 2)) == 1
        assert clamp01(Fraction(-1)) == 0
        assert clamp01(Fraction(1, 2)) == Fraction(1, 2)
