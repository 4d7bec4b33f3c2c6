from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lahverify.exact import binomial_general, rising
from lahverify.oracles import series_binomial_power, series_from_coeffs, series_log1p, series_mul, series_scale
from lahverify.series import Polynomial, poly_from_coeffs, poly_mul, rising_factorial_poly

POLY_ZERO = poly_from_coeffs([])


def poly_eval(p: Polynomial, x):
    """Exact evaluation by Horner's rule, the reference the factorial
    polynomials are checked against; the zero polynomial evaluates to 0."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


small_series = st.builds(
    series_from_coeffs,
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=1, max_size=17),
)


class TestTruncatedSeries:
    def test_padding_and_order(self):
        s = series_from_coeffs([1, 2], order=4)
        assert s.order == 4
        assert s.coeffs == (1, 2, 0, 0, 0)

    def test_truncation_on_construction(self):
        s = series_from_coeffs([1, 2, 3, 4], order=1)
        assert s.coeffs == (1, 2)

    def test_empty_input_is_zero_series(self):
        assert series_from_coeffs([]).coeffs == (0,)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            series_from_coeffs([1], order=-1)


class TestSeriesMul:
    def test_difference_of_squares(self):
        a = series_from_coeffs([1, 1], order=3)
        b = series_from_coeffs([1, -1], order=3)
        assert series_mul(a, b).coeffs == (1, 0, -1, 0)

    def test_multiplicative_identity(self):
        a = series_from_coeffs([3, Fraction(1, 2), 0, 7])
        one = series_from_coeffs([1], order=a.order)
        assert series_mul(a, one) == a

    def test_truncates_to_smaller_order(self):
        a = series_from_coeffs([1, 1, 1, 1, 1])
        b = series_from_coeffs([1, 1])
        assert series_mul(a, b).order == 1

    def test_log_square_cubic_coefficient(self):
        log_series = series_log1p(5)
        squared = series_scale(series_mul(log_series, log_series), Fraction(1, 2))
        assert squared.coeff(3) == Fraction(-1, 2)

    @given(small_series, small_series)
    def test_commutative(self, a, b):
        assert series_mul(a, b) == series_mul(b, a)

    @given(small_series, small_series, small_series)
    def test_associative(self, a, b, c):
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


class TestSeriesLog1p:
    def test_low_order_coefficients(self):
        assert series_log1p(3).coeffs == (0, 1, Fraction(-1, 2), Fraction(1, 3))

    def test_order_zero(self):
        assert series_log1p(0).coeffs == (0,)

    def test_quadratic_coefficient(self):
        assert series_log1p(2).coeff(2) == Fraction(-1, 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            series_log1p(-1)


class TestSeriesBinomialPower:
    def test_exponent_zero(self):
        assert series_binomial_power(0, 4).coeffs == (1, 0, 0, 0, 0)

    def test_square(self):
        assert series_binomial_power(2, 3).coeffs == (1, 2, 1, 0)

    def test_negative_square(self):
        assert series_binomial_power(-2, 3).coeffs == (1, -2, 3, -4)

    def test_coefficients_are_general_binomials(self):
        for e in range(-5, 6):
            s = series_binomial_power(e, 7)
            for i in range(8):
                assert s.coeff(i) == binomial_general(e, i)

    def test_exponent_addition_exhaustive(self):
        order = 8
        cache = {e: series_binomial_power(e, order) for e in range(-12, 13)}
        for e1 in range(-6, 7):
            for e2 in range(-6, 7):
                assert series_mul(cache[e1], cache[e2]) == cache[e1 + e2]


class TestPolynomial:
    def test_zero_polynomial_degree(self):
        assert POLY_ZERO.degree == -1
        assert poly_from_coeffs([0, 0]).degree == -1

    def test_trailing_zeros_trimmed(self):
        assert poly_from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)

    def test_mul_examples(self):
        x = poly_from_coeffs([0, 1])
        x_plus_1 = poly_from_coeffs([1, 1])
        assert poly_mul(x, x_plus_1).coeffs == (0, 1, 1)
        assert poly_mul(x_plus_1, POLY_ZERO) == POLY_ZERO

    def test_eval_examples(self):
        p = poly_from_coeffs([0, 1, 1])  # x^2 + x
        assert poly_eval(p, -3) == 6
        assert poly_eval(p, -3) == rising(-3, 2)
        assert poly_eval(POLY_ZERO, Fraction(7, 2)) == 0


class TestFactorialPolynomials:
    def test_rising_poly_matches_rising_at_random_rationals(self):
        rng = random.Random(1729)
        for _ in range(20):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            for n in range(13):
                assert poly_eval(rising_factorial_poly(n), x) == rising(x, n)

    def test_empty_products(self):
        assert rising_factorial_poly(0).coeffs == (1,)
        # a negative length is an error, as in exact.rising, not the empty product
        with pytest.raises(ValueError, match="n must be non-negative"):
            rising_factorial_poly(-2)

    def test_types(self):
        assert isinstance(rising_factorial_poly(4), Polynomial)


def test_integral_coefficients_stay_int():
    negative = series_binomial_power(-7, 10)
    product = series_mul(negative, series_binomial_power(5, 10))
    for c in (*negative.coeffs, *product.coeffs, *rising_factorial_poly(8).coeffs):
        assert type(c) is int
