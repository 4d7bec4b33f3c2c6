from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lahverify.exact import (
    ConsistencyError,
    binomial_general,
    exact_quotient,
    factorial,
    falling,
    reciprocal_factorial_weight,
    rising,
)


def _pascal_rows(limit: int) -> list[list[int]]:
    # independent additive oracle for binomials with non-negative upper index
    rows = [[1]]
    for _ in range(limit):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return rows


class TestFactorial:
    def test_base_cases(self):
        assert factorial(0) == 1
        assert factorial(1) == 1
        assert factorial(5) == 120

    def test_matches_stdlib_oracle(self):
        for m in range(30):
            assert factorial(m) == math.factorial(m)

    def test_running_product_oracle(self):
        acc = 1
        for m in range(1, 25):
            acc *= m
            assert factorial(m) == acc

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestBinomialGeneral:
    def test_examples(self):
        assert binomial_general(5, 2) == 10
        assert binomial_general(4, -1) == 0
        assert binomial_general(-1, 3) == -1
        assert binomial_general(-3, 2) == 6

    def test_matches_pascal_oracle(self):
        rows = _pascal_rows(12)
        for r, row in enumerate(rows):
            for j, expected in enumerate(row):
                assert binomial_general(r, j) == expected

    def test_negative_upper_matches_product_oracle(self):
        for r in range(-30, 0):
            for j in range(31):
                prod = Fraction(1)
                for i in range(j):
                    prod *= Fraction(r - i, i + 1)
                assert binomial_general(r, j) == prod

    def test_zero_above_diagonal(self):
        for r in range(12):
            for j in range(r + 1, r + 5):
                assert binomial_general(r, j) == 0

    def test_lower_index_zero_is_one(self):
        for r in range(-8, 9):
            assert binomial_general(r, 0) == 1

    def test_pascal_rule_exhaustive(self):
        for r in range(-8, 9):
            for j in range(-3, 11):
                assert binomial_general(r, j) == binomial_general(r - 1, j - 1) + binomial_general(r - 1, j)

    @given(st.integers(-200, 200), st.integers(-10, 40))
    def test_pascal_rule_property(self, r, j):
        assert binomial_general(r, j) == binomial_general(r - 1, j - 1) + binomial_general(r - 1, j)


class TestRisingFalling:
    def test_empty_products(self):
        assert rising(Fraction(7, 3), 0) == 1
        assert falling(Fraction(-2, 5), 0) == 1

    def test_examples(self):
        assert rising(2, 3) == 24
        assert rising(-2, 3) == 0
        assert falling(5, 2) == 20
        assert falling(-3, 2) == 12

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            rising(1, -1)
        with pytest.raises(ValueError):
            falling(1, -1)

    def test_factorial_is_self_falling(self):
        for m in range(21):
            assert factorial(m) == falling(m, m)

    def test_integer_points_have_unit_denominator(self):
        for x in range(-6, 7):
            for n in range(8):
                assert rising(Fraction(x), n).denominator == 1
                assert falling(Fraction(x), n).denominator == 1

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=20),
        st.integers(0, 20),
    )
    def test_reflection_identity(self, x, n):
        assert rising(x, n) == (-1) ** n * falling(-x, n)


class TestWeightsAndCoercion:
    def test_reciprocal_factorial_weight(self):
        assert reciprocal_factorial_weight(-2) == 0
        assert reciprocal_factorial_weight(-1) == 0
        assert reciprocal_factorial_weight(0) == 1
        assert reciprocal_factorial_weight(4) == Fraction(1, 24)

    def test_exact_quotient(self):
        assert exact_quotient(42, 6) == 7
        assert exact_quotient(-42, 6) == -7
        assert exact_quotient(0, 5) == 0
        with pytest.raises(ConsistencyError):
            exact_quotient(7, 2)
