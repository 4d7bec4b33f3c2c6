from __future__ import annotations

import decimal
import math
from fractions import Fraction

import pytest

import lahverify.numbers as numbers_mod
from lahverify.exact import factorial
from lahverify.numbers import lah, lah_row, stirling1, triangle_row, triangle_rows
from lahverify.oracles import (
    lah_bruteforce,
    lah_triangle,
    ordered_block_partitions,
    stirling1_from_log_series,
    stirling1_from_rising_poly,
    stirling1_triangle,
)


class TestLahClosedForm:
    def test_examples(self):
        assert lah(3, 2) == 6
        assert lah(4, 1) == 24
        assert lah(2, 3) == 0
        assert lah(0, 0) == 1

    def test_diagonal_is_one(self):
        for n in range(1, 15):
            assert lah(n, n) == 1

    def test_first_column_is_factorial(self):
        for n in range(1, 12):
            assert lah(n, 1) == factorial(n)

    def test_zero_outside_triangle(self):
        assert lah(5, 0) == 0
        assert lah(0, 3) == 0
        for n in range(9):
            for k in range(n + 1, n + 4):
                assert lah(n, k) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lah(-1, 0)
        with pytest.raises(ValueError):
            lah(3, -2)

    def test_large_n_forms_no_factorial(self, monkeypatch):
        # n!/k! is the product n(n-1)...(k+1), one factor per step below n,
        # so L(10^6, 10^6) builds no 10^6!
        def small_factorial(m):
            if m > 10**4:
                raise AssertionError(f"factorial({m}) formed")
            return factorial(m)

        monkeypatch.setattr(numbers_mod, "factorial", small_factorial, raising=False)
        assert lah(10**6, 10**6) == 1
        assert lah(10**6, 10**6 - 1) == 999999 * 10**6


class TestBruteForce:
    def test_examples(self):
        assert lah_bruteforce(3, 2) == 6
        assert lah_bruteforce(1, 1) == 1
        assert lah_bruteforce(4, 4) == 1
        assert lah_bruteforce(3, 4) == 0

    def test_enumeration_yields_distinct_partitions(self):
        seen = set()
        for part in ordered_block_partitions(4):
            canon = frozenset(part)
            assert canon not in seen
            seen.add(canon)
            assert sorted(x for block in part for x in block) == [1, 2, 3, 4]
        # 24 + 36 + 12 + 1 partitions into ordered blocks of a 4-element set
        assert len(seen) == 73

    def test_bounds_rejected(self):
        with pytest.raises(ValueError):
            lah_bruteforce(10, 2)
        with pytest.raises(ValueError):
            lah_bruteforce(0, 1)
        with pytest.raises(ValueError):
            lah_bruteforce(3, 0)
        with pytest.raises(ValueError):
            next(ordered_block_partitions(0))

    def test_three_way_agreement_small(self):
        rows = lah_triangle(6)
        for n in range(1, 7):
            for k in range(1, n + 1):
                expected = lah(n, k)
                assert lah_bruteforce(n, k) == expected
                assert rows[n][k] == expected

    def test_row_sums_match_unfiltered_enumeration(self):
        for n in range(1, 9):
            total = sum(1 for _ in ordered_block_partitions(n))
            assert total == sum(lah_bruteforce(n, k) for k in range(1, n + 1))


class TestLahTriangle:
    def test_rows_up_to_two(self):
        assert lah_triangle(2) == [[1], [0, 1], [0, 2, 1]]

    def test_row_three(self):
        assert lah_triangle(3)[3] == [0, 6, 6, 1]

    def test_zero_column(self):
        rows = lah_triangle(8)
        for n in range(1, 9):
            assert rows[n][0] == 0

    def test_agrees_with_closed_form(self):
        rows = lah_triangle(119)
        for n in range(120):
            for k in range(n + 1):
                assert rows[n][k] == lah(n, k)


class TestRowCaches:
    def test_lah_row_is_closed_form_row(self):
        rows = lah_triangle(30)
        for n in range(31):
            assert lah_row(n) == tuple(lah(n, k) for k in range(n + 1)) == tuple(rows[n])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lah_row(-1)


class TestStirlingFirstKind:
    def test_examples(self):
        assert stirling1(3, 2) == -3
        assert stirling1(4, 1) == -6
        assert stirling1(0, 0) == 1

    def test_diagonal_is_one(self):
        for n in range(20):
            assert stirling1(n, n) == 1

    def test_first_column_sign_pattern(self):
        # s(n, 1) = (-1)^(n-1) (n-1)!; n = 3000 is far beyond the depth a
        # recursive evaluation could reach
        for n in (*range(1, 12), 3000):
            assert stirling1(n, 1) == (-1) ** (n - 1) * math.factorial(n - 1)

    def test_vanishing(self):
        for n in range(10):
            for k in range(n + 1, n + 4):
                assert stirling1(n, k) == 0
        for n in range(1, 10):
            assert stirling1(n, 0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stirling1(-1, 0)
        with pytest.raises(ValueError):
            stirling1(2, -1)

    def test_agrees_with_the_whole_row(self):
        for n, row in enumerate(stirling1_triangle(60)):
            assert [stirling1(n, k) for k in range(n + 1)] == row, n

    @pytest.mark.parametrize("k", [0, 1, 200, 399, 400])
    def test_walks_only_the_entries_that_reach_n_k(self, monkeypatch, k):
        # row m needs columns max(0, k - (400 - m))..min(m, k): at most
        # 400 (min(k, 400 - k) + 1) entries, where whole rows cut after
        # column k take about 80,000 at k = 400; s(400, 0) = 0 needs no walk
        expected = triangle_row("stirling1", 400)[k]
        weights = numbers_mod._TRIANGLE_WEIGHTS["stirling1"]
        built = []

        def counting_weights(*args):
            step = list(weights(*args))
            built.append(len(step))
            return step

        monkeypatch.setitem(numbers_mod._TRIANGLE_WEIGHTS, "stirling1", counting_weights)
        assert stirling1(400, k) == expected
        assert len(built) == (400 if k else 0)
        assert sum(built) <= 400 * (min(k, 400 - k) + 1)

    def test_triangle_matches_recurrence(self):
        # x(x-1)...(x-n+1) = sum over k of s(n, k) x^k, expanded here one
        # factor at a time, and the rising-factorial polynomial: neither
        # reads triangle_rows
        rows = stirling1_triangle(60)
        falling = [1]
        for n in range(61):
            assert rows[n] == falling == stirling1_from_rising_poly(n), n
            # times (x - n)
            falling = [low - n * high for low, high in zip([0, *falling], [*falling, 0])]


class TestStirlingFromRisingPoly:
    def test_examples(self):
        assert stirling1_from_rising_poly(0) == [1]
        assert stirling1_from_rising_poly(2) == [0, -1, 1]
        assert stirling1_from_rising_poly(3) == [0, 2, -3, 1]

    def test_agrees_with_recurrence(self):
        for n in range(13):
            row = stirling1_from_rising_poly(n)
            assert row == [stirling1(n, k) for k in range(n + 1)]


class TestStirlingFromLogSeries:
    def test_k_zero_is_delta(self):
        coeffs = stirling1_from_log_series(6, 0)
        assert coeffs == [Fraction(1)] + [Fraction(0)] * 6

    def test_k_one_is_mercator(self):
        coeffs = stirling1_from_log_series(8, 1)
        assert coeffs[0] == 0
        for n in range(1, 9):
            assert coeffs[n] == Fraction((-1) ** (n - 1), n)

    def test_k_two_cubic_coefficient(self):
        assert stirling1_from_log_series(4, 2)[3] == Fraction(-1, 2)

    def test_agrees_with_recurrence(self):
        max_n = 12
        for k in range(max_n + 1):
            coeffs = stirling1_from_log_series(max_n, k)
            for n in range(max_n + 1):
                assert coeffs[n] == Fraction(stirling1(n, k), factorial(n))

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            stirling1_from_log_series(4, 5)
        with pytest.raises(ValueError):
            stirling1_from_log_series(4, -1)


class TestTriangleType:
    def test_root_entry(self):
        for builder in (lah_triangle, stirling1_triangle):
            assert builder(0) == [[1]]

    def test_rows_shape(self):
        # rows 0..max_n, row n holding columns 0..n
        for builder in (lah_triangle, stirling1_triangle):
            assert [len(row) for row in builder(5)] == [1, 2, 3, 4, 5, 6]
            with pytest.raises(ValueError):
                builder(-1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match=r"unknown triangle 'foo' \(choose from lah, stirling1\)"):
            list(triangle_rows("foo", 3))

    @pytest.mark.parametrize("kind", ["lah", "stirling1"])
    def test_negative_max_k_rejected(self, kind):
        # a negative cut once gave the root row and then empty rows
        with pytest.raises(ValueError, match="max_k must be non-negative"):
            list(triangle_rows(kind, 3, -1))
        with pytest.raises(ValueError, match="max_k must be non-negative"):
            triangle_row(kind, 3, -1)

    @pytest.mark.parametrize("kind", ["lah", "stirling1"])
    def test_max_k_past_max_n_rejected(self, kind):
        # the cut rows hold what T(max_n, max_k) is built from, and past
        # the diagonal that is nothing
        with pytest.raises(ValueError, match="max_k must be at most max_n"):
            list(triangle_rows(kind, 3, 4))
        assert triangle_row(kind, 3, 3) == [1]

    @pytest.mark.parametrize("kind", ["lah", "stirling1"])
    def test_cut_rows_are_bands_of_the_whole_rows(self, kind):
        whole = list(triangle_rows(kind, 12))
        for max_k in range(13):
            for m, row in enumerate(triangle_rows(kind, 12, max_k)):
                assert row == whole[m][max(0, max_k - (12 - m)):min(m, max_k) + 1], (max_k, m)


class TestDecimalRows:
    @pytest.mark.parametrize("max_k", [None, 0, 40])
    @pytest.mark.parametrize("kind", ["lah", "stirling1"])
    def test_decimal_start_gives_the_int_rows(self, kind, max_k):
        # the exact context of the table command: no entry is ever rounded
        exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                                traps=[decimal.Inexact, decimal.Rounded])
        with decimal.localcontext(exact):
            rows = list(triangle_rows(kind, 300, max_k, start=decimal.Decimal(1)))
        expected = list(triangle_rows(kind, 300, max_k))
        assert [len(row) for row in rows] == [len(row) for row in expected]
        for row, int_row in zip(rows, expected):
            assert all(isinstance(v, decimal.Decimal) for v in row)
            assert [str(v) for v in row] == [str(v) for v in int_row]
            assert [int(v) for v in row] == int_row
