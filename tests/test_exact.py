from __future__ import annotations

import decimal
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lahverify.exact as exact_mod
from lahverify.exact import (
    ConsistencyError,
    binomial_general,
    check_factorial_fits,
    exact_decimal,
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

    @pytest.fixture(scope="class")
    def oracle(self):
        return [math.factorial(m) for m in range(5001)]

    @staticmethod
    def _cold():
        # no factorial held, so the next one is built from 0! = 1
        factorial.cache_clear()
        exact_mod._largest = (0, 1)

    @staticmethod
    def _count_stdlib_calls(monkeypatch) -> list[int]:
        # the m of every math.factorial(m) that factorial makes
        calls: list[int] = []
        stdlib = SimpleNamespace(factorial=lambda m: calls.append(m) or math.factorial(m), prod=math.prod)
        monkeypatch.setattr(exact_mod, "math", stdlib)
        return calls

    def test_walked_upwards(self, oracle, monkeypatch):
        self._cold()
        calls = self._count_stdlib_calls(monkeypatch)
        for m in range(5001):
            assert factorial(m) == oracle[m], m
        # every m! was one step above the largest held
        assert calls == []

    def test_walked_downwards(self, oracle):
        self._cold()
        for m in range(5000, -1, -1):
            assert factorial(m) == oracle[m], m

    def test_far_jump_is_one_stdlib_call(self, oracle, monkeypatch):
        self._cold()
        calls = self._count_stdlib_calls(monkeypatch)
        assert [factorial(m) for m in (64, 129, 193, 100, 4000)] == [oracle[m] for m in (64, 129, 193, 100, 4000)]
        assert calls == [129, 100, 4000]

    @given(st.integers(0, 5000), st.lists(st.integers(-70, 70) | st.integers(-5000, 5000), max_size=40))
    def test_random_jumps(self, oracle, start, steps):
        self._cold()
        m = start
        for step in [0, *steps]:
            m = min(max(m + step, 0), 5000)
            assert factorial(m) == oracle[m], m

    def test_fits_is_a_lower_bound(self, monkeypatch):
        # m! with exactly maxsize bits is never refused, for a maxsize that
        # small m reach
        for m in range(2000):
            monkeypatch.setattr(exact_mod, "sys", SimpleNamespace(maxsize=math.factorial(m).bit_length()))
            check_factorial_fits(m)

    def test_fits_refuses_only_near_the_c_limit(self, monkeypatch):
        # where memory cannot be read, only the C limit bounds a value
        monkeypatch.setattr(exact_mod, "_memory_bytes", lambda: None)
        check_factorial_fits(3 * 10**17)
        for m in (4 * 10**17, sys.maxsize - 1, sys.maxsize + 2):
            with pytest.raises(OverflowError, match=f"^{m}! has more than {sys.maxsize} bits$"):
                check_factorial_fits(m)


    # the bound h (bitlen(h) - 1), with h = m // 2, first reaches 2^30 bits
    # at h = 42,949,673: 2^30 + 1 bits, and 2^27 bytes when rounded down
    FIRST_READ = 85_899_346

    def test_fits_refuses_what_memory_cannot_hold(self, monkeypatch):
        m = self.FIRST_READ
        monkeypatch.setattr(exact_mod, "_memory_bytes", lambda: 1 << 27)
        check_factorial_fits(m)
        monkeypatch.setattr(exact_mod, "_memory_bytes", lambda: (1 << 27) - 1)
        with pytest.raises(OverflowError, match=f"^{m}! has more than {2**30 + 1} bits, more than the "
                                                f"{(1 << 27) - 1} bytes this process can hold$"):
            check_factorial_fits(m)
        # the C limit is checked first, whatever memory there is
        monkeypatch.setattr(exact_mod, "_memory_bytes", lambda: 1 << 80)
        with pytest.raises(OverflowError, match=f"has more than {sys.maxsize} bits$"):
            check_factorial_fits(4 * 10**17)

    def test_fits_reads_no_memory_below_2_to_the_30_bits(self, monkeypatch):
        reads = []
        monkeypatch.setattr(exact_mod, "_memory_bytes", lambda: reads.append(1) or 0)
        for m in (0, 1, 10**5, self.FIRST_READ - 1):
            check_factorial_fits(m)
        assert reads == []
        with pytest.raises(OverflowError):
            check_factorial_fits(self.FIRST_READ)
        assert reads == [1]

    @pytest.mark.parametrize("meminfo, rlimit, expected", [
        ("MemTotal:       1000 kB\nMemFree:  10 kB\nSwapTotal:     24 kB\n", None, 1024 * 1024),
        ("MemTotal:       1000 kB\nSwapTotal:     24 kB\n", 5000, 5000),
        ("MemTotal:       1000 kB\nSwapTotal:     24 kB\n", 1 << 40, 1024 * 1024),
        (None, 5000, 5000),
        ("MemTotal:       1000 kB\n", 5000, 5000),
        ("garbled", None, None),
        (None, None, None),
    ], ids=["meminfo", "rlimit-below", "rlimit-above", "no-meminfo", "no-swap-line", "garbled", "neither"])
    def test_memory_is_the_smaller_readable_limit(self, monkeypatch, meminfo, rlimit, expected):
        import io
        import resource

        def fake_open(path, *args, **kwargs):
            assert path == "/proc/meminfo"
            if meminfo is None:
                raise FileNotFoundError(path)
            return io.StringIO(meminfo)

        monkeypatch.setattr(exact_mod, "open", fake_open, raising=False)
        limit = resource.RLIM_INFINITY if rlimit is None else rlimit
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, resource.RLIM_INFINITY))
        # the cached reader's own body, which the process runs at most once
        assert exact_mod._memory_bytes.__wrapped__() == expected


class TestExactDecimal:
    def test_traps_rounding(self):
        context = exact_decimal()
        assert context.traps[decimal.Inexact] and context.traps[decimal.Rounded]
        # a fresh context per call, so that no caller changes another's
        assert context is not exact_decimal()

    def test_holds_a_long_product_digit_for_digit(self):
        with decimal.localcontext(exact_decimal()):
            assert str(decimal.Decimal(2) ** 3000 * 3) == str(2**3000 * 3)


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
