"""Reference computations that no command runs.

Tests, the acceptance criteria and the benchmark's tracer play these
against the routes and the number families: brute-force enumeration of
ordered-block partitions, whole triangles, Stirling numbers from the
rising factorial polynomial and from the log series, the truncated power
series behind the last, and two classical binomial identities. They live
apart so that no command compiles them. ``numbers``, ``series`` and
``verify`` forward the names they once defined to this module, so
``from lahverify.numbers import lah_bruteforce`` still works.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .exact import binomial_general, reciprocal_factorial_weight
from .numbers import triangle_rows
from .series import _convolve, rising_factorial_poly

if TYPE_CHECKING:
    from fractions import Fraction

    from .exact import Scalar

BRUTEFORCE_MAX_N = 9


def _set_partitions(items: list[int], k: int) -> Iterator[list[list[int]]]:
    # Yields each partition of items into exactly k nonempty blocks once:
    # the first item either opens its own block or joins one block of a
    # partition of the rest.
    n = len(items)
    if k < 0 or k > n:
        return
    if n == 0:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest, k - 1):
        yield [[head]] + part
    for part in _set_partitions(rest, k):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]


def ordered_block_partitions(n: int, k: int | None = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Enumerate partitions of {1, ..., n} into nonempty ordered blocks.

    Each partition appears exactly once as a tuple of blocks, where every
    block is a tuple giving the order of its elements and the outer tuple
    carries no meaning (the family of blocks is unordered). With ``k`` set,
    only partitions into exactly k blocks are produced.
    """
    if n < 1:
        raise ValueError("enumeration needs n >= 1")
    items = list(range(1, n + 1))
    block_counts = range(1, n + 1) if k is None else [k]
    for kk in block_counts:
        for blocks in _set_partitions(items, kk):
            for arrangement in product(*(permutations(b) for b in blocks)):
                yield arrangement


def lah_bruteforce(n: int, k: int) -> int:
    """Count partitions into k nonempty ordered blocks by full enumeration.

    Deliberately formula-free so it can serve as an independent oracle;
    bounded to n <= 9 to keep single calls fast.
    """
    if not 1 <= n <= BRUTEFORCE_MAX_N:
        raise ValueError(f"brute force supports 1 <= n <= {BRUTEFORCE_MAX_N}")
    if k < 1:
        raise ValueError("brute force needs k >= 1")
    return sum(1 for _ in ordered_block_partitions(n, k))


def lah_triangle(max_n: int) -> list[list[int]]:
    """Rows 0..max_n of the Lah triangle, row n holding L(n, 0..n), built by
    the additive recurrence L(n+1, k) = L(n, k-1) + (n+k) L(n, k),
    independent of the closed form."""
    return list(triangle_rows("lah", max_n))


def stirling1_triangle(max_n: int) -> list[list[int]]:
    """Rows 0..max_n of the Stirling triangle, row n holding s(n, 0..n),
    built by the recurrence row by row."""
    return list(triangle_rows("stirling1", max_n))


def stirling1_from_rising_poly(n: int) -> list[int]:
    """Recover s(n, 0..n) from the monomial expansion of x(x+1)...(x+n-1),
    whose coefficient at x^k is (-1)^(n-k) s(n, k)."""
    # the product is monic of degree n, so no coefficient is trimmed
    return [(-1 if (n - k) % 2 else 1) * c for k, c in enumerate(rising_factorial_poly(n).coeffs)]


class TruncatedSeries(NamedTuple):
    """Coefficients of t^0 .. t^order; binary operations truncate to the
    smaller order of their operands."""

    coeffs: tuple[Scalar, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Scalar:
        return self.coeffs[i]


def series_from_coeffs(values: Iterable[Scalar], order: int | None = None) -> TruncatedSeries:
    """Series with the given low-order coefficients, zero-padded to ``order``."""
    cs = list(values)
    if order is not None:
        if order < 0:
            raise ValueError("series order must be non-negative")
        cs = cs[: order + 1]
        cs.extend(0 for _ in range(order + 1 - len(cs)))
    if not cs:
        cs = [0]
    return TruncatedSeries(tuple(cs))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated to min(order(a), order(b))."""
    return TruncatedSeries(tuple(_convolve(a.coeffs, b.coeffs, min(a.order, b.order) + 1)))


def series_scale(a: TruncatedSeries, c: Scalar) -> TruncatedSeries:
    return TruncatedSeries(tuple(c * v for v in a.coeffs))


def series_log1p(order: int) -> TruncatedSeries:
    """log(1+t) through t^order: coefficients 0, 1, -1/2, 1/3, ..."""
    if order < 0:
        raise ValueError("series order must be non-negative")
    from fractions import Fraction

    cs = [0] + [Fraction(-1 if n % 2 == 0 else 1, n) for n in range(1, order + 1)]
    return TruncatedSeries(tuple(cs))


def series_binomial_power(e: int, order: int) -> TruncatedSeries:
    """(1+x)^e through x^order, for any integer exponent e.

    Negative exponents yield the alternating expansion with coefficient
    C(e, i) = (-1)^i C(i - e - 1, i) at x^i.
    """
    if order < 0:
        raise ValueError("series order must be non-negative")
    return TruncatedSeries(tuple(binomial_general(e, i) for i in range(order + 1)))


def stirling1_from_log_series(max_n: int, k: int) -> list[Fraction]:
    """Coefficients of t^0 .. t^max_n in log(1+t)^k / k!.

    The coefficient of t^n equals s(n, k) / n!, which gives a third,
    series-based computation path for the Stirling numbers.
    """
    if not 0 <= k <= max_n:
        raise ValueError("need 0 <= k <= max_n")
    acc = series_from_coeffs([1], max_n)
    log_series = series_log1p(max_n)
    for _ in range(k):
        acc = series_mul(acc, log_series)
    acc = series_scale(acc, reciprocal_factorial_weight(k))
    return list(acc.coeffs)


def gkp_identity(l: int, m: int, s: int, n: int) -> tuple[int, int]:
    """Both sides of the alternating double-binomial identity

        sum over i of C(l, m+i) C(s+i, n) (-1)^i = (-1)^(l+m) C(s-m, n-l)

    for l >= 0 and arbitrary integers m, s, n (identity (5.24) in
    Graham/Knuth/Patashnik, Concrete Mathematics). The sum has finite
    support 0 <= m+i <= l. Acceptance criterion 6 checks it exhaustively;
    no route calls it."""
    if l < 0:
        raise ValueError("l must be non-negative")
    lhs = sum(
        (-1 if i % 2 else 1) * binomial_general(l, m + i) * binomial_general(s + i, n)
        for i in range(-m, l - m + 1)
    )
    rhs = (-1 if (l + m) % 2 else 1) * binomial_general(s - m, n - l)
    return lhs, rhs


def chu_vandermonde_binomial(r: int, m: int, s: int, n: int) -> tuple[int, int]:
    """Both sides of the Chu-Vandermonde convolution
    sum over j of C(r, m+j) C(s, n-j) = C(r+s, m+n), for r, s >= 0."""
    if r < 0 or s < 0:
        raise ValueError("r and s must be non-negative")
    lhs = sum(
        binomial_general(r, m + j) * binomial_general(s, n - j)
        for j in range(-m, r - m + 1)
    )
    rhs = binomial_general(r + s, m + n)
    return lhs, rhs
