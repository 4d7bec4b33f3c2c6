"""Lah numbers and signed Stirling numbers of the first kind.

Each family is computable by several independent methods (closed form,
triangular recurrence, polynomial expansion, series extraction, brute-force
enumeration) so that the methods can be played against each other in tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Callable, Iterator, NamedTuple

from .exact import binomial_general, factorial, reciprocal_factorial_weight
from .series import rising_factorial_poly, series_from_coeffs, series_log1p, series_mul, series_scale

BRUTEFORCE_MAX_N = 9


class Triangle(NamedTuple):
    """Lower-triangular integer table indexed by (n, k), 0 <= k <= n <= max_n."""

    max_n: int
    entries: dict[tuple[int, int], int]

    def value(self, n: int, k: int) -> int:
        """Entry (n, k); positions with k < 0 or k > n read as 0."""
        if not 0 <= n <= self.max_n:
            raise ValueError(f"row {n} is outside the table (max_n={self.max_n})")
        if k < 0 or k > n:
            return 0
        return self.entries[(n, k)]

    def row(self, n: int) -> list[int]:
        return [self.value(n, k) for k in range(n + 1)]


def lah(n: int, k: int) -> int:
    """Lah number L(n, k): the number of ways to partition an n-element set
    into k nonempty linearly ordered blocks.

    >>> lah(3, 2)
    6
    >>> lah(4, 1)
    24
    """
    if n < 0 or k < 0:
        raise ValueError("Lah indices must be non-negative")
    if n == 0 and k == 0:
        return 1
    if k < 1 or k > n:
        return 0
    return binomial_general(n - 1, k - 1) * (factorial(n) // factorial(k))


@lru_cache(maxsize=32)
def lah_row(n: int) -> tuple[int, ...]:
    """L(n, 0..n) from the closed form ``lah``, cached for recent n: every
    instance of a verification grid row reads the same row. It is not
    taken from the triangle recurrence, so it stays an independent check
    of the triangle and of the symbolic route."""
    if n < 0:
        raise ValueError("Lah indices must be non-negative")
    return tuple(lah(n, k) for k in range(n + 1))


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


_TRIANGLE_WEIGHTS: dict[str, Callable[[int, int], int]] = {
    "lah": lambda n, k: n + k,
    "stirling1": lambda n, k: -n,
    "pascal": lambda n, k: 1,
}


def triangle_rows(kind: str, max_n: int, max_k: int | None = None) -> Iterator[list[int]]:
    """Rows 0..max_n of the "lah", "stirling1" or "pascal" triangle, by
    the recurrence

        T(n+1, k) = T(n, k-1) + w(n, k) T(n, k),   T(0, 0) = 1,

    with weight w = n+k for Lah, w = -n for Stirling and w = 1 for the
    binomial coefficients. Row n holds columns 0..n, cut after column
    ``max_k`` when it is given. Only the previous row is kept, so rows can
    be consumed as they are produced.
    """
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    weight = _TRIANGLE_WEIGHTS[kind]
    row = [1]
    yield row
    for n in range(max_n):
        width = n + 2 if max_k is None else min(n + 2, max_k + 1)
        prev = [0, *row, 0]  # prev[k] = T(n, k-1), prev[k+1] = T(n, k)
        row = [prev[k] + weight(n, k) * prev[k + 1] for k in range(width)]
        yield row


# a grid row needs one triangle, and its digits grow as the cube of its
# size, so only the most recent sizes are kept
@lru_cache(maxsize=2)
def signed_pascal_rows(size: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..size-1 of the signed Pascal triangle, (-1)^k C(n, k) for
    0 <= k <= n, by the additive recurrence rather than a closed form."""
    if size < 0:
        raise ValueError("size must be non-negative")
    rows = triangle_rows("pascal", size - 1) if size else ()
    return tuple(tuple(-c if k % 2 else c for k, c in enumerate(row)) for row in rows)


def _triangle(kind: str, max_n: int) -> Triangle:
    rows = triangle_rows(kind, max_n)
    return Triangle(max_n, {(n, k): v for n, row in enumerate(rows) for k, v in enumerate(row)})


def lah_triangle(max_n: int) -> Triangle:
    """Lah table built by the additive recurrence
    L(n+1, k) = L(n, k-1) + (n+k) L(n, k), independent of the closed form."""
    return _triangle("lah", max_n)


def stirling1_row(n: int, max_k: int | None = None) -> list[int]:
    """Row n of the Stirling triangle, s(n, 0..n), or only s(n, 0..max_k)
    when ``max_k`` is given: O(n * max_k) work and no recursion."""
    for row in triangle_rows("stirling1", n, max_k):
        pass
    return row


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k), by the recurrence
    s(n+1, k) = s(n, k-1) - n s(n, k) with s(0, 0) = 1.

    >>> stirling1(3, 2)
    -3
    """
    if n < 0 or k < 0:
        raise ValueError("Stirling indices must be non-negative")
    return stirling1_row(n, k)[k] if k <= n else 0


def stirling1_triangle(max_n: int) -> Triangle:
    """Table of s(n, k) for 0 <= k <= n <= max_n, built row by row."""
    return _triangle("stirling1", max_n)


def stirling1_from_rising_poly(n: int) -> list[int]:
    """Recover s(n, 0..n) from the monomial expansion of x(x+1)...(x+n-1),
    whose coefficient at x^k is (-1)^(n-k) s(n, k)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    # the product is monic of degree n, so no coefficient is trimmed
    return [(-1 if (n - k) % 2 else 1) * c for k, c in enumerate(rising_factorial_poly(n).coeffs)]


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
