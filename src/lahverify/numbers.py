"""Lah numbers and signed Stirling numbers of the first kind.

Each family is computable by several independent methods (closed form,
triangular recurrence, polynomial expansion, series extraction, brute-force
enumeration) so that the methods can be played against each other in tests.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations, product, repeat
from operator import add, mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

from .exact import binomial_general, reciprocal_factorial_weight

if TYPE_CHECKING:
    from decimal import Decimal
    from fractions import Fraction

BRUTEFORCE_MAX_N = 9


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
    # n!/k! as the product n(n-1)...(k+1), so no factorial is formed
    return binomial_general(n - 1, k - 1) * math.perm(n, n - k)


@lru_cache(maxsize=32)
def lah_row(n: int) -> tuple[int, ...]:
    """L(n, 0..n) from the closed form ``lah``, cached for recent n: every
    instance of a verification grid row reads the same row. It is not
    taken from the triangle recurrence, so it stays an independent check
    of the Lah triangle that route 1 reads."""
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


_Entry = TypeVar("_Entry", int, "Decimal")

# the weights w(n, k) of row n's step, for k = 0..width-1
_TRIANGLE_WEIGHTS: dict[str, Callable[[int, int], Iterable[int]]] = {
    "lah": lambda n, width: range(n, n + width),
    "stirling1": lambda n, width: repeat(-n, width),
}


def triangle_rows(kind: str, max_n: int, max_k: int | None = None, start: _Entry = 1) -> Iterator[list[_Entry]]:
    """Rows 0..max_n of the "lah" or "stirling1" triangle, by the recurrence

        T(n+1, k) = T(n, k-1) + w(n, k) T(n, k),   T(0, 0) = start,

    with weight w = n+k for Lah and w = -n for Stirling. Row n holds
    columns 0..n, cut after column ``max_k`` when it is given. Only the
    previous row is kept, so rows can be consumed as they are produced.

    Each row is one pass of ``map`` over the previous row padded with a
    zero at either end, against the weights of the whole row, which
    ``_TRIANGLE_WEIGHTS[kind](n, width)`` gives as one iterable: no
    Python-level call or index per entry.

    Every entry has the type of ``start``, the int 1 by default. The one
    other caller is the ``table`` command, which passes ``Decimal(1)`` and
    runs the rows in an exact decimal context, so that printing an entry
    is linear in its digits.
    """
    weights = _TRIANGLE_WEIGHTS.get(kind)
    if weights is None:
        raise ValueError(f"unknown triangle {kind!r} (choose from {', '.join(_TRIANGLE_WEIGHTS)})")
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    if max_k is not None and max_k < 0:
        raise ValueError("max_k must be non-negative")
    row = [start]
    yield row
    for n in range(max_n):
        width = n + 2 if max_k is None else min(n + 2, max_k + 1)
        # T(n+1, k) = [0, *row][k] + w(n, k) * [*row, 0][k]; map stops at
        # the shortest argument, so the weights cut the row at width
        row = list(map(add, [0, *row], map(mul, weights(n, width), [*row, 0])))
        yield row


def lah_triangle(max_n: int) -> list[list[int]]:
    """Rows 0..max_n of the Lah triangle, row n holding L(n, 0..n), built by
    the additive recurrence L(n+1, k) = L(n, k-1) + (n+k) L(n, k),
    independent of the closed form."""
    return list(triangle_rows("lah", max_n))


def triangle_row(kind: str, n: int, max_k: int | None = None) -> list[int]:
    """Row n of the "lah" or "stirling1" triangle, columns 0..n, or only
    0..max_k when ``max_k`` is given: the last row of ``triangle_rows``,
    O(n * max_k) work and no recursion."""
    for row in triangle_rows(kind, n, max_k):
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
    return triangle_row("stirling1", n, k)[k] if k <= n else 0


def stirling1_triangle(max_n: int) -> list[list[int]]:
    """Rows 0..max_n of the Stirling triangle, row n holding s(n, 0..n),
    built by the recurrence row by row."""
    return list(triangle_rows("stirling1", max_n))


def stirling1_from_rising_poly(n: int) -> list[int]:
    """Recover s(n, 0..n) from the monomial expansion of x(x+1)...(x+n-1),
    whose coefficient at x^k is (-1)^(n-k) s(n, k)."""
    # series is imported by the two functions that use it, so that the
    # number commands and the tables never load it
    from .series import rising_factorial_poly

    # the product is monic of degree n, so no coefficient is trimmed
    return [(-1 if (n - k) % 2 else 1) * c for k, c in enumerate(rising_factorial_poly(n).coeffs)]


def stirling1_from_log_series(max_n: int, k: int) -> list[Fraction]:
    """Coefficients of t^0 .. t^max_n in log(1+t)^k / k!.

    The coefficient of t^n equals s(n, k) / n!, which gives a third,
    series-based computation path for the Stirling numbers.
    """
    if not 0 <= k <= max_n:
        raise ValueError("need 0 <= k <= max_n")
    from .series import series_from_coeffs, series_log1p, series_mul, series_scale

    acc = series_from_coeffs([1], max_n)
    log_series = series_log1p(max_n)
    for _ in range(k):
        acc = series_mul(acc, log_series)
    acc = series_scale(acc, reciprocal_factorial_weight(k))
    return list(acc.coeffs)
