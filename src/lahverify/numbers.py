"""Lah numbers and signed Stirling numbers of the first kind.

Each family is computable by several independent methods (closed form,
triangular recurrence, polynomial expansion, series extraction, brute-force
enumeration) so that the methods can be played against each other in tests.
This module holds the closed form and the recurrence, which the commands
and the routes run; the other methods are in ``oracles``. Only
``lah_triangle``, ``stirling1_triangle`` and ``stirling1_from_rising_poly``
still resolve here too, because the benchmark's tracer reads them here.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

from . import _forward
from .exact import binomial_general, check_factorial_fits

if TYPE_CHECKING:
    from decimal import Decimal


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
    # L(n, k) >= n!/k! >= (n-k)!
    check_factorial_fits(n - k)
    # n!/k! as the product n(n-1)...(k+1), so no factorial is formed
    return binomial_general(n - 1, k - 1) * math.perm(n, n - k)


def lah_row(n: int) -> tuple[int, ...]:
    """L(n, 0..n) from the closed form ``lah``, the row that every instance
    of a verification grid row reads, kept for one grid by ``verify``. It
    is not taken from the triangle recurrence, so it stays an independent
    check of the Lah triangle that route 1 reads."""
    if n < 0:
        raise ValueError("Lah indices must be non-negative")
    return tuple(lah(n, k) for k in range(n + 1))


_Entry = TypeVar("_Entry", int, "Decimal")

# the weights w(n, k) of row n's step, for the columns k of the range ks
_TRIANGLE_WEIGHTS: dict[str, Callable[[int, range], Iterable[int]]] = {
    "lah": lambda n, ks: range(n + ks.start, n + ks.stop),
    "stirling1": lambda n, ks: repeat(-n, len(ks)),
}


def triangle_rows(kind: str, max_n: int, max_k: int | None = None, start: _Entry = 1) -> Iterator[list[_Entry]]:
    """Rows 0..max_n of the "lah" or "stirling1" triangle, by the recurrence

        T(n+1, k) = T(n, k-1) + w(n, k) T(n, k),   T(0, 0) = start,

    with weight w = n+k for Lah and w = -n for Stirling. Row n holds
    columns 0..n. With ``max_k`` (0 <= max_k <= max_n), row n holds only
    the columns that T(max_n, max_k) is built from,
    max(0, max_k - (max_n - n))..min(n, max_k), so the last row is
    [T(max_n, max_k)] and at most max_n * (min(max_k, max_n - max_k) + 1)
    entries are built. Only the previous row is kept, so rows can be
    consumed as they are produced.

    Each row is one pass of ``map`` over the previous row padded with a
    zero at either end, against the weights of the row's columns ks, which
    ``_TRIANGLE_WEIGHTS[kind](n, ks)`` gives as one iterable: no
    Python-level call or index per entry. Once the left edge of a cut row
    moves, the padded copy at the left is the row itself and the one at
    the right drops its first entry.

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
    if max_k is not None and max_k > max_n:
        raise ValueError("max_k must be at most max_n")
    row = [start]
    yield row
    lo = 0
    for n in range(max_n):
        # row n+1 holds columns lo..hi
        hi = n + 1 if max_k is None else min(n + 1, max_k)
        if max_k is not None and lo < max_k - (max_n - n - 1):
            # T(n+1, lo+i) = row[i] + w(n, lo+i) * row[i+1], with row[0] at lo-1
            lo += 1
            shifted, unshifted = row, [*row[1:], 0]
        else:
            # T(n+1, k) = [0, *row][k] + w(n, k) * [*row, 0][k]
            shifted, unshifted = [0, *row], [*row, 0]
        # map stops at the shortest argument, so the weights cut the row at hi
        row = list(map(add, shifted, map(mul, weights(n, range(lo, hi + 1)), unshifted)))
        yield row


def triangle_row(kind: str, n: int, max_k: int | None = None) -> list[int]:
    """Row n of the "lah" or "stirling1" triangle, columns 0..n, or
    [T(n, max_k)] when ``max_k`` is given: the last row of
    ``triangle_rows``, with no recursion."""
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
    if n == 0 and k == 0:
        return 1
    if k < 1 or k > n:
        return 0
    # |s(n, k)| >= (n-k)!, the permutations that fix 1..k-1 and cycle the rest
    check_factorial_fits(n - k)
    return triangle_row("stirling1", n, k)[0]


# the benchmark's tracer reads these here; ROADMAP item 6 deletes them with it
_MOVED = {"lah_triangle", "stirling1_triangle", "stirling1_from_rising_poly"}
__getattr__ = _forward(__name__, _MOVED)
