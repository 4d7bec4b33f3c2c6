"""Unbounded exact integer and rational primitives.

Integers are plain Python ``int`` (arbitrary precision); rationals are
``fractions.Fraction``, which normalizes eagerly to lowest terms with a
positive denominator. Every function here is pure and exact: no rounding,
no overflow, ever.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

    Scalar = int | Fraction


class ConsistencyError(ArithmeticError):
    """Two computations that must agree exactly produced different values."""


@lru_cache(maxsize=None)
def factorial(m: int) -> int:
    """Product 1*2*...*m; factorial(0) == 1, and a negative m is a ValueError."""
    return math.factorial(m)


def binomial_general(r: int, j: int) -> int:
    """Binomial coefficient C(r, j) for arbitrary integer upper argument.

    Follows the convention C(r, j) = 0 for j < 0, which makes alternating
    sums over an unrestricted index terminate on their own. For negative r
    the value alternates in sign, e.g.

    >>> binomial_general(-1, 3)
    -1
    >>> binomial_general(-3, 2)
    6
    """
    if j < 0:
        return 0
    if r >= 0:
        return math.comb(r, j)
    # reflection: C(r, j) = (-1)^j C(j - r - 1, j) for negative r
    return (-1 if j % 2 else 1) * math.comb(j - r - 1, j)


def rising(x: Scalar, n: int) -> Scalar:
    """Rising factorial x(x+1)...(x+n-1); 1 when n == 0."""
    if n < 0:
        raise ValueError("rising factorial needs n >= 0")
    return falling(x + n - 1, n)


def falling(x: Scalar, n: int) -> Scalar:
    """Falling factorial x(x-1)...(x-n+1); 1 when n == 0. An integral x,
    int or Fraction, gives an int."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    # with x = p/q, the product of the numerators p, p-q, ..., p-(n-1)q over
    # q^n; an int is its own numerator over 1
    p, q = x.numerator, x.denominator
    product = math.prod(range(p, p - n * q, -q))
    if q == 1:
        return product
    from fractions import Fraction

    return Fraction(product, q**n)


def reciprocal_factorial_weight(m: int) -> Fraction:
    """1/m! for m >= 0, and 0 for negative m: the factor that scales
    log(1+t)^k to log(1+t)^k / k! in ``stirling1_from_log_series``."""
    # imported here, like every use of Fraction: the integer routes and
    # commands never load the module
    from fractions import Fraction

    if m < 0:
        return Fraction(0)
    return Fraction(1, factorial(m))


def exact_quotient(num: int, den: int) -> int:
    """num // den for integers that must divide exactly; a non-zero
    remainder is an error, not a rounded result."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ConsistencyError("integer quotient has a non-zero remainder")
    return quotient

