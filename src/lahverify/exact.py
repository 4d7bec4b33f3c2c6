"""Unbounded exact integer and rational primitives.

Integers are plain Python ``int`` (arbitrary precision); rationals are
``fractions.Fraction``, which normalizes eagerly to lowest terms with a
positive denominator. Every function here is pure and exact: no rounding,
no overflow, ever. ``exact_decimal`` is the one decimal context that keeps
that promise for ``decimal.Decimal`` integers.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from decimal import Context
    from fractions import Fraction

    Scalar = int | Fraction


class ConsistencyError(ArithmeticError):
    """Two computations that must agree exactly produced different values."""


# how far above the largest m! made so far factorial steps up from it
_FACTORIAL_STEPS = 64

# (m, m!) for the largest m whose factorial has been made; one tuple,
# rebound whole, so that a thread never reads an m with another's m!
_largest = (0, 1)


@lru_cache(maxsize=None)
def factorial(m: int) -> int:
    """Product 1*2*...*m; factorial(0) == 1, and a negative m is a ValueError.

    A missing m! that lies at most ``_FACTORIAL_STEPS`` above the largest
    factorial made so far is that factorial times the steps between, so a
    caller that walks m upwards pays one small product per step; a longer
    jump, or any m below it, is one ``math.factorial``."""
    global _largest
    top, held = _largest
    if top <= m <= top + _FACTORIAL_STEPS:
        value = held * math.prod(range(top + 1, m + 1))
    else:
        value = math.factorial(m)
    if m > top:
        _largest = (m, value)
    return value


def exact_decimal() -> Context:
    """A decimal context that holds every integer exactly, and traps
    rounding, should a value ever need more than its precision. decimal is
    imported here, so that a command that writes only short ints never
    loads it."""
    from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, DivisionByZero, Inexact, InvalidOperation,
                         Overflow, Rounded)

    return Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                   traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])


@lru_cache(maxsize=None)
def _memory_bytes() -> int | None:
    """The most bytes this process can hold, read once: the smaller of
    MemTotal + SwapTotal in /proc/meminfo and the soft RLIMIT_AS, of
    those that can be read and are set, or None where neither is."""
    limits = []
    try:
        with open("/proc/meminfo") as meminfo:
            fields = dict(line.split(":", 1) for line in meminfo)
        # both in kB
        limits.append(1024 * (int(fields["MemTotal"].split()[0]) + int(fields["SwapTotal"].split()[0])))
    except (OSError, LookupError, ValueError):
        pass
    try:
        import resource
    except ImportError:
        pass
    else:
        soft, _ = resource.getrlimit(resource.RLIMIT_AS)
        if soft != resource.RLIM_INFINITY:
            limits.append(soft)
    return min(limits, default=None)


def check_factorial_fits(m: int) -> None:
    """Raise OverflowError when m! provably has more than ``sys.maxsize``
    bits, or more bytes than this process can hold (``_memory_bytes``):
    a value that cannot be formed. With h = m // 2, m! > h^h >=
    2^(h (bitlen(h) - 1)), so this refuses nothing that could finish: on a
    64-bit build, m above about 3e17, and where 64 GiB can be held, m above
    about 3e10. Memory is read only for a bound of 2^30 bits or more."""
    h = m // 2
    bits = h * (h.bit_length() - 1)
    if bits > sys.maxsize:
        raise OverflowError(f"{m}! has more than {sys.maxsize} bits")
    if bits >= 1 << 30:
        memory = _memory_bytes()
        if memory is not None and bits // 8 > memory:
            raise OverflowError(f"{m}! has more than {bits} bits, more than the {memory} bytes this process can hold")


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

