"""Truncated formal power series and dense polynomials over exact scalars.

Coefficients keep the type they are given: integral inputs stay ``int``
and rational ones stay ``Fraction``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .exact import binomial_general

if TYPE_CHECKING:
    from .exact import Scalar


def _convolve(a: Sequence[Scalar], b: Sequence[Scalar], size: int) -> list[Scalar]:
    # Cauchy product of two coefficient sequences, coefficients 0 .. size-1
    out: list[Scalar] = [0] * size
    for i, ca in enumerate(a[:size]):
        if not ca:
            continue
        for j, cb in enumerate(b[: size - i]):
            if cb:
                out[i + j] += ca * cb
    return out


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


class Polynomial(NamedTuple):
    """Dense exact-coefficient polynomial; the zero polynomial is () and
    has degree -1. Trailing zero coefficients are never stored."""

    coeffs: tuple[Scalar, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def poly_from_coeffs(values: Iterable[Scalar]) -> Polynomial:
    cs = list(values)
    while cs and cs[-1] == 0:
        cs.pop()
    return Polynomial(tuple(cs))


POLY_ONE = poly_from_coeffs([1])


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    # a zero factor gives size <= 0 or an all-zero list, which trims to ()
    return poly_from_coeffs(_convolve(a.coeffs, b.coeffs, len(a.coeffs) + len(b.coeffs) - 1))


def rising_factorial_poly(n: int) -> Polynomial:
    """x(x+1)...(x+n-1) expanded in the monomial basis."""
    if n < 0:
        raise ValueError("n must be non-negative")
    p = POLY_ONE
    for j in range(n):
        p = poly_mul(p, poly_from_coeffs([j, 1]))
    return p

