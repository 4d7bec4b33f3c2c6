"""Dense polynomials over exact scalars, and the Cauchy product they share
with the truncated power series of ``oracles``.

Coefficients keep the type they are given: integral inputs stay ``int``
and rational ones stay ``Fraction``. The truncated series, which only
``oracles.stirling1_from_log_series`` and the tests use, live in
``oracles``. Only ``series_mul`` and ``series_binomial_power`` still
resolve here too, because the benchmark's tracer reads them here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import _forward

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


# the benchmark's tracer reads these here; ROADMAP item 6 deletes them with it
_MOVED = {"series_mul", "series_binomial_power"}
__getattr__ = _forward(__name__, _MOVED)
