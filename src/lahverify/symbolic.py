"""A miniature exact calculus for finite sums of c * u^a * t^b * exp(-u/t).

Two operations carry everything built here:

* differentiation in t, applied term by term through the product rule, and
* the exponential-moment rule: for t > 0 the integral of u^a * exp(-u/t)
  over u in [0, inf) equals a! * t^(a+1) exactly, so "integrate out u"
  becomes pure Laurent-polynomial bookkeeping and no numeric quadrature is
  ever needed.

Expressions keep at most one term per (u-power, t-power) pair and never
store zero coefficients, so structural equality of the term maps is
semantic equality.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, NamedTuple

from .exact import ConsistencyError, exact_quotient, factorial, falling
from .numbers import lah_row, triangle_row
from .series import rising_factorial_poly

if TYPE_CHECKING:
    from .exact import Scalar


class LaurentPoly(NamedTuple):
    """Finite sum of exact coefficients times integer powers of t."""

    terms: dict[int, Scalar]

    def coeff(self, exponent: int) -> Scalar:
        return self.terms.get(exponent, 0)


def _merge_terms(pairs: Iterable[tuple[Scalar, Hashable]]) -> dict:
    """Sum the (coefficient, key) pairs by key, keeping no zero sums."""
    merged: dict = {}
    for c, key in pairs:
        merged[key] = total = merged.get(key, 0) + c
        if not total:
            del merged[key]
    return merged


def laurent_from_terms(pairs: Iterable[tuple[Scalar, int]]) -> LaurentPoly:
    """Build a Laurent polynomial from (coefficient, exponent) pairs,
    merging like powers and dropping zeros."""
    return LaurentPoly(_merge_terms(pairs))


def laurent_diff(p: LaurentPoly, times: int = 1) -> LaurentPoly:
    """The ``times``-th t-derivative in one pass: each c * t^b becomes
    c * b(b-1)...(b-times+1) * t^(b-times), or vanishes where that is 0.

    >>> laurent_diff(laurent_from_terms([(1, 3), (2, -1), (5, 0)]), 2).terms
    {1: 6, -3: 4}
    """
    if times < 0:
        raise ValueError("derivative order must be non-negative")
    return laurent_from_terms((c * falling(b, times), b - times) for b, c in p.terms.items())


class ExpLaurentExpr(NamedTuple):
    """Finite sum of terms c * u^a * t^b * exp(-u/t), keyed by (a, b)."""

    terms: dict[tuple[int, int], Scalar]


def expr_from_terms(triples: Iterable[tuple[Scalar, int, int]]) -> ExpLaurentExpr:
    """Build an expression from (coefficient, u-power, t-power) triples.

    Like terms are merged eagerly; a negative u-power is rejected because
    nothing in this calculus can produce one.
    """
    triples = list(triples)
    if any(a < 0 for _c, a, _b in triples):
        raise ValueError("u-exponent must stay non-negative")
    return ExpLaurentExpr(_merge_terms((c, (a, b)) for c, a, b in triples))


def expr_diff_t(e: ExpLaurentExpr) -> ExpLaurentExpr:
    """Differentiate in t: the product rule sends c * u^a * t^b * exp(-u/t)
    to c*b * u^a * t^(b-1) * exp(-u/t) + c * u^(a+1) * t^(b-2) * exp(-u/t)."""
    out: list[tuple[Scalar, int, int]] = []
    for (a, b), c in e.terms.items():
        out.append((c * b, a, b - 1))
        out.append((c, a + 1, b - 2))
    return expr_from_terms(out)


def expr_moment_u(e: ExpLaurentExpr) -> LaurentPoly:
    """Integrate out u over [0, inf): each term (c, a, b) contributes
    c * a! at t-power b + a + 1."""
    return laurent_from_terms((c * factorial(a), b + a + 1) for (a, b), c in e.terms.items())


def expr_mul_u_poly(e: ExpLaurentExpr, u_coeffs: Iterable[Scalar]) -> ExpLaurentExpr:
    """Multiply by a polynomial in u given as a coefficient list (index = power)."""
    out: list[tuple[Scalar, int, int]] = []
    for (a, b), c in e.terms.items():
        for i, ci in enumerate(u_coeffs):
            if ci:
                out.append((c * ci, a + i, b))
    return expr_from_terms(out)


def exp_derivative_lah(k: int) -> ExpLaurentExpr:
    """The k-th t-derivative of exp(-u/t), assembled directly from its
    closed form: the coefficients are signed Lah numbers from ``lah_row``,

        sum over l in 0..k-1 of (-1)^l L(k, k-l) u^(k-l) t^(l-2k) exp(-u/t).
    """
    if k < 1:
        raise ValueError("derivative order must be at least 1")
    # l = k reads L(k, 0) = 0, which the merge drops
    return expr_from_terms(((-1) ** l * c, k - l, l - 2 * k) for l, c in enumerate(reversed(lah_row(k))))


def stirling_weighted_moment(m: int) -> LaurentPoly:
    """The u-moment of (u+1)(u+2)...(u+m) * exp(-u/t), written directly in
    Stirling form: sum over i of (-1)^(m-i) i! s(m+1, i+1) t^(i+1)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return laurent_from_terms(
        ((-1 if (m - i) % 2 else 1) * factorial(i) * s, i + 1)
        for i, s in enumerate(triangle_row("stirling1", m + 1)[1:])
    )


def _lah_bracket(derivative: ExpLaurentExpr, i: int) -> int:
    """The sum over the terms c u^a t^b of ``derivative`` of c (a+i)!."""
    return sum(c * factorial(a + i) for (a, _b), c in derivative.terms.items())


def route6_coefficient_chain(m: int, k: int) -> dict[int, int]:
    """Differentiate the Stirling-form moment k times and match it against
    the expression built from the Lah-coefficient derivative formula.

    Side A is the k-fold t-derivative of ``stirling_weighted_moment(m)``,
    whose Stirling numbers come from the triangle recurrence. Side B is the
    u-moment of ``exp_derivative_lah(k)`` times (u+1)(u+2)...(u+m), whose
    coefficients r_i come from polynomial products. Every term c u^a t^b of
    the derivative has a + b = -k, so the u^i part of the product
    integrates to t^(i-k+1) alone, with coefficient r_i times the bracket

        sum over l in 0..k-1 of (-1)^l (i+k-l)! L(k, k-l).

    The two Laurent polynomials must agree exactly; a mismatch means a bug
    somewhere in the chain, never roundoff.

    Returns, for each i in 0..m, the bracket read off side A: its
    coefficient at t^(i-k+1) divided exactly by r_i = |s(m+1, i+1)|, which
    is never 0, so the one comparison checks every bracket. Where
    k > i+1 the k-th derivative of t^(i+1) vanishes, and the bracket is 0.

    >>> route6_coefficient_chain(2, 1)
    {0: 1, 1: 2, 2: 6}
    >>> route6_coefficient_chain(0, 3)
    {0: 0}
    """
    derivative = exp_derivative_lah(k)
    side_a = laurent_diff(stirling_weighted_moment(m), k)
    # x(x+1)...(x+m) has no constant term; the rest is (x+1)...(x+m)
    rising = rising_factorial_poly(m + 1).coeffs[1:]
    side_b = laurent_from_terms((r * _lah_bracket(derivative, i), i - k + 1) for i, r in enumerate(rising))
    if side_a != side_b:
        raise ConsistencyError(f"moment chain mismatch at m={m}, k={k}")
    return {i: exact_quotient(side_a.coeff(i - k + 1), r) for i, r in enumerate(rising)}
