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

from typing import Iterable, NamedTuple

from .exact import ConsistencyError, Scalar, factorial
from .numbers import lah, stirling1_from_rising_poly, stirling1_row


class LaurentPoly(NamedTuple):
    """Finite sum of exact coefficients times integer powers of t."""

    terms: dict[int, Scalar]

    def coeff(self, exponent: int) -> Scalar:
        return self.terms.get(exponent, 0)


def laurent_from_terms(pairs: Iterable[tuple[Scalar, int]]) -> LaurentPoly:
    """Build a Laurent polynomial from (coefficient, exponent) pairs,
    merging like powers and dropping zeros."""
    merged: dict[int, Scalar] = {}
    for c, b in pairs:
        total = merged.get(b, 0) + c
        if total:
            merged[b] = total
        else:
            merged.pop(b, None)
    return LaurentPoly(merged)


def laurent_add(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    pairs = [(c, b) for b, c in p.terms.items()]
    pairs.extend((c, b) for b, c in q.terms.items())
    return laurent_from_terms(pairs)


def laurent_diff(p: LaurentPoly) -> LaurentPoly:
    """d/dt: each c * t^b becomes c*b * t^(b-1); constants vanish."""
    return laurent_from_terms((c * b, b - 1) for b, c in p.terms.items())


class ExpLaurentExpr(NamedTuple):
    """Finite sum of terms c * u^a * t^b * exp(-u/t), keyed by (a, b)."""

    terms: dict[tuple[int, int], Scalar]


def expr_from_terms(triples: Iterable[tuple[Scalar, int, int]]) -> ExpLaurentExpr:
    """Build an expression from (coefficient, u-power, t-power) triples.

    Like terms are merged eagerly; a negative u-power is rejected because
    nothing in this calculus can produce one.
    """
    merged: dict[tuple[int, int], Scalar] = {}
    for c, a, b in triples:
        if a < 0:
            raise ValueError("u-exponent must stay non-negative")
        key = (a, b)
        total = merged.get(key, 0) + c
        if total:
            merged[key] = total
        else:
            merged.pop(key, None)
    return ExpLaurentExpr(merged)


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
    closed form: the coefficients are signed Lah numbers,

        sum over l in 0..k-1 of (-1)^l L(k, k-l) u^(k-l) t^(l-2k) exp(-u/t).
    """
    if k < 1:
        raise ValueError("derivative order must be at least 1")
    return expr_from_terms(
        ((-1) ** l * lah(k, k - l), k - l, l - 2 * k) for l in range(k)
    )


def _rising_product_u_coeffs(m: int) -> list[int]:
    # Coefficients of u(u+1)...(u+m-1): the coefficient of u^i is
    # (-1)^(m-i) s(m, i), recovered from the Stirling expansion.
    svals = stirling1_from_rising_poly(m)
    return [(-1 if (m - i) % 2 else 1) * svals[i] for i in range(m + 1)]


def rising_product_expr(m: int) -> ExpLaurentExpr:
    """u(u+1)...(u+m-1) * exp(-u/t), expanded in powers of u."""
    if m < 0:
        raise ValueError("m must be non-negative")
    coeffs = _rising_product_u_coeffs(m)
    return expr_from_terms((coeffs[i], i, 0) for i in range(m + 1))


def stirling_weighted_moment(m: int) -> LaurentPoly:
    """The u-moment of u(u+1)...(u+m-1) * exp(-u/t), written directly in
    Stirling form: sum over i of (-1)^(m-i) i! s(m, i) t^(i+1)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return laurent_from_terms(
        ((-1 if (m - i) % 2 else 1) * factorial(i) * s, i + 1)
        for i, s in enumerate(stirling1_row(m))
    )


def route6_coefficient_chain(m: int, k: int) -> dict[int, int]:
    """Differentiate the Stirling-form moment k times and match it against
    the expression built from the Lah-coefficient derivative formula.

    Side A is the k-fold t-derivative of ``stirling_weighted_moment(m)``.
    Side B multiplies ``exp_derivative_lah(k)`` by u(u+1)...(u+m-1) and
    integrates out u. The two Laurent polynomials must agree exactly; a
    mismatch means a bug somewhere in the chain, never roundoff.

    Returns, for each i in 0..m, the alternating factorial-Lah sum

        sum over l in 0..k-1 of (-1)^l (i+k-l)! L(k, k-l)

    read off the structure of side B before the Stirling weights collapse it.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 1 <= k <= m + 1:
        raise ValueError("need 1 <= k <= m + 1")

    side_a = stirling_weighted_moment(m)
    for _ in range(k):
        side_a = laurent_diff(side_a)

    derivative = exp_derivative_lah(k)
    side_b = expr_moment_u(expr_mul_u_poly(derivative, _rising_product_u_coeffs(m)))

    if side_a != side_b:
        raise ConsistencyError(f"moment chain mismatch at m={m}, k={k}")

    return {
        i: sum(c * factorial(a + i) for (a, _b), c in derivative.terms.items())
        for i in range(m + 1)
    }
