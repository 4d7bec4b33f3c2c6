"""Six independent computation routes for the alternating factorial-Lah sum.

The quantity under test is

    S(k, n) = sum over l in 1..k of (-1)^l (n+l)! L(k, l),   k >= 2, n >= 0,

which collapses to 0 for 0 <= n <= k-2 and to (-1)^k n! (n+1)! / (n-k+1)!
for n >= k-1. ``rhs_reference`` evaluates that closed form, ``lhs_direct``
evaluates the literal sum, and routes r1..r6 reach the same value through
unrelated machinery: an induction step over the Lah triangle recurrence,
the exponential generating functions of the Lah numbers, power-series
coefficient extraction, binomial inversion, a terminating Gauss
hypergeometric sum, and the two generating functions of the Stirling
numbers of the first kind. Exact agreement across all of them is the point
of the package.
"""

from __future__ import annotations

import math
import os
from itertools import accumulate, cycle, repeat
from operator import mul, ne, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from .exact import (
    ConsistencyError,
    binomial_general,
    check_factorial_fits,
    exact_quotient,
    factorial,
    rising,
)
from .numbers import lah_row, triangle_row, triangle_rows


# the fields of IdentityInstance, which needs a subclass to validate in __new__
class _KN(NamedTuple):
    k: int
    n: int


class IdentityInstance(_KN):
    """A single (k, n) parameter pair; the sum is only claimed for k >= 2."""

    __slots__ = ()

    def __new__(cls, k: int, n: int) -> IdentityInstance:
        if k < 2:
            raise ValueError("identity instances need k >= 2")
        if n < 0:
            raise ValueError("identity instances need n >= 0")
        return super().__new__(cls, k, n)


class VerificationReport(NamedTuple):
    """Reference value and per-route values for one instance.

    A route whose internal cross-check failed has the value ``None`` and
    its ``ConsistencyError`` message in ``errors``; such a report never
    has ``all_match``.
    """

    instance: IdentityInstance
    reference: int
    route_values: dict[str, int | None]
    all_match: bool
    errors: dict[str, str]


def rhs_reference(inst: IdentityInstance) -> int:
    """Closed-form value: 0 below the diagonal band, otherwise the signed
    ratio (-1)^k n! (n+1)! / (n-k+1)!, formed without a division as
    (-1)^k n! (n+1)(n)...(n-k+2), which ``math.perm`` makes 0 for n <= k-2."""
    k, n = inst.k, inst.n
    return (-1) ** k * factorial(n) * math.perm(n + 1, k)


class _Discard(dict):
    """The store outside a grid: a write keeps nothing."""

    def __setitem__(self, key: tuple[str, int], value: Sequence[int]) -> None:
        pass


# what the routes read that depends on k alone, rows "lah", "r1", "r3 factor"
# and "r6" by (name, k), each as its builder returns it, or on n alone,
# columns "r2", "r3" and "r4" by (route, n); a dict of its own while
# ``verify_grid`` runs, and _DISCARD again once it returns or raises, so
# nothing outlives a grid, and a call made outside one builds what it reads
_DISCARD = _Discard()
_STORE: dict[tuple[str, int], Sequence[int]] = _DISCARD


def _row(name: str, k: int, build: Callable[[int], tuple[int, ...]]) -> Sequence[int]:
    """Row k under ``name``: the one kept, or else ``build(k)``, kept if it
    returns; so r6's row is kept only if its check passes."""
    row = _STORE.get((name, k))
    if row is None:
        row = _STORE[name, k] = build(k)
    return row


def _factorial_sum(row: Sequence[int], n: int) -> int:
    """sum over l in 1..L of (-1)^l c_l (n+l)! for the row c_0..c_L, as
    -n! v, with v nested from the inside out: one small factor n+l per
    step, and the sign is the subtraction."""
    v = 0
    for l in range(len(row) - 1, 0, -1):
        v = (row[l] - v) * (n + l)
    return -factorial(n) * v


def lhs_direct(inst: IdentityInstance) -> int:
    """The literal alternating sum; the independent oracle for every route.
    Its terms are the closed-form row L(k, l), kept per k, times
    (-1)^l (n+l)!, l = 1..k, with (n+l)! = n! (n+1)...(n+l) built by the
    nesting of ``_factorial_sum``."""
    k, n = inst.k, inst.n
    return _factorial_sum(_row("lah", k, lah_row), n)


def binomial_inversion(values: Sequence[int]) -> list[int]:
    """The self-inverse binomial transform
    T(h)(k) = sum over l in 0..k of C(k, l) (-1)^l h(l) = ((1 - E)^k h)(0),
    with E the shift h(l) -> h(l+1). Row 0 of a difference table is h, row
    j+1 holds r(l) - r(l+1) for the entries r(l) of row j, and output k is
    the head of row k."""
    row = list(values)
    heads = []
    while row:
        heads.append(row[0])
        row = list(map(sub, row, row[1:]))
    return heads


def _check_2f1(a: int, c: int) -> None:
    # the parameters for which 2F1(a, b; c; 1) is a finite sum of finite terms
    if a > 0:
        raise ValueError("upper parameter must be a non-positive integer")
    if c < 1:
        raise ValueError("lower parameter must be a positive integer")


def hypergeom_2f1_terminating(a: int, b: int, c: int) -> tuple[int, int]:
    """Terminating 2F1(a, b; c; 1) for a <= 0, summed term by term, each
    term the previous one times (a+l)(b+l) / ((c+l)(l+1)). The
    non-positive upper parameter makes the series a finite sum, so the
    value is an exact rational, returned as an unreduced pair
    (numerator, denominator) with a positive denominator."""
    _check_2f1(a, c)
    # total / den is the sum of the terms before l, term / den is term l
    total, term, den = 0, 1, 1
    for l in range(-a + 1):
        q = (c + l) * (l + 1)
        total = (total + term) * q
        term *= (a + l) * (b + l)
        den *= q
    return total, den


def chu_vandermonde_closed(a: int, b: int, c: int) -> tuple[int, int]:
    """Closed form of the terminating 2F1 at unit argument:
    2F1(-N, b; c; 1) = (c-b)_N / (c)_N with N = -a, returned as the
    unreduced pair ((c-b)_N, (c)_N); the denominator is positive."""
    _check_2f1(a, c)
    return rising(c - b, -a), rising(c, -a)


def _route1_row(k: int) -> tuple[int, ...]:
    # L(k-1, 0..k-1) from the triangle recurrence: the row of route 1 that
    # every n shares
    return tuple(triangle_row("lah", k - 1))


def route1_induction(inst: IdentityInstance) -> int:
    """Route 1: the paper's induction step S(k, n) = (k-2-n) S(k-1, n),
    applied to row k-1 of the Lah triangle recurrence, which ``table lah``
    prints, and S(k-1, n) summed by ``_factorial_sum``. The step follows
    from the recurrence L(k, l) = L(k-1, l-1) + (k-1+l) L(k-1, l) and from
    (n+l)! (k-1+l) = (n+l+1)! - (n-k+2) (n+l)!."""
    k, n = inst.k, inst.n
    return (k - 2 - n) * _factorial_sum(_row("r1", k, _route1_row), n)


def _lah_gf_series(n: int, top: int) -> list[int]:
    """G_n = sum over l of (-1)^l C(n+l, l) y^l through x^top, where
    y = x/(1-x), by Horner in y. Multiplying a series by y shifts it by one
    power of x, and dividing by 1-x takes its prefix sums, so the series
    takes additions only. y^l starts at x^l, so the partial sum from term
    l on is needed only through x^(top-l), and each step is one longer."""
    # (-1)^l C(n+l, l) for l = 0..top as one running product; C(n+l, l) is
    # C(n+l-1, l-1) (n+l) / l, so each quotient is exact
    terms = [1]
    for l in range(1, top + 1):
        terms.append(-terms[-1] * (n + l) // l)
    series: list[int] = []
    for c in reversed(terms):
        series = [c, *accumulate(series)]
    return series


def _column(route: str, n: int, k: int, build: Callable[[int, int], list[int]]) -> Sequence[int]:
    """``route``'s column n through entry k at least: the one kept, or else
    ``build(n, k)``. r2's and r4's builds check the whole column and raise
    if the check fails, so that only a column that passed its check is
    kept; r3's column is its factor (1+x)^-(n+1), which r3 checks per
    instance through the convolution it enters."""
    column = _STORE.get((route, n))
    if column is None or k >= len(column):
        column = _STORE[route, n] = build(n, k)
    return column


def _lah_gf_column(n: int, top: int) -> list[int]:
    # r2's column n: G_n through x^top, checked against (1-x)^(n+1)
    series = _lah_gf_series(n, top)
    if series != list(map(mul, cycle((1, -1)), map(binomial_general, repeat(n + 1), range(top + 1)))):
        raise ConsistencyError(f"Lah generating function broke at n={n}")
    return series


def route2_lah_gf(inst: IdentityInstance) -> int:
    """Route 2: the exponential generating function of a Lah column,

        sum over k of L(k, l) x^k / k! = y^l / l!,   y = x/(1-x),

    weighted by (-1)^l (n+l)! and summed over l, gives

        sum over k of S(k, n) x^k / k! = n! G_n,
        G_n = sum over l of (-1)^l C(n+l, l) y^l = (1+y)^-(n+1) = (1-x)^(n+1),

    so the sum is k! n! [x^k] G_n. Column n holds G_n through x^L, compared
    once with the coefficients (-1)^j C(n+1, j) of (1-x)^(n+1), which are
    0 from j = n+2 on, so the check also pins the zero band n <= k-2. A
    column that fails its check is not kept, so every k of that n raises.
    A k > L rebuilds the column through x^k."""
    k, n = inst.k, inst.n
    return factorial(k) * factorial(n) * _column("r2", n, k, _lah_gf_column)[k]


def _route3_factor(k: int) -> tuple[int, ...]:
    # the coefficients of (1+x)^(k-1) through x^k, the factor of route 3
    # that every n shares, highest power first
    return tuple(binomial_general(k - 1, i) for i in range(k, -1, -1))


def _route3_column(n: int, top: int) -> list[int]:
    # r3's column n: the coefficients of (1+x)^-(n+1) through x^top
    return list(map(binomial_general, repeat(-(n + 1)), range(top + 1)))


def route3_convolution(inst: IdentityInstance) -> int:
    """Route 3: the coefficient of x^k in (1+x)^-(n+1) * (1+x)^(k-1) must
    equal the coefficient of x^k in (1+x)^-(n-k+2); scaling it by k! n!
    gives the sum. The factor (1+x)^(k-1) is kept per row, and column n
    holds (1+x)^-(n+1) through x^L; a k > L rebuilds it through x^k."""
    k, n = inst.k, inst.n
    # only x^k of the product is compared: sum over i of [x^i] * [x^(k-i)];
    # map stops at the end of the factor, which ends at x^0
    convolved = sum(map(mul, _column("r3", n, k, _route3_column), _row("r3 factor", k, _route3_factor)))
    if convolved != binomial_general(-(n - k + 2), k):
        raise ConsistencyError(f"convolution route broke at k={k}, n={n}")
    return convolved * factorial(k) * factorial(n)


def _inversion_column(n: int, top: int) -> list[int]:
    # r4's column n: b(0..top), its transform checked at outputs 1..top
    b = [0, -factorial(n + 1)]
    for l in range(1, top):
        b.append(exact_quotient(-b[l] * (n - l + 1), l))
    a = binomial_inversion(b)
    # T(b)(j) (j-1)! against (n+j)! for j = 1..top
    if any(map(ne, map(mul, a[1:], map(factorial, range(top))), map(factorial, range(n + 1, n + top + 1)))):
        raise ConsistencyError(f"inversion dual identity broke at k={top}, n={n}")
    return b


def route4_inversion(inst: IdentityInstance) -> int:
    """Route 4: with a(l) = (n+l)!/(l-1)! and
    b(l) = (-1)^l n! (n+1)! / ((n-l+1)! (l-1)!), check by direct summation
    that the binomial transform sends b to a; the transform is an
    involution, so it also sends a to b, and b(k) (k-1)! is the sum. b is 0
    at l = 0 and a running product from b(1) = -(n+1)!:

        b(l+1) = -b(l) (n-l+1) / l,

    so b is 0 from l = n+2 on. Every step is an exact integer quotient, and
    a remainder raises. Output j of the transform reads only b(0..j), and
    is compared with the closed form as T(b)(j) (j-1)! = (n+j)!, so the
    check for (k, n) is a prefix of the check for (K, n) when K >= k.
    Column n holds b(0..L), kept only when outputs 1..L of its transform
    all agree, so (k, n) fails exactly when an output j <= k disagrees or a
    step it needs raises. A k > L rebuilds the column through b(k)."""
    k, n = inst.k, inst.n
    return _column("r4", n, k, _inversion_column)[k] * factorial(k - 1)


def route5_hypergeom(inst: IdentityInstance) -> int:
    """Route 5: the sum equals -k! (n+1)! 2F1(1-k, n+2; 2; 1); the
    terminating series and its Chu-Vandermonde closed form are evaluated
    independently as integer pairs and must agree by cross-multiplication,
    and the scaled value must be an exact integer quotient."""
    k, n = inst.k, inst.n
    closed_num, closed_den = chu_vandermonde_closed(1 - k, n + 2, 2)
    summed_num, summed_den = hypergeom_2f1_terminating(1 - k, n + 2, 2)
    if closed_num * summed_den != summed_num * closed_den:
        raise ConsistencyError(f"hypergeometric route broke at k={k}, n={n}")
    return exact_quotient(-factorial(k) * factorial(n + 1) * closed_num, closed_den)


def _route6_row(k: int) -> tuple[int, ...]:
    # C_j = sum over l of L(k, l) s(l, j), j = 0..k, the row of route 6
    # that every n shares, with the Stirling rows 0..k from one walk of the
    # triangle recurrence; it must equal the coefficients of the product
    # x(x+1)...(x+k-1), imported here so that only r6 loads the series module
    from .series import rising_factorial_poly

    coeffs = [0] * (k + 1)
    for weight, stirling in zip(_row("lah", k, lah_row), triangle_rows("stirling1", k)):
        for j, s in enumerate(stirling):
            coeffs[j] += weight * s
    row = tuple(coeffs)
    if row != rising_factorial_poly(k).coeffs:
        raise ConsistencyError(f"Stirling generating functions broke at k={k}")
    return row


def route6_stirling(inst: IdentityInstance) -> int:
    """Route 6: expand both sides of the Lah identity

        sum over l of L(k, l) (x)_l = <x>_k

    by the two generating functions of the Stirling numbers of the first
    kind, (x)_l = sum over j of s(l, j) x^j and <x>_k = sum over j of
    |s(k, j)| x^j, and compare the coefficients once per row. The value is
    n! times the row's polynomial at x = -(n+1), by Horner, since
    n! (-(n+1))_l = (-1)^l (n+l)!."""
    k, n = inst.k, inst.n
    value = 0
    for c in reversed(_row("r6", k, _route6_row)):
        value = value * -(n + 1) + c
    return factorial(n) * value


ROUTE_FUNCTIONS: dict[str, Callable[[IdentityInstance], int]] = {
    "r1": route1_induction,
    "r2": route2_lah_gf,
    "r3": route3_convolution,
    "r4": route4_inversion,
    "r5": route5_hypergeom,
    "r6": route6_stirling,
}

ROUTE_NAMES: tuple[str, ...] = tuple(sorted(ROUTE_FUNCTIONS))


class _RouteNames(tuple):
    """Route names that ``_route_names`` has sorted and checked."""

    __slots__ = ()


def _route_names(routes: Iterable[str]) -> _RouteNames:
    """``routes`` sorted, without repeats; the one check of route names.
    Names it has already checked pass through as they are."""
    if type(routes) is _RouteNames:
        return routes
    names = _RouteNames(sorted(set(routes)))
    for name in names:
        if name not in ROUTE_FUNCTIONS:
            raise ValueError(f"unknown route {name!r} (choose from {', '.join(ROUTE_NAMES)})")
    return names


def verify_instance(inst: IdentityInstance, routes: Iterable[str] = ROUTE_NAMES) -> VerificationReport:
    """The report for one (k, n): the reference, the direct sum and every
    route. A route reads what depends on k alone from a row, and r2, r3
    and r4 read what depends on n alone from a column. Inside
    ``verify_grid`` both are kept in ``_STORE`` for the grid, a column
    through the largest k asked so far; a call made outside a grid builds
    what it reads and keeps nothing. An unknown route name raises
    ValueError; the names of a grid are checked once, by the grid. A route
    whose internal cross-check fails is reported with the value None and
    its message, not raised, and the other routes still run. all_match is
    True only if every value agrees exactly.
    """
    names = _route_names(routes)
    reference = rhs_reference(inst)
    values: dict[str, int | None] = {"lhs_direct": lhs_direct(inst)}
    errors: dict[str, str] = {}
    for name in names:
        try:
            values[name] = ROUTE_FUNCTIONS[name](inst)
        except ConsistencyError as exc:
            values[name] = None
            errors[name] = str(exc)
    all_match = all(v == reference for v in values.values())
    return VerificationReport(inst, reference, values, all_match, errors)


def _row_reports(
    rows: Iterable[int], ns: Sequence[int], route_names: Sequence[str]
) -> dict[int, list[VerificationReport]]:
    """The ``{k: reports}`` of ``rows``, one ``verify_instance`` report per
    n of ``ns``, in order: the one row loop of ``verify_grid``, run by this
    process's share, by every forked child and by ``workers._collect``."""
    return {k: [verify_instance(IdentityInstance(k, n), route_names) for n in ns] for k in rows}


# The work, in units of (n values) x (sum of k), that each worker must have
# for a fork to pay: on a 2-CPU host `--jobs 2` gains no wall time up to
# about 9,000 units and gains clearly from about 14,000 (README)
_FORK_GRAIN = 6000


def verify_grid(
    k_values: Iterable[int],
    n_values: Iterable[int],
    routes: Iterable[str] = ROUTE_NAMES,
    jobs: int = 1,
) -> list[VerificationReport]:
    """One report per (k, n), in (k, n)-lexicographic order at every job
    count. Mismatches and failed route cross-checks are reported, not
    raised. The route names and the grid's bounds are checked first: an
    unknown route, a k below 2 or a negative n raises ValueError, and a
    largest n + k whose factorial no memory holds raises OverflowError,
    before any row is dealt out or any child is forked. The grid keeps its rows
    and columns in a ``_STORE`` of its own, and leaves the store that keeps
    nothing in its place when it returns or raises, so nothing outlives
    it, also when grids overlap in threads; one that overlaps another may
    build a row or column again. Every share builds each row once and
    walks its rows largest k first, so it builds each column of r2, r3 and
    r4 once, through its largest k.

    A row (one k, every n) is the unit of work, and rows may run in any
    order. Every route sums O(k) terms per instance, so the grid's work is
    the number of n values times the sum of its k values. The rows are
    dealt out, largest k first, to min(jobs, rows, usable CPUs,
    work // _FORK_GRAIN) shares, or to one where ``os.fork`` is missing.
    So jobs is an upper bound, and a grid with less than twice the grain's
    work, or on one usable CPU (its affinity mask, where the platform has
    one), runs serially: it loads no fork code, neither ``workers`` nor
    ``pickle`` nor ``signal``. A grid of two or more shares runs them
    through ``workers.verify_shares``: this process verifies the last
    share and forks one child per other share, which sends its reports
    back through a pipe. After its own share, ``workers._collect`` brings
    back each other one: its child's reports, or else its rows verified
    here, which raise here what they raise at jobs=1. Those rows build
    each column that they read a second time, through that share's
    largest k, since the one kept stops at this process's. If the grid
    raises, it kills every child before waiting for it; while it has
    children, a SIGTERM raises ``SystemExit(143)`` here, and so takes
    that path.
    """
    global _STORE
    route_names = _route_names(routes)
    ns = sorted(set(n_values))
    rows = sorted(set(k_values)) if ns else []
    if rows:
        # every instance of the grid is valid when the one of its smallest k
        # and smallest n is
        IdentityInstance(rows[0], ns[0])
        # the direct sum's last term is (n+k)! times L(k, k) = 1
        check_factorial_fits(ns[-1] + rows[-1])
    work = len(ns) * sum(rows)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = max(1, min(jobs, len(rows), cpus, work // _FORK_GRAIN)) if hasattr(os, "fork") else 1
    # the largest k is the slowest row; dealing the rows round-robin from
    # the largest down gives every share about the same work, and this
    # process, which also unpickles every child's reports, keeps the last
    # and lightest share
    *shares, own = (rows[::-1][i::workers] for i in range(workers))
    _STORE = {}
    try:
        if shares:
            # forked children inherit the store
            from .workers import verify_shares

            by_k = verify_shares(shares, own, ns, route_names)
        else:
            by_k = _row_reports(own, ns, route_names)
    finally:
        _STORE = _DISCARD
    return [report for k in rows for report in by_k[k]]
