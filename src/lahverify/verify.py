"""Six independent computation routes for the alternating factorial-Lah sum.

The quantity under test is

    S(k, n) = sum over l in 1..k of (-1)^l (n+l)! L(k, l),   k >= 2, n >= 0,

which collapses to 0 for 0 <= n <= k-2 and to (-1)^k n! (n+1)! / (n-k+1)!
for n >= k-1. ``rhs_reference`` evaluates that closed form, ``lhs_direct``
evaluates the literal sum, and routes r1..r6 reach the same value through
unrelated machinery: a double-binomial convolution identity, the factorial
generating function of the Lah numbers, power-series coefficient
extraction, binomial inversion, a terminating Gauss hypergeometric sum,
and a symbolic differentiation chain over exponential moments. Exact
agreement across all of them is the point of the package.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul, sub
from types import MappingProxyType
from typing import IO, Callable, Iterable, Mapping, NamedTuple, Sequence

from .exact import (
    ConsistencyError,
    as_integer,
    binomial_general,
    exact_quotient,
    factorial,
    falling,
    rising,
)
from .numbers import lah_row
from .series import series_binomial_power
from .symbolic import route6_coefficient_chain


def _sgn(i: int) -> int:
    return -1 if i % 2 else 1


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
    has ``all_match``. The default ``errors`` is a read-only empty mapping.
    """

    instance: IdentityInstance
    reference: int
    route_values: dict[str, int | None]
    all_match: bool
    errors: Mapping[str, str] = MappingProxyType({})

    def __reduce__(self):
        # a mappingproxy cannot be pickled, and forked workers send reports back by pickle
        return VerificationReport, (
            self.instance, self.reference, self.route_values, self.all_match, dict(self.errors)
        )


def rhs_reference(inst: IdentityInstance) -> int:
    """Closed-form value: 0 below the diagonal band, otherwise the signed
    ratio (-1)^k n! (n+1)! / (n-k+1)!."""
    k, n = inst.k, inst.n
    if n <= k - 2:
        return 0
    return _sgn(k) * (factorial(n) * factorial(n + 1) // factorial(n - k + 1))


def lhs_direct(inst: IdentityInstance) -> int:
    """The literal alternating sum; the independent oracle for every route."""
    k, n = inst.k, inst.n
    row = lah_row(k)
    return sum(_sgn(l) * factorial(n + l) * row[l] for l in range(1, k + 1))


def gkp_identity(l: int, m: int, s: int, n: int) -> tuple[int, int]:
    """Both sides of the alternating double-binomial identity

        sum over i of C(l, m+i) C(s+i, n) (-1)^i = (-1)^(l+m) C(s-m, n-l)

    for l >= 0 and arbitrary integers m, s, n (identity (5.24) in
    Graham/Knuth/Patashnik, Concrete Mathematics). The sum has finite
    support 0 <= m+i <= l."""
    if l < 0:
        raise ValueError("l must be non-negative")
    lhs = sum(
        _sgn(i) * binomial_general(l, m + i) * binomial_general(s + i, n)
        for i in range(-m, l - m + 1)
    )
    rhs = _sgn(l + m) * binomial_general(s - m, n - l)
    return lhs, rhs


def chu_vandermonde_binomial(r: int, m: int, s: int, n: int) -> tuple[int, int]:
    """Both sides of the Chu-Vandermonde convolution
    sum over j of C(r, m+j) C(s, n-j) = C(r+s, m+n), for r, s >= 0."""
    if r < 0 or s < 0:
        raise ValueError("r and s must be non-negative")
    lhs = sum(
        binomial_general(r, m + j) * binomial_general(s, n - j)
        for j in range(-m, r - m + 1)
    )
    rhs = binomial_general(r + s, m + n)
    return lhs, rhs


def binomial_inversion(values: Sequence[int]) -> list[int]:
    """The self-inverse binomial transform
    T(h)(k) = sum over l in 0..k of C(k, l) (-1)^l h(l) = ((1 - E)^k h)(0),
    with E the shift h(l) -> h(l+1). Row 0 of a difference table is h, row
    j+1 holds r(l) - r(l+1) for the entries r(l) of row j, and output k is
    the head of row k."""
    out = []
    diffs = list(values)
    while diffs:
        out.append(diffs[0])
        diffs = list(map(sub, diffs, diffs[1:]))
    return out


def hypergeom_2f1_terminating(a: int, b: int, c: int) -> Fraction:
    """Terminating 2F1(a, b; c; 1) for a <= 0, summed term by term, each
    term the previous one times (a+l)(b+l) / ((c+l)(l+1)). The
    non-positive upper parameter makes the series a finite sum, so the
    value is an exact rational."""
    if a > 0:
        raise ValueError("upper parameter must be a non-positive integer")
    if c < 1:
        raise ValueError("lower parameter must be a positive integer")
    # total / den is the sum of the terms before l, term / den is term l
    total, term, den = 0, 1, 1
    for l in range(-a + 1):
        total += term
        q = (c + l) * (l + 1)
        total, term, den = total * q, term * (a + l) * (b + l), den * q
    return Fraction(total, den)


def chu_vandermonde_closed(a: int, b: int, c: int) -> Fraction:
    """Closed form of the terminating 2F1 at unit argument:
    2F1(-N, b; c; 1) = (c-b)_N / (c)_N with N = -a."""
    if a > 0:
        raise ValueError("upper parameter must be a non-positive integer")
    if c < 1:
        raise ValueError("lower parameter must be a positive integer")
    return Fraction(rising(c - b, -a), rising(c, -a))


def route1_gkp(inst: IdentityInstance) -> int:
    """Route 1: divide the sum by k! n! to get an alternating binomial sum,
    close it with the double-binomial identity at (l, m, s) = (k-1, -1, n),
    and scale back."""
    k, n = inst.k, inst.n
    # the left side, term i = l, is the reduced sum
    # sum over l in 1..k of (-1)^l C(n+l, n) C(k-1, l-1)
    reduced, closed = gkp_identity(k - 1, -1, n, n)
    if not (reduced == closed == _sgn(k) * binomial_general(n + 1, k)):
        raise ConsistencyError(f"binomial-identity route broke at k={k}, n={n}")
    return factorial(k) * factorial(n) * reduced


def route2_factorial_gf(inst: IdentityInstance) -> int:
    """Route 2: instantiate the factorial generating function of row k,

        sum over l of L(k, l) <t>_l = (-1)^k <-t>_k,

    at t = -(n+1), where n! <-(n+1)>_l = (-1)^l (n+l)! turns the row sum
    into the target and the right side collapses to a falling factorial
    that vanishes by itself whenever n <= k-2."""
    k, n = inst.k, inst.n
    n_fact = factorial(n)
    # <-(n+1)>_l for l = 0..k as one running product
    falling_row = accumulate(range(-(n + 1), -(n + 1) - k, -1), mul, initial=1)
    row_sum = n_fact * sum(map(mul, lah_row(k), falling_row))
    closed = _sgn(k) * n_fact * falling(n + 1, k)
    if row_sum != closed:
        raise ConsistencyError(f"factorial generating function broke at k={k}, n={n}")
    return closed


@lru_cache(maxsize=32)
def _route3_factor(k: int) -> tuple[int, ...]:
    # (1+x)^(k-1) through x^k, the factor of route 3 that every n shares,
    # highest power first
    return series_binomial_power(k - 1, k).coeffs[::-1]


def route3_convolution(inst: IdentityInstance) -> int:
    """Route 3: the coefficient of x^k in (1+x)^-(n+1) * (1+x)^(k-1) must
    equal the coefficient of x^k in (1+x)^-(n-k+2); scaling it by k! n!
    gives the sum."""
    k, n = inst.k, inst.n
    # only x^k of the product is compared: sum over i of [x^i] * [x^(k-i)]
    convolved = sum(map(mul, series_binomial_power(-(n + 1), k).coeffs, _route3_factor(k)))
    if convolved != binomial_general(-(n - k + 2), k):
        raise ConsistencyError(f"convolution route broke at k={k}, n={n}")
    return convolved * factorial(k) * factorial(n)


def route4_inversion(inst: IdentityInstance) -> int:
    """Route 4: with a(l) = (n+l)!/(l-1)! and
    b(l) = (-1)^l n! (n+1)! / ((n-l+1)! (l-1)!), check by direct summation
    that the binomial transform sends b to a; the transform is an
    involution, so it also sends a to b, and b(k) (k-1)! is the sum. Both
    sequences are 0 at l = 0 and running products from a(1) = -b(1) = (n+1)!:

        a(l+1) = a(l) (n+l+1) / l,   b(l+1) = -b(l) (n-l+1) / l,

    so b is 0 from l = n+2 on. Every step is an exact integer quotient, and
    a remainder raises. For even k the transform carries b(k) into a(k)
    with sign +1, so the same error in the last step of both products
    would pass it; a(k) = (n+k)!/(k-1)! is also checked against the
    rising factorial k(k+1)...(k+n)."""
    k, n = inst.k, inst.n
    n1_fact = factorial(n + 1)
    steps = range(1, k)
    a_seq = [0, *accumulate(steps, lambda a, l: exact_quotient(a * (n + l + 1), l), initial=n1_fact)]
    b_seq = [0, *accumulate(steps, lambda b, l: exact_quotient(-b * (n - l + 1), l), initial=-n1_fact)]
    if binomial_inversion(b_seq) != a_seq or a_seq[k] != rising(k, n + 1):
        raise ConsistencyError(f"inversion dual identity broke at k={k}, n={n}")
    return b_seq[k] * factorial(k - 1)


def route5_hypergeom(inst: IdentityInstance) -> int:
    """Route 5: the sum equals -k! (n+1)! 2F1(1-k, n+2; 2; 1); the
    terminating series and its Chu-Vandermonde closed form are evaluated
    independently and must agree, and the scaled value must be integral."""
    k, n = inst.k, inst.n
    closed = chu_vandermonde_closed(1 - k, n + 2, 2)
    summed = hypergeom_2f1_terminating(1 - k, n + 2, 2)
    if closed != summed:
        raise ConsistencyError(f"hypergeometric route broke at k={k}, n={n}")
    return as_integer(-factorial(k) * factorial(n + 1) * closed)


def route6_row(k: int, ns: Sequence[int]) -> dict[int, int]:
    """Route 6 for every n of one grid row: run the symbolic
    moment-differentiation chain once at m = max(k, max(ns)+1), the
    smallest order whose coefficient range covers every i = n, and read
    each bracketed sum off its i = n slot. The bracket is the target sum
    up to the sign (-1)^k from reversing the summation index. The chain
    compares its Stirling side with its Lah side once for the row."""
    brackets = route6_coefficient_chain(max(k, max(ns) + 1), k)
    return {n: _sgn(k) * brackets[n] for n in ns}


def route6_stirling(inst: IdentityInstance) -> int:
    """Route 6 at one (k, n): the one-n case of ``route6_row``."""
    return route6_row(inst.k, (inst.n,))[inst.n]


ROUTE_FUNCTIONS: dict[str, Callable[[IdentityInstance], int]] = {
    "r1": route1_gkp,
    "r2": route2_factorial_gf,
    "r3": route3_convolution,
    "r4": route4_inversion,
    "r5": route5_hypergeom,
    "r6": route6_stirling,
}

ROUTE_NAMES: tuple[str, ...] = tuple(sorted(ROUTE_FUNCTIONS))


def _outcome(route: Callable[..., int], *args) -> int | ConsistencyError:
    """The route's value, or the ConsistencyError its cross-check raised."""
    try:
        return route(*args)
    except ConsistencyError as exc:
        return exc


def verify_row(k: int, ns: Iterable[int], routes: Iterable[str] = ROUTE_NAMES) -> list[VerificationReport]:
    """One report per (k, n) for n in ``ns``, in the order given.

    The reference, the direct sum and routes r1..r5 run per instance;
    route r6 reads every n off one moment chain for the row. A route whose
    internal cross-check fails is reported with the value None and its
    message, not raised, and the other routes and instances still run.
    all_match is True only if every value agrees exactly.
    """
    names = sorted(set(routes))
    for name in names:
        if name not in ROUTE_FUNCTIONS:
            raise ValueError(f"unknown route {name!r}")
    instances = [IdentityInstance(k, n) for n in ns]
    r6_row: dict[int, int] | ConsistencyError = {}
    if "r6" in names and instances:
        r6_row = _outcome(route6_row, k, [inst.n for inst in instances])
    reports = []
    for inst in instances:
        reference = rhs_reference(inst)
        values: dict[str, int | None] = {"lhs_direct": lhs_direct(inst)}
        errors: dict[str, str] = {}
        for name in names:
            if name != "r6":
                outcome = _outcome(ROUTE_FUNCTIONS[name], inst)
            elif isinstance(r6_row, ConsistencyError):
                outcome = r6_row
            else:
                outcome = r6_row[inst.n]
            if isinstance(outcome, ConsistencyError):
                values[name] = None
                errors[name] = str(outcome)
            else:
                values[name] = outcome
        all_match = all(v == reference for v in values.values())
        reports.append(VerificationReport(inst, reference, values, all_match, errors))
    return reports


def verify_instance(inst: IdentityInstance, routes: Iterable[str] = ROUTE_NAMES) -> VerificationReport:
    """The report for one (k, n): the one-n case of ``verify_row``."""
    return verify_row(inst.k, (inst.n,), routes)[0]


def _fork_share(share: Sequence[int], ns: Sequence[int], route_names: Sequence[str]) -> tuple[int, IO[bytes]]:
    """Fork a child that verifies the rows of ``share`` and pickles
    ``("ok", {k: reports})`` or ``("raised", exc)`` into a pipe; returns
    the child's pid and the read end of the pipe."""
    import pickle

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child never returns into the caller and never flushes the
        # stdio buffers it inherited: it leaves through os._exit only
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                try:
                    result = ("ok", {k: verify_row(k, ns, route_names) for k in share})
                except Exception as exc:
                    result = ("raised", exc)
                pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    # closed before the next fork, so only this child holds the write end
    # and the pipe reads EOF as soon as it exits
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _collect(
    reader: IO[bytes], share: Sequence[int], ns: Sequence[int], route_names: Sequence[str]
) -> dict[int, list[VerificationReport]]:
    """The reports a child sent for ``share``; a child's exception is
    re-raised as it was, and rows of a child that exited without a result
    are verified here."""
    import pickle

    try:
        status, value = pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):
        return {k: verify_row(k, ns, route_names) for k in share}
    if status == "raised":
        raise value
    return value


def verify_grid(
    k_values: Iterable[int],
    n_values: Iterable[int],
    routes: Iterable[str] = ROUTE_NAMES,
    jobs: int = 1,
) -> list[VerificationReport]:
    """One report per (k, n), in (k, n)-lexicographic order.

    A row (one k, every n) is the unit of work. With jobs > 1 the rows
    are dealt out, largest k first, to min(jobs, rows, CPUs) shares: this
    process verifies the last share and forks one child per other share,
    which sends its reports back through a pipe. An exception raised in
    a child is re-raised here, and the rows of a child that exits without
    a result are verified here. Where ``os.fork`` is missing the rows run
    serially. The report order (and therefore any serialized output) is
    identical regardless of the job count. Mismatches and failed route
    cross-checks are reported, not raised.
    """
    ns = sorted(set(n_values))
    rows = sorted(set(k_values)) if ns else []
    route_names = tuple(sorted(set(routes)))
    workers = min(jobs, len(rows), os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return [report for k in rows for report in verify_row(k, ns, route_names)]
    # the largest k is the slowest row; dealing the rows round-robin from
    # the largest down gives every share about the same work, and this
    # process, which also unpickles every child's reports, keeps the last
    # and lightest share
    *shares, own = (rows[::-1][i::workers] for i in range(workers))
    children = []
    try:
        for share in shares:
            children.append((*_fork_share(share, ns, route_names), share))
        by_k = {k: verify_row(k, ns, route_names) for k in own}
        for _, reader, share in children:
            by_k.update(_collect(reader, share, ns, route_names))
    finally:
        for pid, reader, _ in children:
            reader.close()
            os.waitpid(pid, 0)
    return [report for k in rows for report in by_k[k]]
