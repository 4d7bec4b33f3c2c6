"""Command-line front end: single values, triangles, and grid verification."""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Iterator, Sequence

from .numbers import lah, stirling1, triangle_rows

if TYPE_CHECKING:
    from .verify import VerificationReport

MISMATCH_LINES = 10
SHOWN_DIGITS = 40


def _fields(
    reports: Sequence[VerificationReport], quote: str, failed: str
) -> Iterator[tuple[str, str, str, dict[str, str], str]]:
    """Per report: k, n, the reference, the route fields by name, all_match.
    The reference is written in decimal once, and a route value equal to
    it reuses that string; a failed route's field is ``failed``."""
    for r in reports:
        reference = quote + str(r.reference) + quote
        routes = {
            name: failed if v is None else reference if v == r.reference else quote + str(v) + quote
            for name, v in r.route_values.items()
        }
        yield str(r.instance.k), str(r.instance.n), reference, routes, "true" if r.all_match else "false"


def emit_report(reports: Sequence[VerificationReport], fmt: str = "text") -> str:
    """Render verification reports; identical inputs give identical bytes.

    JSON keeps k and n as numbers but serializes the unbounded reference
    and route values as decimal strings. CSV columns are k, n, reference,
    one column per route entry, all_match. A route whose internal
    cross-check failed (value None) renders as JSON null, an empty CSV
    field, or ``rN=error`` in text.
    """
    if fmt == "json":
        # written directly, so that no command loads json: the schema is
        # fixed, and no character of it needs escaping, since route names
        # are identifiers and values are decimal strings
        return "[" + ",".join(
            f'{{"k":{k},"n":{n},"reference":{reference},"routes":{{'
            + ",".join(f'"{name}":{v}' for name, v in routes.items())
            + f'}},"all_match":{match}}}'
            for k, n, reference, routes, match in _fields(reports, '"', "null")
        ) + "]"
    if fmt == "csv":
        names = list(reports[0].route_values) if reports else []
        lines = [",".join(["k", "n", "reference", *names, "all_match"])]
        for k, n, reference, routes, match in _fields(reports, "", ""):
            lines.append(",".join([k, n, reference, *(routes[name] for name in names), match]))
        return "\n".join(lines)
    if fmt == "text":
        return "\n".join(
            " ".join([f"k={k}", f"n={n}", f"reference={reference}", *(f"{name}={v}" for name, v in routes.items()),
                      f"all_match={match}"])
            for k, n, reference, routes, match in _fields(reports, "", "error")
        )
    raise ValueError(f"unknown format {fmt!r}")


def _mismatch(expected: int, actual: int) -> str:
    # values too long to read are summarized by their size and order
    digits = [len(str(abs(v))) for v in (expected, actual)]
    if max(digits) <= SHOWN_DIGITS:
        return f"expected {expected}, got {actual}"
    order = ">" if actual > expected else "<"
    return f"expected a {digits[0]}-digit value, got a {digits[1]}-digit value, got - expected {order} 0"


def _parse_routes(raw: str) -> tuple[str, ...]:
    from .verify import ROUTE_NAMES

    if raw == "all":
        return ROUTE_NAMES
    names = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not names:
        raise ValueError("--routes must name at least one route or be 'all'")
    for name in names:
        if name not in ROUTE_NAMES:
            raise ValueError(f"unknown route {name!r} (choose from {', '.join(ROUTE_NAMES)})")
    return tuple(dict.fromkeys(names))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lahverify",
        description="Exact Lah/Stirling numbers and multi-route identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lah = sub.add_parser("lah", help="print the Lah number L(n, k)")
    p_lah.add_argument("--n", type=int, required=True)
    p_lah.add_argument("--k", type=int, required=True)

    p_stirling = sub.add_parser("stirling1", help="print the signed Stirling number s(n, k)")
    p_stirling.add_argument("--n", type=int, required=True)
    p_stirling.add_argument("--k", type=int, required=True)

    p_table = sub.add_parser("table", help="print a full number triangle")
    p_table.add_argument("kind", choices=("lah", "stirling1"))
    p_table.add_argument("--max-n", type=int, required=True, dest="max_n")
    p_table.add_argument("--format", choices=("text", "csv"), default="text", dest="fmt")

    p_verify = sub.add_parser("verify", help="verify the identity over a (k, n) grid")
    p_verify.add_argument("--k-min", type=int, required=True, dest="k_min")
    p_verify.add_argument("--k-max", type=int, required=True, dest="k_max")
    p_verify.add_argument("--n-min", type=int, required=True, dest="n_min")
    p_verify.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_verify.add_argument("--routes", default="all")
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text", dest="fmt")
    p_verify.add_argument("--jobs", type=int, default=1)
    return parser


def _run_table(ns: argparse.Namespace) -> int:
    if ns.max_n < 0:
        raise ValueError("--max-n must be non-negative")
    # printing is the command's whole job, and an int's decimal string
    # costs time quadratic in its digits: a Decimal holds base-10**19 limbs,
    # so its string is linear. The context holds every entry exactly, and
    # traps rounding, should an entry ever need more than its precision.
    # decimal is imported here, so that no other command loads it.
    from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero, Inexact,
                         InvalidOperation, Overflow, Rounded, localcontext)

    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])
    with localcontext(exact):
        # rows are printed as they are produced, so memory stays at one row
        rows = triangle_rows(ns.kind, ns.max_n, start=Decimal(1))
        if ns.fmt == "csv":
            print("n,k,value")
            for n, row in enumerate(rows):
                print("\n".join(f"{n},{k},{v!s}" for k, v in enumerate(row)))
        else:
            for row in rows:
                print(" ".join(map(str, row)))
    return 0


def _run_verify(ns: argparse.Namespace) -> int:
    if ns.k_min < 2:
        raise ValueError("verify requires --k-min >= 2")
    if ns.k_max < ns.k_min:
        raise ValueError("empty k range: --k-max must be >= --k-min")
    if ns.n_min < 0:
        raise ValueError("verify requires --n-min >= 0")
    if ns.n_max < ns.n_min:
        raise ValueError("empty n range: --n-max must be >= --n-min")
    if ns.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    # imported here, so that the other commands never load the routes and
    # the symbolic calculus
    from .verify import verify_grid

    reports = verify_grid(
        range(ns.k_min, ns.k_max + 1),
        range(ns.n_min, ns.n_max + 1),
        _parse_routes(ns.routes),
        jobs=ns.jobs,
    )
    print(emit_report(reports, ns.fmt))
    errors = [(r, name, message) for r in reports for name, message in r.errors.items()]
    mismatches = [
        (r, name, v) for r in reports for name, v in r.route_values.items() if v is not None and v != r.reference
    ]
    # each kind prints at most MISMATCH_LINES lines and one that counts the rest
    for kind, plural, found in (("error", "errors", errors), ("mismatch", "mismatches", mismatches)):
        for r, name, detail in found[:MISMATCH_LINES]:
            detail = _mismatch(r.reference, detail) if kind == "mismatch" else detail
            print(f"{kind}: {name} at k={r.instance.k}, n={r.instance.n}: {detail}", file=sys.stderr)
        if len(found) > MISMATCH_LINES:
            print(f"... and {len(found) - MISMATCH_LINES} more {plural}", file=sys.stderr)
    matched = sum(1 for r in reports if r.all_match)
    print(f"{matched}/{len(reports)} instances verified", file=sys.stderr)
    return 0 if matched == len(reports) else 1


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one CLI invocation; returns the process exit code.

    0 means success (all instances verified for the verify command), 1
    means at least one verification mismatch, 2 means a usage or domain
    error, or that memory ran out.
    """
    # exact results can exceed the interpreter's default int-to-str limit
    # of 4300 digits; the setting exists from Python 3.10.7 on
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        if ns.command == "table":
            return _run_table(ns)
        if ns.command == "verify":
            return _run_verify(ns)
        if ns.n < 0 or ns.k < 0:
            raise ValueError("--n and --k must be non-negative")
        print(lah(ns.n, ns.k) if ns.command == "lah" else stirling1(ns.n, ns.k))
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # the failed allocation's memory is free again once it unwinds to here
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    """Console entry point; exits 1 without a traceback when the reader
    of stdout or stderr closes it early (e.g. ``| head -1``).

    After flushing stdout and stderr it leaves through ``os._exit``, so
    the interpreter neither clears its modules nor runs its shutdown
    collections or ``atexit`` handlers, which for a short command cost more
    than the command. ``run`` returns normally, for callers in process."""
    try:
        code = run(sys.argv[1:])
        # a closed stream must fail here, where it is handled
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # nothing is flushed after this, so the unwritten rest is dropped
        code = 1
    os._exit(code)
