"""Command-line front end: single values, triangles, and grid verification."""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
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
    """The route names that ``--routes`` spells, unchecked: ``verify_grid``
    checks and orders them."""
    from .verify import ROUTE_NAMES

    names = ROUTE_NAMES if raw == "all" else tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    if not names:
        raise ValueError("--routes must name at least one route or be 'all'")
    return names


# The commands and their arguments, which _parse reads and _usage shows. Per
# command: its help line, and per argument (a flag, or table's kind, the one
# positional argument, which has no dashes) the attribute, how the value is
# read (int, str, or a tuple of choices) and the default, where None marks
# a required argument.
_COMMANDS = {
    "lah": ("print the Lah number L(n, k)", {"--n": ("n", int, None), "--k": ("k", int, None)}),
    "stirling1": ("print the signed Stirling number s(n, k)", {"--n": ("n", int, None), "--k": ("k", int, None)}),
    "table": ("print a full number triangle", {"kind": ("kind", ("lah", "stirling1"), None),
                                               "--max-n": ("max_n", int, None),
                                               "--format": ("fmt", ("text", "csv"), "text")}),
    "verify": ("verify the identity over a (k, n) grid",
               {"--k-min": ("k_min", int, None), "--k-max": ("k_max", int, None),
                "--n-min": ("n_min", int, None), "--n-max": ("n_max", int, None),
                "--routes": ("routes", str, "all"), "--format": ("fmt", ("text", "json", "csv"), "text"),
                "--jobs": ("jobs", int, 1)}),
}


class _Exit(Exception):
    """Ends parsing with (exit code, text): 0 and the help, for stdout, or
    2 and a usage error, for stderr."""


def _usage(command: str | None, error: str | None = None) -> _Exit:
    """The help of ``command``, or of the program for None; or, given an
    ``error``, the usage line and the error."""
    if command is None:
        about = "Exact Lah/Stirling numbers and multi-route identity verification."
        words, rows = ["{" + ",".join(_COMMANDS) + "} ..."], [(name, spec[0]) for name, spec in _COMMANDS.items()]
    else:
        about, arguments = _COMMANDS[command]
        words, rows = [command], [("-h, --help", "print this help and exit")]
        for name, (attr, read, default) in arguments.items():
            value = "{" + ",".join(read) + "}" if isinstance(read, tuple) else "INT" if read is int else attr.upper()
            spelled = f"{name} {value}" if name[0] == "-" else value
            words.append(spelled if default is None else f"[{spelled}]")
            rows.append((spelled, "required" if default is None else f"default: {default}"))
    usage = "usage: lahverify " + " ".join(words)
    if error:
        return _Exit(2, f"{usage}\nerror: {error}")
    width = max(len(name) for name, _ in rows)
    return _Exit(0, "\n".join([
        usage, "", about, "", *(f"  {name.ljust(width)}  {text}" for name, text in rows), "",
        "Flags come in any order, as --flag value or --flag=value, and any unique prefix of a flag names it;",
        "a repeated flag keeps its last value. 'lahverify <command> --help' shows a command's flags.",
    ]))


def _read(tokens: Sequence[str], command: str | None) -> list:
    """Reads each token as argparse does in Python 3.10 and 3.11, against
    the flags of ``command``, or the help flags alone for None: None for
    an argument, "--" for the first ``--`` (every token after it is an
    argument), else (flag, the value given in the token or None), where
    flag None is an unknown option. A prefix of two flags is an error."""
    flags = ("-h", "--help", *(name for name in (_COMMANDS[command][1] if command else ()) if name[0] == "-"))
    kinds: list = []
    for i, token in enumerate(tokens):
        if token == "--":
            return kinds + ["--"] + [None] * (len(tokens) - i - 1)
        name, eq, value = token.partition("=")
        if token[:1] != "-" or token == "-":
            kind = None
        elif token in flags:
            kind = (token, None)
        elif eq and name in flags:
            kind = (name, value)
        else:
            # a unique prefix names a long flag; -h, the one short flag,
            # takes the rest of its token as its value
            found = ([(flag, value if eq else None) for flag in flags if flag.startswith(name)] if token[1] == "-"
                     else [("-h", token[2:])] if token[1] == "h" else [])
            if len(found) > 1:
                raise _usage(command, f"ambiguous option: {token} could match {', '.join(f for f, _ in found)}")
            # what names no flag is an argument if it is a negative number or
            # holds a space, else an unknown option
            unknown = None if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token else (None, None)
            kind = found[0] if found else unknown
        if kind and kind[0] == "-h" and kind[1] and not kind[1].strip("h"):
            kind = ("-h", None)  # -hh is -h given twice
        kinds.append(kind)
    return kinds


def _check_help(command: str | None, value: str | None) -> None:
    if value is None:
        raise _usage(command)
    raise _usage(command, f"argument -h/--help: ignored explicit argument {value!r}")


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """Reads ``argv`` against ``_COMMANDS`` into the command and each
    attribute, as argparse did; raises ``_Exit`` for help and for usage
    errors. A flag's value follows it, or its ``=``, the last of a
    repeated flag counts, and an int is read by ``int()``."""
    kinds = _read(argv, None)
    # before the command only the help flags count; other options are
    # unrecognized
    i = 0
    while i < len(argv) and isinstance(kinds[i], tuple):
        if kinds[i][0]:
            _check_help(None, kinds[i][1])
        i += 1
    if i == len(argv) or argv[i] not in _COMMANDS:
        raise _usage(None, f"argument command: choose one of {', '.join(_COMMANDS)}")
    command, args, unknown = argv[i], argv[i + 1:], list(argv[:i])
    arguments = _COMMANDS[command][1]
    positional = next((name for name in arguments if name[0] != "-"), None)
    kinds = _read(args, command)
    # a required argument is None until it is given
    values = {"command": command, **{attr: default for attr, _, default in arguments.values()}}
    i = 0
    while i < len(args):
        kind = kinds[i]
        if isinstance(kind, tuple) and kind[0]:
            name, value = kind
            if name in ("-h", "--help"):
                _check_help(command, value)
            if value is None:
                if i + 1 == len(args) or kinds[i + 1] is not None:
                    raise _usage(command, f"argument {name}: expected one argument")
                i += 1
                value = args[i]
        elif (positional and values[arguments[positional][0]] is None
              and (kind is None or kind == "--" and i + 1 < len(args))):
            # the positional takes this argument, or the one after a "--",
            # and a "--" right after it
            if kind == "--":
                i += 1
            name, value = positional, args[i]
            if i + 1 < len(args) and kinds[i + 1] == "--":
                i += 1
        else:
            unknown.append(args[i])
            i += 1
            continue
        attr, read, _ = arguments[name]
        if isinstance(read, tuple) and value not in read:
            raise _usage(command, f"argument {name}: invalid choice: {value!r} (choose from {', '.join(read)})")
        try:
            values[attr] = value if isinstance(read, tuple) else read(value)
        except ValueError:
            raise _usage(command, f"argument {name}: invalid {read.__name__} value: {value!r}") from None
        i += 1
    missing = [name for name, (attr, _, _) in arguments.items() if values[attr] is None]
    if missing:
        raise _usage(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise _usage(command, f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**values)


def _run_table(ns: SimpleNamespace) -> int:
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
            # prefixes[k] is ",k,", made once: row n is the first to hold
            # column n, so each row adds one prefix
            prefixes: list[str] = []
            for n, row in enumerate(rows):
                prefixes.append(f",{n},")
                head = str(n)
                print("\n".join([head + prefix + str(v) for prefix, v in zip(prefixes, row)]))
        else:
            for row in rows:
                print(" ".join(map(str, row)))
    return 0


def _run_verify(ns: SimpleNamespace) -> int:
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
    # imported here, so that the other commands never load the routes
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

    0 means success (all instances verified for the verify command), or
    that the help was printed; 1 means at least one verification
    mismatch; 2 means a usage or domain error, or that memory ran out.
    """
    # exact results can exceed the interpreter's default int-to-str limit
    # of 4300 digits; the setting exists from Python 3.10.7 on
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        ns = _parse(sys.argv[1:] if argv is None else list(argv))
    except _Exit as stop:
        code, text = stop.args
        print(text, file=sys.stderr if code else sys.stdout)
        return code
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
    """Console entry point; exits 1 without a traceback when stdout or
    stderr cannot take the output (e.g. ``| head -1`` or ``>/dev/full``).

    After flushing stdout and stderr it leaves through ``os._exit``, so
    the interpreter neither clears its modules nor runs its shutdown
    collections or ``atexit`` handlers, which for a short command cost more
    than the command. ``run`` returns normally, for callers in process."""
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:
            # closed before the start (``>&-``): print would drop stdout's text
            # and send stderr's to stdout; a pipe with no reader fails instead
            read_fd, write_fd = os.pipe()
            os.close(read_fd)
            setattr(sys, name, open(write_fd, "w"))
    failed = None
    try:
        code = run(sys.argv[1:])
    except OSError as exc:
        code, failed = 1, exc
    # a closed or full stream must fail here, where it is handled; stdout is
    # flushed even after a write to stderr failed, so its report is kept
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError as exc:
            code, failed = 1, failed or exc
    # a reader that has gone takes no message; e.g. a full device gets one
    # line, if stderr can take it
    if failed and not isinstance(failed, BrokenPipeError):
        try:
            print(f"error: cannot write output: {failed.strerror or failed}", file=sys.stderr, flush=True)
        except OSError:
            pass
    os._exit(code)
