from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lahverify
from lahverify import cli, digits
from lahverify.cli import emit_report, run
from lahverify.numbers import triangle_rows
from lahverify.verify import ROUTE_FUNCTIONS, ROUTE_NAMES, IdentityInstance, VerificationReport


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextmanager
def _int_digit_limit(digits):
    # the int-to-str digit limit at ``digits`` (0 for none) inside the block;
    # the limit exists from Python 3.10.7 on
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestScalarCommands:
    def test_lah(self, capsys):
        code, out, _ = _run(capsys, ["lah", "--n", "3", "--k", "2"])
        assert code == 0
        assert out == "6\n"

    def test_stirling1(self, capsys):
        code, out, _ = _run(capsys, ["stirling1", "--n", "4", "--k", "1"])
        assert code == 0
        assert out == "-6\n"

    def test_stirling1_deep_row(self, capsys):
        code, out, _ = _run(capsys, ["stirling1", "--n", "500", "--k", "1"])
        assert code == 0
        assert out == f"{-math.factorial(499)}\n"

    def test_lah_beyond_int_str_digit_limit(self, capsys):
        # a value of about 10400 digits, past the 4300-digit limit, which
        # run() lifts for itself and the test for its own str()
        code, out, _ = _run(capsys, ["lah", "--n", "5000", "--k", "2500"])
        assert code == 0
        expected = math.comb(4999, 2499) * (math.factorial(5000) // math.factorial(2500))
        with _int_digit_limit(0):
            assert out == f"{expected}\n"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_run_puts_back_the_int_digit_limit(self, capsys, monkeypatch):
        # run() lifts the limit while it runs, and puts back the caller's
        # value when it returns or raises
        seen = []

        def raising_lah(n, k):
            seen.append(sys.get_int_max_str_digits())
            raise RuntimeError("injected")

        with _int_digit_limit(5000):
            assert _run(capsys, ["lah", "--n", "3", "--k", "2"]) == (0, "6\n", "")
            assert sys.get_int_max_str_digits() == 5000
            monkeypatch.setattr(cli, "lah", raising_lah)
            with pytest.raises(RuntimeError, match="injected"):
                run(["lah", "--n", "3", "--k", "2"])
            assert sys.get_int_max_str_digits() == 5000
        assert seen == [0]

    def test_negative_argument_is_domain_error(self, capsys):
        code, _, err = _run(capsys, ["lah", "--n", "-1", "--k", "0"])
        assert code == 2
        assert "error:" in err


class TestTableCommand:
    def test_text_triangle(self, capsys):
        code, out, _ = _run(capsys, ["table", "lah", "--max-n", "3"])
        assert code == 0
        assert out == "1\n0 1\n0 2 1\n0 6 6 1\n"

    def test_csv_triangle(self, capsys):
        code, out, _ = _run(capsys, ["table", "stirling1", "--max-n", "2", "--format", "csv"])
        assert code == 0
        assert out.splitlines() == ["n,k,value", "0,0,1", "1,0,0", "1,1,1", "2,0,0", "2,1,-1", "2,2,1"]

    def test_negative_max_n_rejected(self, capsys):
        code, _, err = _run(capsys, ["table", "lah", "--max-n", "-2"])
        assert code == 2
        assert "error:" in err

    @staticmethod
    def _int_rendering(kind, max_n, fmt):
        rows = triangle_rows(kind, max_n)
        if fmt == "csv":
            return "".join(["n,k,value\n", *(f"{n},{k},{v}\n" for n, row in enumerate(rows) for k, v in enumerate(row))])
        return "".join(" ".join(map(str, row)) + "\n" for row in rows)

    @pytest.mark.parametrize("max_n", range(13))
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("kind", ["lah", "stirling1"])
    def test_small_tables_print_the_int_rows(self, capsys, kind, fmt, max_n):
        # row 0 alone, and the first column prefixes as they are made
        code, out, err = _run(capsys, ["table", kind, "--max-n", str(max_n), "--format", fmt])
        assert (code, err) == (0, "")
        assert out == self._int_rendering(kind, max_n, fmt)

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("kind", ["lah", "stirling1"])
    def test_decimal_rows_print_the_int_rows(self, capsys, kind, fmt):
        code, out, err = _run(capsys, ["table", kind, "--max-n", "120", "--format", fmt])
        assert (code, err) == (0, "")
        assert out == self._int_rendering(kind, 120, fmt)

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("kind", ["lah", "stirling1"])
    def test_entry_beyond_the_precision_is_never_rounded(self, capsys, monkeypatch, kind, fmt):
        # row 60 holds entries of more than 30 digits; a context that
        # rounded them would print them in exponent form
        monkeypatch.setattr(decimal, "MAX_PREC", 30)
        with pytest.raises((decimal.Rounded, decimal.Inexact)):
            run(["table", kind, "--max-n", "60", "--format", fmt])
        out = capsys.readouterr().out.splitlines()
        expected = self._int_rendering(kind, 60, fmt).splitlines()
        assert 0 < len(out) < len(expected)
        assert out == expected[: len(out)]


class TestVerifyCommand:
    def test_json_small_grid(self, capsys):
        code, out, err = _run(
            capsys,
            ["verify", "--k-min", "2", "--k-max", "3", "--n-min", "0", "--n-max", "2",
             "--routes", "r1,r5", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 6
        first = payload[0]
        assert set(first) == {"k", "n", "reference", "routes", "all_match"}
        assert isinstance(first["k"], int)
        assert isinstance(first["reference"], str)
        assert list(first["routes"]) == ["lhs_direct", "r1", "r5"]
        assert all(entry["all_match"] for entry in payload)
        assert "6/6 instances verified" in err

    def test_json_beyond_int_str_digit_limit(self, capsys):
        code, out, _ = _run(
            capsys,
            ["verify", "--k-min", "2", "--k-max", "2", "--n-min", "1600", "--n-max", "1600",
             "--routes", "r2", "--format", "json"],
        )
        assert code == 0
        [entry] = json.loads(out)
        assert entry["all_match"]
        assert len(entry["reference"]) > 4300

    def test_k_min_below_two_rejected(self, capsys):
        code, _, err = _run(capsys, ["verify", "--k-min", "1", "--k-max", "3", "--n-min", "0", "--n-max", "2"])
        assert code == 2
        assert err.strip().splitlines()[-1].startswith("error:")

    def test_empty_range_rejected(self, capsys):
        code, _, _ = _run(capsys, ["verify", "--k-min", "3", "--k-max", "2", "--n-min", "0", "--n-max", "2"])
        assert code == 2

    def test_unknown_route_rejected(self, capsys):
        code, _, err = _run(
            capsys,
            ["verify", "--k-min", "2", "--k-max", "2", "--n-min", "0", "--n-max", "0", "--routes", "r7"],
        )
        assert code == 2
        assert "unknown route" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, ["verify", "--bogus", "1"])
        assert code == 2

    def test_routes_all_includes_r6(self, capsys):
        code, out, _ = _run(
            capsys,
            ["verify", "--k-min", "2", "--k-max", "2", "--n-min", "0", "--n-max", "1",
             "--routes", "all", "--format", "json"],
        )
        assert code == 0
        routes = list(json.loads(out)[0]["routes"])
        assert routes == ["lhs_direct", "r1", "r2", "r3", "r4", "r5", "r6"]

    def test_routes_all_includes_r6_on_large_grid(self, capsys):
        code, out, _ = _run(
            capsys,
            ["verify", "--k-min", "9", "--k-max", "9", "--n-min", "0", "--n-max", "11",
             "--routes", "all", "--format", "json"],
        )
        assert code == 0
        for report in json.loads(out):
            assert list(report["routes"]) == ["lhs_direct", "r1", "r2", "r3", "r4", "r5", "r6"]

    def test_explicit_r6_always_honored(self, capsys):
        code, out, _ = _run(
            capsys,
            ["verify", "--k-min", "2", "--k-max", "2", "--n-min", "11", "--n-max", "11",
             "--routes", "r6", "--format", "json"],
        )
        assert code == 0
        assert list(json.loads(out)[0]["routes"]) == ["lhs_direct", "r6"]

    def test_injected_fault_gives_exit_one(self, capsys, monkeypatch):
        monkeypatch.setitem(ROUTE_FUNCTIONS, "r2", lambda inst: 1 + 10**8)
        code, out, err = _run(
            capsys,
            ["verify", "--k-min", "2", "--k-max", "2", "--n-min", "0", "--n-max", "1",
             "--routes", "r2", "--format", "csv", "--jobs", "1"],
        )
        assert code == 1
        assert "0/2 instances verified" in err
        assert all(line.endswith("false") for line in out.strip().splitlines()[1:])
        assert [line for line in err.splitlines() if line.startswith("mismatch:")] == [
            "mismatch: r2 at k=2, n=0: expected 0, got 100000001",
            "mismatch: r2 at k=2, n=1: expected 2, got 100000001",
        ]
        assert "mismatch" not in out

    def test_injected_huge_fault_reports_digit_counts(self, capsys, monkeypatch):
        monkeypatch.setitem(ROUTE_FUNCTIONS, "r2", lambda inst: 10**50)
        code, out, err = _run(
            capsys,
            ["verify", "--k-min", "3", "--k-max", "3", "--n-min", "2", "--n-max", "2",
             "--routes", "r1,r2", "--format", "csv", "--jobs", "1"],
        )
        assert code == 1
        assert out.splitlines()[1] == f"3,2,-12,-12,-12,{10**50},false"
        assert [line for line in err.splitlines() if line.startswith("mismatch:")] == [
            "mismatch: r2 at k=3, n=2: expected a 2-digit value, got a 51-digit value, got - expected > 0",
        ]

    def test_mismatch_lines_stop_after_ten(self, capsys, monkeypatch):
        monkeypatch.setitem(ROUTE_FUNCTIONS, "r3", lambda inst: -(10**45))
        code, out, err = _run(
            capsys,
            ["verify", "--k-min", "2", "--k-max", "3", "--n-min", "0", "--n-max", "9",
             "--routes", "r3", "--format", "text", "--jobs", "1"],
        )
        assert code == 1
        assert len(out.splitlines()) == 20
        lines = err.splitlines()
        mismatches = [line for line in lines if line.startswith("mismatch:")]
        assert len(mismatches) == 10
        assert mismatches[0] == (
            "mismatch: r3 at k=2, n=0: expected a 1-digit value, got a 46-digit value, got - expected < 0"
        )
        assert lines[-2:] == ["... and 10 more mismatches", "0/20 instances verified"]

    # workers see the patched module only when they are forked from this process
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_cross_check_gives_exit_one(self, capsys, monkeypatch, forks, jobs):
        import lahverify.verify as verify_mod

        monkeypatch.setattr(verify_mod, "chu_vandermonde_closed", lambda a, b, c: (7, 1))
        code, out, err = _run(
            capsys,
            ["verify", "--k-min", "2", "--k-max", "3", "--n-min", "0", "--n-max", "1",
             "--routes", "r5", "--format", "csv", "--jobs", jobs],
        )
        assert code == 1
        assert out.splitlines()[1:] == ["2,0,0,0,,false", "2,1,2,2,,false", "3,0,0,0,,false", "3,1,0,0,,false"]
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [
            f"error: r5 at k={k}, n={n}: hypergeometric route broke at k={k}, n={n}"
            for k in (2, 3) for n in (0, 1)
        ]
        assert "0/4 instances verified" in err
        assert len(forks) == int(jobs) - 1

    def test_wrong_stirling_weight_gives_error_line(self, capsys, monkeypatch):
        # r6 reads Stirling rows 0..k of the triangle recurrence, and row 6 is
        # the first built with the weight at (5, 2): row 5 passes, and every n
        # of row 6 fails r6's row check, not as a plain mismatch
        import lahverify.numbers as numbers_mod

        monkeypatch.setitem(numbers_mod._TRIANGLE_WEIGHTS, "stirling1",
                            lambda n, ks: [-n + ((n, k) == (5, 2)) for k in ks])
        code, out, err = _run(
            capsys,
            ["verify", "--k-min", "5", "--k-max", "6", "--n-min", "0", "--n-max", "7",
             "--routes", "r6", "--format", "csv"],
        )
        assert code == 1
        lines = out.splitlines()[1:]
        assert all(line.startswith("5,") and line.endswith(",true") for line in lines[:8])
        assert [line.split(",")[-2:] for line in lines[8:]] == [["", "false"]] * 8
        assert err.splitlines() == [
            f"error: r6 at k=6, n={n}: Stirling generating functions broke at k=6" for n in range(8)
        ] + ["8/16 instances verified"]

    def test_wrong_rising_coefficient_gives_error_line(self, capsys, monkeypatch):
        # r6 checks its row against the product x(x+1); a wrong x^2
        # coefficient fails that check, and so every n of the row
        import lahverify.series as series_mod
        from lahverify.series import Polynomial

        rising_poly = series_mod.rising_factorial_poly
        monkeypatch.setattr(series_mod, "rising_factorial_poly",
                            lambda k: Polynomial(tuple(c + (j == 2) for j, c in enumerate(rising_poly(k).coeffs))))
        code, out, err = _run(
            capsys,
            ["verify", "--k-min", "2", "--k-max", "2", "--n-min", "0", "--n-max", "3",
             "--routes", "r6", "--format", "csv"],
        )
        assert code == 1
        assert out.splitlines()[1:] == ["2,0,0,0,,false", "2,1,2,2,,false", "2,2,12,12,,false", "2,3,72,72,,false"]
        assert err.splitlines() == [
            f"error: r6 at k=2, n={n}: Stirling generating functions broke at k=2" for n in range(4)
        ] + ["0/4 instances verified"]

    @pytest.mark.parametrize("n_max", [9, 10])
    def test_error_lines_stop_after_ten(self, capsys, monkeypatch, n_max):
        # a failed row check fails every n of its row: 11 errors at
        # 0 <= n <= 10 is the smallest grid that needs the summary line
        import lahverify.series as series_mod

        rising_poly = series_mod.rising_factorial_poly
        monkeypatch.setattr(series_mod, "rising_factorial_poly", lambda k: rising_poly(k - 1))
        code, _out, err = _run(
            capsys,
            ["verify", "--k-min", "3", "--k-max", "3", "--n-min", "0", "--n-max", str(n_max),
             "--routes", "r6", "--format", "csv"],
        )
        assert code == 1
        more = ["... and 1 more errors"] if n_max == 10 else []
        assert err.splitlines() == [
            f"error: r6 at k=3, n={n}: Stirling generating functions broke at k=3" for n in range(10)
        ] + more + [f"0/{n_max + 1} instances verified"]

    GRID = ["verify", "--k-min", "2", "--k-max", "3", "--n-min", "0", "--n-max", "4",
            "--routes", "r1,r4", "--format", "csv"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
    @pytest.mark.parametrize("bad_k", [2, 3])
    def test_worker_exception_reaches_the_parent(self, capsys, monkeypatch, forks, bad_k):
        # with two rows and two workers row 2 runs in this process and row 3
        # in a child, so bad_k covers both; a child that raises sends
        # nothing, and this process verifies its row and raises in turn
        import lahverify.verify as verify_mod

        verify_instance = verify_mod.verify_instance
        parent = os.getpid()
        rows_here = []

        def raising_instance(inst, routes):
            if os.getpid() == parent and inst.k not in rows_here:
                rows_here.append(inst.k)
            if inst.k == bad_k:
                raise ValueError(f"no row {inst.k}")
            return verify_instance(inst, routes)

        monkeypatch.setattr(verify_mod, "verify_instance", raising_instance)
        serial = _run(capsys, self.GRID + ["--jobs", "1"])
        rows_here.clear()
        assert _run(capsys, self.GRID + ["--jobs", "2"]) == serial == (2, "", f"error: no row {bad_k}\n")
        # this process stops at its own row 2 if that raises, and else goes
        # on to verify the child's row 3 again
        assert rows_here == ([2] if bad_k == 2 else [2, 3])
        assert len(forks) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
    def test_memory_error_only_in_a_worker_costs_only_time(self, capsys, monkeypatch, forks):
        # a child that runs out of memory sends nothing, and this process,
        # which has the memory, verifies the child's row as at --jobs 1
        import lahverify.verify as verify_mod

        verify_instance = verify_mod.verify_instance
        parent = os.getpid()
        here = []

        def starved_instance(inst, routes):
            if os.getpid() != parent:
                raise MemoryError
            here.append(tuple(inst))
            return verify_instance(inst, routes)

        monkeypatch.setattr(verify_mod, "verify_instance", starved_instance)
        serial = _run(capsys, self.GRID + ["--jobs", "1"])
        here.clear()
        assert _run(capsys, self.GRID + ["--jobs", "2"]) == serial
        assert serial[0] == 0
        assert serial[2] == "10/10 instances verified\n"
        assert len(forks) == 1
        # the child raised, so its row 3 was verified again in this process
        assert sorted(here) == [(k, n) for k in (2, 3) for n in range(5)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
    def test_rows_of_a_worker_that_dies_are_verified_here(self, capsys, monkeypatch, forks):
        import lahverify.verify as verify_mod

        verify_instance = verify_mod.verify_instance
        parent = os.getpid()
        rows_here = []

        def dying_instance(inst, routes):
            if os.getpid() != parent:
                os._exit(9)
            if inst.k not in rows_here:
                rows_here.append(inst.k)
            return verify_instance(inst, routes)

        serial = _run(capsys, self.GRID + ["--jobs", "1"])
        monkeypatch.setattr(verify_mod, "verify_instance", dying_instance)
        assert _run(capsys, self.GRID + ["--jobs", "2"]) == serial
        assert serial[0] == 0
        assert len(forks) == 1
        # the child's row was verified again in this process
        assert sorted(rows_here) == [2, 3]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
    @pytest.mark.parametrize("failing", ["fork", "pipe"])
    def test_rows_of_a_worker_that_cannot_start_are_verified_here(self, capsys, monkeypatch, forks, failing):
        import errno

        import lahverify.verify as verify_mod

        pipe = os.pipe
        opened = []
        attempts = []

        def recorded_pipe():
            attempts.append("pipe")
            if failing == "pipe":
                raise OSError(errno.EMFILE, "Too many open files")
            fds = pipe()
            opened.extend(fds)
            return fds

        def failing_fork():
            attempts.append("fork")
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        serial = _run(capsys, self.GRID + ["--jobs", "1"])
        monkeypatch.setattr(verify_mod.os, "pipe", recorded_pipe)
        monkeypatch.setattr(verify_mod.os, "fork", failing_fork)
        assert _run(capsys, self.GRID + ["--jobs", "2"]) == serial
        assert serial[0] == 0
        # the grid took the fork path, and the one child failed to start
        assert attempts == (["pipe", "fork"] if failing == "fork" else ["pipe"])
        assert len(opened) == (2 if failing == "fork" else 0)
        for fd in opened:
            with pytest.raises(OSError):
                os.fstat(fd)


def _build_parser() -> argparse.ArgumentParser:
    # the argparse parser the CLI used before its table of commands: the
    # reference that the table's reading of argv is checked against
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


# argparse of Python 3.13 reads "--" and a value given to -h otherwise;
# the table reads argv as 3.10 and 3.11 do, which are the reference
_SAME_ARGPARSE = sys.version_info[:2] in {(3, 10), (3, 11)}


def _argparse_result(argv):
    """(exit code, attributes or None) of the reference parser."""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            return 0, vars(_build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, None


def _table_result(argv):
    """(exit code, attributes or None) of the CLI's parser; checked
    against the reference where that reads argv the same way."""
    try:
        result = 0, vars(cli._parse(argv))
    except cli._Exit as stop:
        result = stop.args[0], None
    if _SAME_ARGPARSE:
        assert result == _argparse_result(argv)
    return result


def _spellings(flag):
    # the flag and each of its prefixes from "--" and one letter on
    return [flag[:end] for end in range(3, len(flag) + 1)]


_ALL_FLAGS = sorted({flag for _, arguments in cli._COMMANDS.values() for flag in arguments if flag[0] == "-"})
_INTS = st.one_of(st.integers(-30, 30).map(str), st.sampled_from(
    ["+5", "5_0", "-1_0", " 7 ", "07", "x", "", "1.5", "-.5", "-1e3", "٣", "-", "-5 ", "- 5"]))
_WORDS = st.sampled_from(["lah", "stirling1", "text", "csv", "json", "yaml", "r1", "r2,r6", "all", "r7", "-x y", ""])
_VALUES = st.one_of(_INTS, _WORDS)
_FLAGS = st.one_of(
    st.sampled_from(_ALL_FLAGS).flatmap(lambda flag: st.sampled_from(_spellings(flag))),
    st.sampled_from(["-h", "--help", "--he", "--h", "-hh", "-hx", "-h=h", "-h=", "--help=1", "--bogus", "-x",
                     "--", "-", "---", "--=1", "-h1"]),
)
# "--flag=--" is left out: there argparse stores the empty list (see
# test_explicit_double_dash_is_a_value)
_EQUALS = st.tuples(_FLAGS, _VALUES).map(lambda pair: "=".join(pair))
_TOKENS = st.one_of(st.sampled_from([*cli._COMMANDS, "tab", "Lah"]), _FLAGS, _VALUES, _EQUALS)


@st.composite
def _invocations(draw):
    """A command with each argument given zero to two times, a required
    one mostly once and a flag as one token or two, in any order, and
    now and then a stray token."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    groups = []
    for name, (_, read, default) in cli._COMMANDS[command][1].items():
        times = draw(st.sampled_from([1, 1, 1, 1, 2, 0] if default is None else [0, 1, 2]))
        for _ in range(times):
            value = draw(_INTS if read is int else st.sampled_from([*read, "yaml"]) if isinstance(read, tuple)
                         else _WORDS)
            if name[0] != "-":
                groups.append([value])
                continue
            spelling = draw(st.sampled_from(_spellings(name)))
            groups.append([f"{spelling}={value}"] if draw(st.booleans()) else [spelling, value])
    argv = [command, *(token for group in draw(st.permutations(groups)) for token in group)]
    for token in draw(st.lists(_TOKENS, max_size=1 if draw(st.booleans()) else 0)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


class TestArguments:
    """The table of commands reads argv as the argparse parser did: the
    same attributes, or exit 2 where argparse refused, or 0 for help."""

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--jobs", "2", "--n-max=3", "--k-min", "2", "--n-min=0", "--k-max", "3"], 0),
        (["verify", "--k-min=2", "--k-max=3", "--n-min=0", "--n-max=1", "--rout", "r1", "--form=csv"], 0),
        (["table", "--max", "3", "lah"], 0),
        (["lah", "--n", "3", "--k", "2"], 0),
        (["lah", "--n=3", "--k=2"], 0),
        (["verify", "--n", "0", "--k-min", "2", "--k-max", "3", "--n-max", "1"], 2),
        (["verify", "--k-m", "2", "--k-max", "3", "--n-min", "0", "--n-max", "1"], 2),
        (["verify", "--k-min", "2", "--k-max", "3", "--n=0", "--n-max", "1"], 2),
        (["lah", "--n", "1", "--k", "1", "--n", "4"], 0),
        (["lah", "--n", "+5", "--k", "5_0"], 0),
        (["lah", "--n", "-1", "--k", "-20"], 0),
        (["lah", "--n", "-1_0", "--k", "1"], 2),
        (["lah", "--n", "3", "--k"], 2),
        (["lah", "--n", "--k", "3"], 2),
        (["lah", "--n", "3", "--k", "2", "--bogus", "1"], 2),
        (["--bogus", "lah", "--n", "3", "--k", "2"], 2),
        (["table", "lah", "stirling1", "--max-n", "3"], 2),
        (["lah", "x", "--n", "1", "--k", "1"], 2),
        (["lah", "--n", "x", "--k", "1"], 2),
        (["lah", "--n", "1.5", "--k", "1"], 2),
        (["table", "tree", "--max-n", "3"], 2),
        (["table", "lah", "--max-n", "3", "--format", "json"], 2),
        (["verify", "--k-min", "2", "--k-max", "3", "--n-min", "0"], 2),
        (["table", "--max-n", "3"], 2),
        (["lah"], 2),
        ([], 2),
        (["tab", "lah", "--max-n", "3"], 2),
        (["table", "--format", "csv", "stirling1", "--max-n", "2"], 0),
        (["table", "--max-n", "2", "--", "lah"], 0),
        (["table", "--max-n", "2", "lah", "--"], 0),
        (["lah", "--n", "1", "--k", "1", "--"], 2),
        (["--help"], 0),
        (["--he", "--bogus"], 0),
        (["table", "--j", "-h"], 0),
        (["verify", "-h"], 0),
        (["table", "-hh"], 0),
        (["table", "-hx"], 2),
        (["lah", "--help=1"], 2),
        (["lah", "--n", "x", "-h"], 2),
        (["lah", "-h", "--n", "x"], 0),
        (["verify", "-h", "--n", "1"], 2),
    ])
    def test_examples(self, argv, code):
        assert _table_result(argv)[0] == code

    @pytest.mark.skipif(not _SAME_ARGPARSE, reason="the reference reads argv as argparse of Python 3.10 and 3.11")
    @settings(max_examples=400, deadline=None)
    @given(_invocations())
    def test_invocations_as_argparse(self, argv):
        _table_result(argv)

    @pytest.mark.skipif(not _SAME_ARGPARSE, reason="the reference reads argv as argparse of Python 3.10 and 3.11")
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_TOKENS, max_size=8))
    def test_any_tokens_as_argparse(self, argv):
        _table_result(argv)

    @pytest.mark.parametrize("argv", [
        ["table", "lah", "--max-n", "2", "--format=--"],
        ["lah", "--n=--", "--k", "1"],
        ["verify", "--k-min", "2", "--k-max", "2", "--n-min", "0", "--n-max", "0", "--routes=--"],
    ])
    def test_explicit_double_dash_is_a_value(self, capsys, argv):
        # argparse drops a "--" given after "=" and stores [], which
        # printed the text table, or raised a TypeError for an int; the
        # table reads "--" as the value, which no flag accepts
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith("error:")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["lah", "--help"], ["stirling1", "-h"], ["table", "-h"],
                                      ["verify", "--help"], ["verify", "--k-min", "2", "--he"]])
    def test_help_shows_commands_and_defaults(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        usage = out.splitlines()[0]
        assert usage.startswith("usage: lahverify ")
        if len(argv) == 1:
            assert usage == "usage: lahverify {lah,stirling1,table,verify} ..."
            for line in ("print the Lah number L(n, k)", "print the signed Stirling number s(n, k)",
                         "print a full number triangle", "verify the identity over a (k, n) grid"):
                assert line in out
            return
        # one line per argument, with its default or "required"
        lines = out.splitlines()
        for name, (_, read, default) in cli._COMMANDS[argv[0]][1].items():
            spelled = name if name[0] == "-" else "{" + ",".join(read) + "}"
            assert spelled in usage
            [line] = [line for line in lines if line.split()[:1] == [spelled]]
            assert line.endswith("required" if default is None else f"default: {default}")

    def test_usage_error_lines(self, capsys):
        code, out, err = _run(capsys, ["verify", "--bogus", "1"])
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "usage: lahverify verify --k-min INT --k-max INT --n-min INT --n-max INT [--routes ROUTES]"
            " [--format {text,json,csv}] [--jobs INT]",
            "error: the following arguments are required: --k-min, --k-max, --n-min, --n-max",
        ]


class TestEmitReport:
    def _single_report(self):
        return VerificationReport(IdentityInstance(2, 1), 2, {"r1": 2}, True, {})

    def test_json_byte_exact_schema(self):
        expected = '[{"k":2,"n":1,"reference":"2","routes":{"r1":"2"},"all_match":true}]'
        assert emit_report([self._single_report()], "json") == expected

    def test_empty_reports(self):
        assert emit_report([], "json") == "[]"
        assert emit_report([], "csv") == "k,n,reference,all_match"
        assert emit_report([], "text") == ""

    def test_csv_row(self):
        report = VerificationReport(IdentityInstance(5, 4), -2880, {"lhs_direct": -2880, "r1": -2880}, True, {})
        out = emit_report([report], "csv")
        assert out.splitlines() == [
            "k,n,reference,lhs_direct,r1,all_match",
            "5,4,-2880,-2880,-2880,true",
        ]

    def test_text_line(self):
        out = emit_report([self._single_report()], "text")
        assert out == "k=2 n=1 reference=2 r1=2 all_match=true"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "yaml")

    def test_failed_route_rendering(self):
        report = VerificationReport(IdentityInstance(2, 1), 2, {"lhs_direct": 2, "r5": None}, False,
                                    {"r5": "broke"})
        assert emit_report([report], "json") == (
            '[{"k":2,"n":1,"reference":"2","routes":{"lhs_direct":"2","r5":null},"all_match":false}]'
        )
        assert emit_report([report], "csv").splitlines()[1] == "2,1,2,2,,false"
        assert emit_report([report], "text") == "k=2 n=1 reference=2 lhs_direct=2 r5=error all_match=false"

    def test_byte_stable(self):
        reports = [self._single_report()]
        assert emit_report(reports, "json") == emit_report(reports, "json")

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_one_decimal_conversion_per_value(self, fmt):
        # a report whose routes all match converts its reference only; a
        # mismatching route value converts once more
        converted = Counter()

        class Counted(int):
            def __str__(self):
                converted[int(self)] += 1
                return super().__str__()

        ref, other, wrong1, wrong2 = (-(10**60) - i for i in range(4))
        rows = [
            (IdentityInstance(3, 4), ref, {"lhs_direct": ref, "r1": ref, "r4": ref, "r5": ref}, True),
            (IdentityInstance(3, 5), other, {"lhs_direct": other, "r1": wrong1, "r4": wrong2, "r5": None}, False),
        ]
        plain = [VerificationReport(inst, r, values, match, {}) for inst, r, values, match in rows]
        counted = [
            VerificationReport(
                inst, Counted(r), {name: None if v is None else Counted(v) for name, v in values.items()}, match, {}
            )
            for inst, r, values, match in rows
        ]
        assert emit_report(counted, fmt) == emit_report(plain, fmt)
        assert converted == {ref: 1, other: 1, wrong1: 1, wrong2: 1}

    VALUES = st.one_of(st.none(), st.integers(), st.integers(-10**400, -10**200))
    REPORTS = st.lists(st.builds(
        VerificationReport,
        st.builds(IdentityInstance, st.integers(2, 10**6), st.integers(0, 10**6)),
        st.one_of(st.integers(), st.integers(-10**400, -10**200)),
        st.dictionaries(st.sampled_from(("lhs_direct", *ROUTE_NAMES)), VALUES),
        st.booleans(),
        st.builds(dict),
    ), max_size=4)

    @given(REPORTS)
    def test_json_equals_json_module(self, reports):
        # the writer spells out the schema that json.dumps gave
        payload = [
            {
                "k": r.instance.k,
                "n": r.instance.n,
                "reference": str(r.reference),
                "routes": {name: None if v is None else str(v) for name, v in r.route_values.items()},
                "all_match": r.all_match,
            }
            for r in reports
        ]
        assert emit_report(reports, "json") == json.dumps(payload, separators=(",", ":"))


class TestDeterminism:
    ARGV = ["verify", "--k-min", "2", "--k-max", "4", "--n-min", "0", "--n-max", "5",
            "--routes", "r1,r3,r4", "--format", "csv"]

    def test_jobs_do_not_change_output(self, capsys, forks):
        code_a, out_a, _ = _run(capsys, self.ARGV + ["--jobs", "1"])
        code_b, out_b, _ = _run(capsys, self.ARGV + ["--jobs", "4"])
        assert code_a == code_b == 0
        assert out_a == out_b
        # four jobs on two CPUs
        assert len(forks) == 1

    def test_jobs_do_not_change_r6_output(self, capsys, forks):
        argv = ["verify", "--k-min", "2", "--k-max", "7", "--n-min", "0", "--n-max", "12",
                "--routes", "r2,r6", "--format", "json"]
        code_a, out_a, _ = _run(capsys, argv + ["--jobs", "1"])
        code_b, out_b, _ = _run(capsys, argv + ["--jobs", "2"])
        assert code_a == code_b == 0
        assert out_a == out_b
        assert len(forks) == 1


class TestLongDecimal:
    # values on either side of 10^m, around the sizes where the writer
    # converts a part directly (2^128) and where the scalar commands start
    # to use it (2^(2^15)), and far above both
    VALUES = [0, 1, -1, *(sign * (10**m + d) for m in (1, 19, 38, 39, 40, 100, 1000, 9864, 20000)
                          for d in (-1, 0, 1) for sign in (1, -1))]

    @pytest.fixture(autouse=True)
    def no_digit_limit(self):
        # str() of the reference values may exceed the default digit limit
        with _int_digit_limit(0):
            yield

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: f"{'-' if v < 0 else ''}{v.bit_length()}bits")
    def test_writes_what_str_writes(self, value):
        assert digits.write_int(value) == str(value)

    @given(st.integers(-(2**3000), 2**3000))
    def test_writes_any_int_as_str(self, value):
        assert digits.write_int(value) == str(value)

    # the writer enters the exact context itself, so a caller's context,
    # however short its precision, rounds no digit and is left as it was
    @pytest.mark.parametrize("value", VALUES, ids=lambda v: f"{'-' if v < 0 else ''}{v.bit_length()}bits")
    def test_writes_what_str_writes_in_a_10_digit_context(self, value):
        with decimal.localcontext(decimal.Context(prec=10)) as context:
            assert digits.write_int(value) == str(value)
            assert decimal.getcontext() is context and context.prec == 10

    @given(st.integers(-(2**3000), 2**3000))
    def test_writes_any_int_as_str_in_a_10_digit_context(self, value):
        with decimal.localcontext(decimal.Context(prec=10)):
            assert digits.write_int(value) == str(value)

    def test_writes_a_value_past_the_default_precision_outside_any_context(self):
        # 61 digits, where the default context holds 28
        assert digits.write_int(2**200 + 12345) == str(2**200 + 12345)

    def test_scalar_commands_write_long_values_by_it(self, capsys, monkeypatch):
        calls = []
        writer = digits.write_int
        monkeypatch.setattr(digits, "write_int", lambda v: calls.append(v.bit_length()) or writer(v))
        code, out, _ = _run(capsys, ["lah", "--n", "5000", "--k", "1"])
        assert code == 0 and out == f"{math.factorial(5000)}\n"
        code, out, _ = _run(capsys, ["stirling1", "--n", "4000", "--k", "3"])
        assert code == 0 and out.startswith("-") and len(out) > 12000
        code, out, _ = _run(capsys, ["lah", "--n", "30", "--k", "1"])
        assert code == 0 and out == f"{math.factorial(30)}\n"
        assert len(calls) == 2 and min(calls) > cli._SHORT_BITS


def _fresh_env() -> dict[str, str]:
    src = str(Path(lahverify.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src}


def _block_buffered_env() -> dict[str, str]:
    # stdout block buffered, as it is by default for a pipe
    return {name: value for name, value in _fresh_env().items() if name != "PYTHONUNBUFFERED"}


def _loaded_by(*args: str) -> set[str]:
    """Modules a fresh interpreter imports to run ``args`` beyond those it
    imports to run ``-c pass``, as ``-X importtime`` lists them."""

    def imported(argv):
        out = subprocess.run([sys.executable, "-X", "importtime", *argv], env=_fresh_env(),
                             capture_output=True, text=True, check=True)
        return {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")}

    return imported(args) - imported(["-c", "pass"])


def test_cli_import_leaves_workers_out():
    # fresh interpreters, since this one has imported the whole package
    assert not {name for name in _loaded_by("-c", "import lahverify") if name.startswith("lahverify.")}
    loaded = _loaded_by("-c", "import lahverify.cli")
    assert "lahverify.numbers" in loaded
    assert not loaded & {"concurrent.futures", "json", "lahverify.verify", "lahverify.symbolic", "lahverify.oracles",
                         "dataclasses", "decimal"}
    assert "dataclasses" not in _loaded_by("-c", "import lahverify.verify")
    # the table of commands reads argv, so no command loads argparse, or
    # gettext and locale behind it
    parser = {"argparse", "gettext", "locale"}
    for argv in (["table", "lah", "--max-n", "3"], ["lah", "--n", "3", "--k", "2"],
                 ["stirling1", "--n", "3", "--k", "2"]):
        command = _loaded_by("-m", "lahverify", *argv)
        assert "lahverify.cli" in command
        assert not command & {"lahverify.verify", "lahverify.symbolic", "lahverify.series", "lahverify.oracles",
                              "lahverify.workers", "fractions", "dataclasses", "signal", *parser}
        # only a long value loads the decimal writer
        assert "lahverify.digits" not in command
        # only the table command holds its entries in a decimal radix
        assert ("decimal" in command) == (argv[0] == "table")
    grid = ["-m", "lahverify", "verify", "--k-min", "2", "--k-max", "3", "--n-min", "0", "--n-max", "2"]
    parallel = _loaded_by(*grid, "--routes", "r1", "--jobs", "2")
    assert "lahverify.verify" in parallel
    # too little work to fork for, so nothing is pickled and no SIGTERM
    # handler is set; the fork path's imports are checked by
    # test_fork_only_from_twice_the_grain
    assert not parallel & {"concurrent.futures", "multiprocessing", "decimal", "pickle", "signal",
                           "lahverify.workers", "lahverify.oracles", *parser}
    r1_to_r5 = _loaded_by(*grid, "--routes", "r1,r2,r3,r4,r5", "--format", "json")
    assert "lahverify.verify" in r1_to_r5
    assert not r1_to_r5 & {"fractions", "json", "lahverify.symbolic", "lahverify.series", "decimal",
                           "lahverify.digits", "signal"}
    r6 = _loaded_by(*grid, "--routes", "r6")
    assert "lahverify.series" in r6
    assert not r6 & {"lahverify.symbolic", "decimal", "signal", *parser}
    # a band of the benchmark's accept-all6 grid, serial: it compiles
    # neither the fork path nor the oracles
    band = _loaded_by("-m", "lahverify", "verify", "--k-min", "2", "--k-max", "5", "--n-min", "0", "--n-max", "30",
                      "--routes", "r1,r2,r3,r4,r5,r6", "--format", "json", "--jobs", "1")
    assert {"lahverify.verify", "lahverify.series"} <= band
    assert not band & {"lahverify.workers", "lahverify.oracles", "pickle", "signal"}
    # on two usable CPUs, a grid of more than twice the grain's work forks,
    # and only then loads the fork path
    if hasattr(os, "fork"):
        forked = _loaded_by("-c", _FORK_REPORTING_CLI, "verify", "--k-min", "2", "--k-max", "25", "--n-min", "0",
                            "--n-max", "50", "--routes", "r1", "--jobs", "2")
        assert {"lahverify.workers", "pickle", "signal"} <= forked
        assert "lahverify.oracles" not in forked


def test_moved_names_forward_to_the_oracles():
    # numbers and series forward only the five names that the benchmark's
    # tracer reads through them, each as the oracles object; verify forwards
    # none, and every oracle name still resolves on the package
    from lahverify import numbers, oracles, series, verify

    assert numbers._MOVED == {"lah_triangle", "stirling1_triangle", "stirling1_from_rising_poly"}
    assert series._MOVED == {"series_mul", "series_binomial_power"}
    for module in (numbers, series):
        for name in module._MOVED:
            assert getattr(module, name) is getattr(oracles, name), (module.__name__, name)
        with pytest.raises(AttributeError, match="lah_bruteforce"):
            module.lah_bruteforce
    assert not hasattr(verify, "__getattr__")
    assert not hasattr(verify, "gkp_identity")
    for name, module in lahverify._SUBMODULE.items():
        if module == "oracles":
            assert getattr(lahverify, name) is getattr(oracles, name)


def test_public_names_resolve_on_access():
    from lahverify import numbers, verify

    assert lahverify.lah is numbers.lah
    assert lahverify.verify_grid is verify.verify_grid
    namespace: dict = {}
    exec("from lahverify import *", namespace)
    assert set(lahverify.__all__) <= set(namespace)
    assert set(lahverify.__all__) <= set(dir(lahverify))
    with pytest.raises(AttributeError):
        lahverify.no_such_name


# the CLI on two usable CPUs, writing "forked" to stderr for each child
_FORK_REPORTING_CLI = """
import os
from lahverify.cli import main
os.sched_getaffinity = lambda pid: {0, 1}
fork = os.fork
def reporting_fork():
    pid = fork()
    if pid:
        os.write(2, b"forked\\n")
    return pid
os.fork = reporting_fork
main()
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
def test_forked_workers_print_nothing():
    # a child that returned into the CLI, or flushed the stdout buffer it
    # inherited, would repeat report lines; the acceptance grid has the
    # work to fork one child
    from lahverify.verify import _FORK_GRAIN

    assert 51 * sum(range(2, 26)) >= 2 * _FORK_GRAIN
    env = _block_buffered_env()
    argv = [sys.executable, "-c", _FORK_REPORTING_CLI, "verify", "--k-min", "2", "--k-max", "25", "--n-min", "0",
            "--n-max", "50", "--routes", "r1,r2", "--format", "text"]
    serial, parallel = (subprocess.run(argv + ["--jobs", jobs], env=env, capture_output=True, text=True, timeout=120)
                        for jobs in ("1", "2"))
    lines = parallel.stdout.splitlines()
    assert len(lines) == len(set(lines)) == 24 * 51
    assert (parallel.returncode, parallel.stdout, parallel.stderr) == (
        0, serial.stdout, "forked\n1224/1224 instances verified\n"
    )
    assert (serial.returncode, serial.stderr) == (0, "1224/1224 instances verified\n")


# the CLI with route r1 raising the interrupt that SIGINT raises
_INTERRUPTED_CLI = """
from lahverify import verify
from lahverify.cli import main
def interrupted(inst):
    raise KeyboardInterrupt
verify.ROUTE_FUNCTIONS["r1"] = interrupted
main()
"""


def test_interrupt_exits_130_with_one_line():
    argv = [sys.executable, "-c", _INTERRUPTED_CLI, "verify", "--k-min", "2", "--k-max", "3", "--n-min", "0",
            "--n-max", "2", "--routes", "r1,r2"]
    done = subprocess.run(argv, env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (130, "", "error: interrupted\n")


# the CLI on two usable CPUs at a fork grain of 1, with route r1 blocking
# in the child only; it writes the child's pid to stderr, and a line once
# the parent waits for the child's reports
_TERMINATED_CLI = """
import os, time
from lahverify import verify, workers
from lahverify.cli import main
os.sched_getaffinity = lambda pid: {0, 1}
verify._FORK_GRAIN = 1
parent = os.getpid()
fork = os.fork
def reporting_fork():
    pid = fork()
    if pid:
        os.write(2, b"forked %d\\n" % pid)
    return pid
os.fork = reporting_fork
collect = workers._collect
def reporting_collect(*args):
    os.write(2, b"collecting\\n")
    return collect(*args)
workers._collect = reporting_collect
route1 = verify.ROUTE_FUNCTIONS["r1"]
def blocked_in_the_child(inst):
    if os.getpid() != parent:
        time.sleep(60)
    return route1(inst)
verify.ROUTE_FUNCTIONS["r1"] = blocked_in_the_child
main()
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
def test_sigterm_exits_143_with_one_line_and_no_child():
    argv = [sys.executable, "-c", _TERMINATED_CLI, "verify", "--k-min", "2", "--k-max", "3", "--n-min", "0",
            "--n-max", "0", "--routes", "r1", "--jobs", "2"]
    proc = subprocess.Popen(argv, env=_fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child = None
    try:
        forked = proc.stderr.readline()
        assert forked.startswith(b"forked ")
        child = int(forked.split()[1])
        assert proc.stderr.readline() == b"collecting\n"
        start = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        assert time.monotonic() - start < 1
        # the grid killed and reaped its child before it exited, so no
        # process holds the pipes open
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (143, b"", b"error: terminated\n")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        if child is not None:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass


# indices whose value no memory holds, past the C integer limit of a 64-bit
# build, just inside it, and at 10^17, whose value needs more than 340 PB,
# where the commands would otherwise run without end: L(n, k) and |s(n, k)|
# are at least (n-k)!, and the grid's direct sum forms (n+k)!
@pytest.mark.parametrize("argv", [
    ["lah", "--n", "9223372036854775809", "--k", "1"],
    ["lah", "--n", "9223372036854775807", "--k", "1"],
    ["lah", "--n", "9223372036854775808", "--k", "1"],
    ["stirling1", "--n", "9223372036854775809", "--k", "1"],
    ["verify", "--k-min", "9223372036854775809", "--k-max", "9223372036854775809", "--n-min", "0", "--n-max", "0",
     "--routes", "r5"],
    ["verify", "--k-min", "2", "--k-max", "2", "--n-min", "9223372036854775807", "--n-max", "9223372036854775807",
     "--routes", "r5"],
    ["verify", "--k-min", "9223372036854775807", "--k-max", "9223372036854775807", "--n-min", "0", "--n-max", "0",
     "--routes", "r5"],
    ["lah", "--n", "100000000000000000", "--k", "1"],
    ["stirling1", "--n", "100000000000000000", "--k", "1"],
    ["verify", "--k-min", "2", "--k-max", "2", "--n-min", "100000000000000000", "--n-max", "100000000000000000",
     "--routes", "r5"],
], ids=["lah", "lah-maxsize", "lah-maxsize+1", "stirling1", "verify", "verify-n-maxsize", "verify-k-maxsize",
        "lah-1e17", "stirling1-1e17", "verify-n-1e17"])
def test_index_past_the_c_limit_exits_two_with_one_line(argv):
    done = subprocess.run([sys.executable, "-m", "lahverify", *argv], env=_fresh_env(), capture_output=True,
                          text=True, timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: index too large: ")


def test_a_zero_at_a_huge_index_prints_at_once():
    # s(n, 0) = 0 for n > 0, with no walk of the triangle
    done = subprocess.run([sys.executable, "-m", "lahverify", "stirling1", "--n", "9223372036854775808", "--k", "0"],
                          env=_fresh_env(), capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


@pytest.mark.parametrize("argv, lines", [
    (["table", "lah", "--max-n", "300", "--format", "csv"], 1),
    (["verify", "--k-min", "2", "--k-max", "40", "--n-min", "0", "--n-max", "80", "--routes", "r2", "--format", "csv"], 1),
    (["lah", "--n", "5", "--k", "2"], 0),
], ids=["table", "verify", "lah"])
def test_closed_stdout_exits_one_quietly(argv, lines):
    # the reader takes some lines and closes the pipe, as `| head -1` does:
    # mid-stream for outputs of megabytes, far more than a pipe buffer
    # holds, and before the first write for a short one
    env = _block_buffered_env()
    proc = subprocess.Popen([sys.executable, "-m", "lahverify", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["verify", "--k-min", "2", "--k-max", "3", "--n-min", "0", "--n-max", "2", "--routes", "r1"],
    ["verify", "--k-min", "1", "--k-max", "3", "--n-min", "0", "--n-max", "2"],
], ids=["summary", "usage-error"])
def test_closed_stderr_exits_one(argv):
    # the reader of stderr is gone before the first line is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "lahverify", *argv], env=_block_buffered_env(),
                              stdout=subprocess.DEVNULL, stderr=write_end, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1


_WRITE_FAILS = [
    ["lah", "--n", "3", "--k", "2"],
    ["table", "lah", "--max-n", "50", "--format", "csv"],
    ["verify", "--k-min", "2", "--k-max", "2", "--n-min", "0", "--n-max", "1"],
]


def _env(unbuffered):
    return {**_fresh_env(), "PYTHONUNBUFFERED": "1"} if unbuffered else _block_buffered_env()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", _WRITE_FAILS, ids=["lah", "table", "verify"])
def test_full_stdout_exits_one_with_one_error_line(argv, unbuffered):
    # every write to /dev/full fails with ENOSPC: buffered, at the flush in
    # main, and unbuffered, at the first print
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "lahverify", *argv], env=_env(unbuffered), stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert [line for line in done.stderr.splitlines() if line.startswith("error:")] == [
        "error: cannot write output: No space left on device"
    ]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_stderr_exits_one(unbuffered):
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "lahverify", *_WRITE_FAILS[2]], env=_env(unbuffered),
                              stdout=subprocess.DEVNULL, stderr=full, timeout=120)
    assert done.returncode == 1


@pytest.mark.parametrize("stderr", [
    pytest.param("full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")),
    "gone",
])
def test_failed_stderr_keeps_stdout(stderr):
    # stdout is block buffered, so its report is still in the buffer when
    # the write to stderr fails: on a full device, or to a reader that has gone
    argv = [sys.executable, "-m", "lahverify", *_WRITE_FAILS[2]]
    report = subprocess.run(argv, env=_block_buffered_env(), capture_output=True, text=True, timeout=120).stdout
    if stderr == "full":
        target = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, target = os.pipe()
        os.close(read_end)
    try:
        done = subprocess.run(argv, env=_block_buffered_env(), stdout=subprocess.PIPE, stderr=target, text=True,
                              timeout=120)
    finally:
        os.close(target)
    assert report.count("all_match=true") == 2
    assert (done.returncode, done.stdout) == (1, report)


@pytest.mark.skipif(os.name != "posix", reason="needs preexec_fn")
@pytest.mark.parametrize("fd, argv, code, kept", [
    (1, _WRITE_FAILS[0], 1, ""),
    (1, ["lah", "--n", "x", "--k", "2"], 2,
     "usage: lahverify lah --n INT --k INT\nerror: argument --n: invalid int value: 'x'\n"),
    (2, _WRITE_FAILS[0], 0, "6\n"),
    (2, _WRITE_FAILS[2], 1, "\n".join([
        "k=2 n=0 reference=0 lhs_direct=0 r1=0 r2=0 r3=0 r4=0 r5=0 r6=0 all_match=true",
        "k=2 n=1 reference=2 lhs_direct=2 r1=2 r2=2 r3=2 r4=2 r5=2 r6=2 all_match=true\n",
    ])),
], ids=["stdout-lah", "stdout-usage-error", "stderr-lah", "stderr-verify"])
def test_stream_closed_before_the_start(fd, argv, code, kept):
    # as ``>&-`` or ``2>&-`` leave it, which Python reads as a None stream:
    # writing to it fails as to a closed pipe, where print would drop the
    # text, or send stderr's to stdout; ``kept`` is what the other stream gets
    done = subprocess.run([sys.executable, "-m", "lahverify", *argv], env=_block_buffered_env(),
                          capture_output=True, text=True, timeout=120, preexec_fn=lambda: os.close(fd))
    assert (done.returncode, done.stderr if fd == 1 else done.stdout) == (code, kept)
    assert (done.stdout if fd == 1 else done.stderr) == ""


def _run_in_mib(mib: int, argv: list[str]) -> subprocess.CompletedProcess:
    # under an address-space limit of ``mib`` MiB, set in the child alone
    import resource

    limit = mib << 20
    return subprocess.run(
        [sys.executable, "-m", "lahverify", *argv], env=_fresh_env(), capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS, which Linux enforces")
def test_out_of_memory_is_one_error_line():
    # an n range far larger than memory, whose direct sum's largest value,
    # 30000002!, needs at least 43 MB, which the address space could hold
    done = _run_in_mib(128, ["verify", "--k-min", "2", "--k-max", "2", "--n-min", "0", "--n-max", "30000000",
                             "--routes", "r1"])
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS, which Linux enforces")
def test_a_value_past_the_address_space_limit_is_an_index_too_large():
    # 1000000002! needs at least 1.75 GB, far more than the limit allows,
    # so the grid is refused before any factorial is formed
    done = _run_in_mib(128, ["verify", "--k-min", "2", "--k-max", "2", "--n-min", "1000000000",
                             "--n-max", "1000000000", "--routes", "r1"])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("error: index too large: 1000000002! has more than 14000000028 bits, "
                           "more than the 134217728 bytes this process can hold\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS, which Linux enforces")
@pytest.mark.parametrize("k_max, n_max, route", [
    ("2", "1000000000", "r1"),
    ("1000000000", "0", "r1"),
    ("2", "9223372036854775807", "r5"),
    ("9223372036854775807", "0", "r5"),
], ids=["n-1e9", "k-1e9", "n-max", "k-max"])
def test_a_range_wider_than_memory_is_refused_before_it_is_listed(k_max, n_max, route):
    # the bound is read from the ends of the ranges, so a grid whose k or n
    # range alone is far larger than memory exits as the one instance at
    # its far corner does, and lists neither range
    done = _run_in_mib(256, ["verify", "--k-min", "2", "--k-max", k_max, "--n-min", "0", "--n-max", n_max,
                             "--routes", route])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: index too large: ")
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")


@pytest.mark.parametrize("argv, r5_fault, code, last_err", [
    # a JSON report of about 2 MB, far more than a pipe buffer holds
    (["verify", "--k-min", "2", "--k-max", "40", "--n-min", "0", "--n-max", "80", "--routes", "r2",
      "--format", "json"], False, 0, "3159/3159 instances verified"),
    (["verify", "--k-min", "1", "--k-max", "3", "--n-min", "0", "--n-max", "2"], False, 2,
     "error: verify requires --k-min >= 2"),
    (["verify", "--k-min", "2", "--k-max", "3", "--n-min", "0", "--n-max", "1", "--routes", "r5",
      "--format", "csv"], True, 1, "0/4 instances verified"),
    (["verify", "--k-min", "2", "--k-max", "3", "--n-min", "0", "--n-max", "1", "--routes", "r9,r1"], False, 2,
     "error: unknown route 'r9' (choose from r1, r2, r3, r4, r5, r6)"),
    (["verify", "--k-min", "2", "--k-max", "3", "--n-min", "0", "--n-max", "1", "--routes", ","], False, 2,
     "error: --routes must name at least one route or be 'all'"),
    (["verify", "--k-min", "3", "--k-max", "2", "--n-min", "0", "--n-max", "1"], False, 2,
     "error: empty k range: --k-max must be >= --k-min"),
    (["verify", "--k-min", "2", "--k-max", "3", "--n-min", "-1", "--n-max", "1"], False, 2,
     "error: verify requires --n-min >= 0"),
    (["verify", "--k-min", "2", "--k-max", "3", "--n-min", "1", "--n-max", "0"], False, 2,
     "error: empty n range: --n-max must be >= --n-min"),
    (["verify", "--k-min", "2", "--k-max", "3", "--n-min", "0", "--n-max", "1", "--jobs", "0"], False, 2,
     "error: --jobs must be at least 1"),
], ids=["large-json", "usage-error", "failed-cross-check", "unknown-route", "no-route", "empty-k-range",
        "negative-n-min", "empty-n-range", "no-jobs"])
def test_main_delivers_what_run_printed(capsys, monkeypatch, argv, r5_fault, code, last_err):
    # main leaves through os._exit, which flushes no buffer, so it must
    # flush all that run printed first; the fault is injected alike in a
    # wrapper that calls main and in this process
    import lahverify.verify as verify_mod

    script = "\n".join([
        "import sys",
        "import lahverify.cli",
        "import lahverify.verify",
        "lahverify.verify.chu_vandermonde_closed = lambda a, b, c: (7, 1)" if r5_fault else "",
        f"sys.argv[1:] = {argv!r}",
        "lahverify.cli.main()",
    ])
    done = subprocess.run([sys.executable, "-c", script], env=_block_buffered_env(), capture_output=True, text=True,
                          timeout=120)
    if r5_fault:
        monkeypatch.setattr(verify_mod, "chu_vandermonde_closed", lambda a, b, c: (7, 1))
    assert (done.returncode, done.stdout, done.stderr) == _run(capsys, argv)
    assert done.returncode == code
    assert done.stderr.splitlines()[-1] == last_err
    if code == 2:
        # a domain error prints nothing to stdout and one line to stderr
        assert (done.stdout, done.stderr) == ("", last_err + "\n")
    if r5_fault:
        assert [line for line in done.stderr.splitlines() if line.startswith("error:")] == [
            f"error: r5 at k={k}, n={n}: hypergeometric route broke at k={k}, n={n}"
            for k in (2, 3) for n in (0, 1)
        ]
    if code == 0:
        assert len(done.stdout) > 1 << 16
