from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lahverify
from lahverify.cli import emit_report, run
from lahverify.verify import ROUTE_FUNCTIONS, IdentityInstance, VerificationReport


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        # a value of about 10400 digits; run() lifts the 4300-digit limit,
        # which the formatting below relies on as well
        code, out, _ = _run(capsys, ["lah", "--n", "5000", "--k", "2500"])
        assert code == 0
        expected = math.comb(4999, 2499) * (math.factorial(5000) // math.factorial(2500))
        assert out == f"{expected}\n"

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

    def test_routes_all_includes_r6_inside_cost_bound(self, capsys):
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
    def test_failed_cross_check_gives_exit_one(self, capsys, monkeypatch, jobs):
        import lahverify.verify as verify_mod

        monkeypatch.setattr(verify_mod, "chu_vandermonde_closed", lambda a, b, c: Fraction(7))
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

    GRID = ["verify", "--k-min", "2", "--k-max", "3", "--n-min", "0", "--n-max", "4",
            "--routes", "r1,r4", "--format", "csv"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
    @pytest.mark.parametrize("bad_k", [2, 3])
    def test_worker_exception_reaches_the_parent(self, capsys, monkeypatch, bad_k):
        # with two rows and two workers one row runs in this process and
        # one in a child, so bad_k covers both
        import lahverify.verify as verify_mod

        verify_row = verify_mod.verify_row
        parent = os.getpid()
        rows_here = []

        def raising_row(k, ns, routes):
            if os.getpid() == parent:
                rows_here.append(k)
            if k == bad_k:
                raise ValueError(f"no row {k}")
            return verify_row(k, ns, routes)

        monkeypatch.setattr(verify_mod, "verify_row", raising_row)
        monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 2)
        serial = _run(capsys, self.GRID + ["--jobs", "1"])
        rows_here.clear()
        assert _run(capsys, self.GRID + ["--jobs", "2"]) == serial == (2, "", f"error: no row {bad_k}\n")
        # the child's row, raising or not, is not verified again here
        assert len(rows_here) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
    def test_rows_of_a_worker_that_dies_are_verified_here(self, capsys, monkeypatch):
        import lahverify.verify as verify_mod

        verify_row = verify_mod.verify_row
        parent = os.getpid()
        rows_here = []

        def dying_row(k, ns, routes):
            if os.getpid() != parent:
                os._exit(9)
            rows_here.append(k)
            return verify_row(k, ns, routes)

        serial = _run(capsys, self.GRID + ["--jobs", "1"])
        monkeypatch.setattr(verify_mod, "verify_row", dying_row)
        monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 2)
        assert _run(capsys, self.GRID + ["--jobs", "2"]) == serial
        assert serial[0] == 0
        # the child's row was verified again in this process
        assert sorted(rows_here) == [2, 3]


class TestEmitReport:
    def _single_report(self):
        return VerificationReport(IdentityInstance(2, 1), 2, {"r1": 2}, True)

    def test_json_byte_exact_schema(self):
        expected = '[{"k":2,"n":1,"reference":"2","routes":{"r1":"2"},"all_match":true}]'
        assert emit_report([self._single_report()], "json") == expected

    def test_empty_reports(self):
        assert emit_report([], "json") == "[]"
        assert emit_report([], "csv") == "k,n,reference,all_match"
        assert emit_report([], "text") == ""

    def test_csv_row(self):
        report = VerificationReport(IdentityInstance(5, 4), -2880, {"lhs_direct": -2880, "r1": -2880}, True)
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


class TestDeterminism:
    ARGV = ["verify", "--k-min", "2", "--k-max", "4", "--n-min", "0", "--n-max", "5",
            "--routes", "r1,r3,r4", "--format", "csv"]

    def test_jobs_do_not_change_output(self, capsys):
        code_a, out_a, _ = _run(capsys, self.ARGV + ["--jobs", "1"])
        code_b, out_b, _ = _run(capsys, self.ARGV + ["--jobs", "4"])
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_jobs_do_not_change_r6_output(self, capsys):
        argv = ["verify", "--k-min", "2", "--k-max", "7", "--n-min", "0", "--n-max", "12",
                "--routes", "r2,r6", "--format", "json"]
        code_a, out_a, _ = _run(capsys, argv + ["--jobs", "1"])
        code_b, out_b, _ = _run(capsys, argv + ["--jobs", "2"])
        assert code_a == code_b == 0
        assert out_a == out_b


def _fresh_env() -> dict[str, str]:
    src = str(Path(lahverify.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src}


def _loaded_by(*args: str) -> set[str]:
    """Modules a fresh interpreter imports to run ``args`` beyond those it
    imports to run ``-c pass``, as ``-X importtime`` lists them."""

    def imported(argv):
        out = subprocess.run([sys.executable, "-X", "importtime", *argv], env=_fresh_env(),
                             capture_output=True, text=True, check=True)
        return {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")}

    return imported(args) - imported(["-c", "pass"])


def test_cli_import_leaves_pool_out():
    # fresh interpreters, since this one has imported the whole package
    assert not {name for name in _loaded_by("-c", "import lahverify") if name.startswith("lahverify.")}
    loaded = _loaded_by("-c", "import lahverify.cli")
    assert "lahverify.numbers" in loaded
    assert not loaded & {"concurrent.futures", "json", "lahverify.verify", "lahverify.symbolic", "dataclasses"}
    assert "dataclasses" not in _loaded_by("-c", "import lahverify.verify")
    table = _loaded_by("-m", "lahverify", "table", "lah", "--max-n", "3")
    assert "lahverify.cli" in table
    assert not table & {"lahverify.verify", "lahverify.symbolic", "dataclasses"}
    parallel = _loaded_by("-m", "lahverify", "verify", "--k-min", "2", "--k-max", "3", "--n-min", "0",
                          "--n-max", "2", "--routes", "r1", "--jobs", "2")
    assert "lahverify.verify" in parallel
    assert not parallel & {"concurrent.futures", "multiprocessing"}


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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
def test_forked_workers_print_nothing():
    # a child that returned into the CLI, or flushed the stdout buffer it
    # inherited, would repeat report lines; stdout is block buffered, as
    # it is by default for a pipe
    env = {name: value for name, value in _fresh_env().items() if name != "PYTHONUNBUFFERED"}
    argv = [sys.executable, "-m", "lahverify", "verify", "--k-min", "2", "--k-max", "9", "--n-min", "0",
            "--n-max", "6", "--routes", "r1,r2", "--format", "text"]
    serial, parallel = (subprocess.run(argv + ["--jobs", jobs], env=env, capture_output=True, text=True, timeout=120)
                        for jobs in ("1", "2"))
    lines = parallel.stdout.splitlines()
    assert len(lines) == len(set(lines)) == 8 * 7
    assert (parallel.returncode, parallel.stdout, parallel.stderr) == (0, serial.stdout, "56/56 instances verified\n")
    assert serial.returncode == 0


@pytest.mark.parametrize("argv, lines", [
    (["table", "lah", "--max-n", "300", "--format", "csv"], 1),
    (["verify", "--k-min", "2", "--k-max", "40", "--n-min", "0", "--n-max", "80", "--routes", "r2", "--format", "csv"], 1),
    (["lah", "--n", "5", "--k", "2"], 0),
], ids=["table", "verify", "lah"])
def test_closed_stdout_exits_one_quietly(argv, lines):
    # the reader takes some lines and closes the pipe, as `| head -1` does:
    # mid-stream for outputs of megabytes, far more than a pipe buffer
    # holds, and before the first write for a short one; stdout is block
    # buffered, as it is by default for a pipe
    env = {name: value for name, value in _fresh_env().items() if name != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "lahverify", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""
