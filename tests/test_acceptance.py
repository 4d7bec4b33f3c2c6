"""Acceptance suite: every exit criterion, each at exact (zero) tolerance.

Each test prints one "criterion N (<name>): PASS/FAIL" line; run with
``pytest tests/test_acceptance.py -v -s`` to see them as they complete.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction

from lahverify.cli import run
from lahverify.exact import factorial
from lahverify.numbers import lah, stirling1, triangle_rows
from lahverify.oracles import (
    chu_vandermonde_binomial,
    gkp_identity,
    lah_bruteforce,
    lah_triangle,
    stirling1_from_log_series,
    stirling1_from_rising_poly,
)
from lahverify.symbolic import (
    exp_derivative_lah,
    expr_diff_t,
    expr_from_terms,
    route6_coefficient_chain,
)
from lahverify.verify import (
    ROUTE_FUNCTIONS,
    IdentityInstance,
    binomial_inversion,
    chu_vandermonde_closed,
    hypergeom_2f1_terminating,
    lhs_direct,
    rhs_reference,
    verify_grid,
)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def test_criterion_1_identity_grid():
    with criterion("criterion 1 (identity grid, routes r1-r5, 2<=k<=25, 0<=n<=50)"):
        reports = verify_grid(range(2, 26), range(0, 51), routes=("r1", "r2", "r3", "r4", "r5"))
        assert len(reports) == 24 * 51
        for report in reports:
            inst = report.instance
            assert report.route_values["lhs_direct"] == report.reference, (inst.k, inst.n)
            assert report.all_match, (inst.k, inst.n, report.route_values)


def test_criterion_2_route6_symbolic_chain():
    with criterion("criterion 2 (route 6 symbolic chain)"):
        for k in range(2, 9):
            for n in range(0, 11):
                inst = IdentityInstance(k, n)
                assert ROUTE_FUNCTIONS["r6"](inst) == rhs_reference(inst), (k, n)
        # the side-by-side Laurent comparison inside the chain must hold for
        # every order m and every k up to one past the zero band's edge,
        # k = m+2, where every bracket is 0; a mismatch raises
        # ConsistencyError
        for m in range(13):
            for k in range(1, m + 3):
                brackets = route6_coefficient_chain(m, k)
                assert set(brackets) == set(range(m + 1))


def test_criterion_3_lah_oracle():
    with criterion("criterion 3 (lah = lah_triangle = lah_bruteforce, n <= 8)"):
        rows = lah_triangle(8)
        for n in range(1, 9):
            for k in range(1, n + 1):
                closed = lah(n, k)
                assert closed == rows[n][k], (n, k)
                assert closed == lah_bruteforce(n, k), (n, k)


def test_criterion_4_stirling_consistency():
    with criterion("criterion 4 (stirling recurrence = stirling1 = rising poly = log series, n <= 25)"):
        max_n = 25
        log_rows = {k: stirling1_from_log_series(max_n, k) for k in range(max_n + 1)}
        for n, row in enumerate(triangle_rows("stirling1", max_n)):
            assert row == stirling1_from_rising_poly(n), n
            for k, recurrence in enumerate(row):
                assert recurrence == stirling1(n, k), (n, k)
                assert log_rows[k][n] == Fraction(recurrence, factorial(n)), (n, k)
        assert n == max_n


def test_criterion_5_derivative_formula():
    with criterion("criterion 5 (k-fold derivative of exp(-u/t) matches Lah closed form, k <= 12)"):
        e = expr_from_terms([(1, 0, 0)])
        for k in range(1, 13):
            e = expr_diff_t(e)
            assert e == exp_derivative_lah(k), k


def test_criterion_6_classical_identities():
    with criterion("criterion 6 (Chu-Vandermonde, double-binomial identity, 2F1 closed form)"):
        for r in range(11):
            for s in range(11):
                for m in range(-4, 11):
                    for n in range(-4, 11):
                        lhs, rhs = chu_vandermonde_binomial(r, m, s, n)
                        assert lhs == rhs, (r, m, s, n)
        for l in range(7):
            for m in range(-6, 7):
                for s in range(-6, 7):
                    for n in range(-6, 7):
                        lhs, rhs = gkp_identity(l, m, s, n)
                        assert lhs == rhs, (l, m, s, n)
        for a in range(-12, 1):
            for b in range(-12, 13):
                for c in range(1, 13):
                    summed, closed = hypergeom_2f1_terminating(a, b, c), chu_vandermonde_closed(a, b, c)
                    assert Fraction(*summed) == Fraction(*closed), (a, b, c)


def test_criterion_7_inversion_involution():
    with criterion("criterion 7 (binomial transform is an involution, 200 random sequences)"):
        rng = random.Random(271828)
        for _ in range(200):
            seq = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 20))]
            assert binomial_inversion(binomial_inversion(seq)) == seq, seq


def test_criterion_8_spot_values():
    with criterion("criterion 8 (spot values across every route)"):
        spots = {(2, 1): 2, (4, 1): 0, (3, 5): -14400, (5, 4): -2880}
        for (k, n), expected in spots.items():
            inst = IdentityInstance(k, n)
            assert lhs_direct(inst) == expected, (k, n)
            assert rhs_reference(inst) == expected, (k, n)
            for name, route in ROUTE_FUNCTIONS.items():
                assert route(inst) == expected, (k, n, name)


def test_criterion_9_cli_determinism_and_fault_exit(capsys, monkeypatch, forks):
    with criterion("criterion 9 (CLI byte determinism across --jobs; fault exit code)"):
        argv = ["verify", "--k-min", "2", "--k-max", "5", "--n-min", "0", "--n-max", "6",
                "--routes", "all", "--format", "json"]
        code_serial = run(argv + ["--jobs", "1"])
        out_serial = capsys.readouterr().out
        code_parallel = run(argv + ["--jobs", "8"])
        out_parallel = capsys.readouterr().out
        assert code_serial == code_parallel == 0
        assert out_serial == out_parallel
        # eight jobs on two CPUs
        assert len(forks) == 1

        monkeypatch.setitem(ROUTE_FUNCTIONS, "r3", lambda inst: 123456789)
        code_fault = run(["verify", "--k-min", "2", "--k-max", "3", "--n-min", "0", "--n-max", "3",
                          "--routes", "r3", "--format", "text", "--jobs", "1"])
        capsys.readouterr()
        assert code_fault == 1
