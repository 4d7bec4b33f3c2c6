from __future__ import annotations

import functools
import gc
import math
import os
import pickle
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lahverify.exact as exact_mod
import lahverify.numbers as numbers_mod
import lahverify.series as series_mod
import lahverify.verify as verify_mod
import lahverify.workers as workers_mod
from lahverify.exact import ConsistencyError, binomial_general, factorial, falling, rising
from lahverify.numbers import lah, stirling1
from lahverify.oracles import chu_vandermonde_binomial, gkp_identity, series_binomial_power, series_mul
from lahverify.series import Polynomial, poly_from_coeffs, poly_mul, rising_factorial_poly
from lahverify.symbolic import exp_derivative_lah, stirling_weighted_moment
from lahverify.verify import (
    ROUTE_FUNCTIONS,
    ROUTE_NAMES,
    IdentityInstance,
    VerificationReport,
    binomial_inversion,
    chu_vandermonde_closed,
    hypergeom_2f1_terminating,
    lhs_direct,
    rhs_reference,
    route1_induction,
    route2_lah_gf,
    route3_convolution,
    route4_inversion,
    route5_hypergeom,
    route6_stirling,
    verify_grid,
    verify_instance,
)

# computed by the literal alternating sum, which is the oracle for every route
SPOT_VALUES = {
    (2, 0): 0,
    (2, 1): 2,
    (4, 1): 0,
    (3, 5): -14400,
    (5, 4): -2880,
}


# plain loop forms of the binomial transform, the terminating 2F1, r2's
# row sum, the binomial sum S(k, n) / (k! n!) and r4's factorial-quotient
# sequences, kept as references: the properties below require exact
# equality with them


def _inversion_reference(values):
    seq = list(values)
    return [
        sum((-1) ** l * binomial_general(j, l) * seq[l] for l in range(j + 1))
        for j in range(len(seq))
    ]


def _hypergeom_reference(a, b, c):
    return sum(
        (Fraction(rising(a, l) * rising(b, l), rising(c, l) * factorial(l)) for l in range(-a + 1)),
        Fraction(0),
    )


def _route2_row_sum_reference(k, n):
    return factorial(n) * sum(lah(k, l) * falling(-(n + 1), l) for l in range(k + 1))


def _route3_convolution_reference(k, n):
    return sum(
        (-1) ** l * binomial_general(n + l, n) * binomial_general(k - 1, l - 1)
        for l in range(1, k + 1)
    )


def _route4_sequences_reference(k, n):
    # a(l) = (n+l)!/(l-1)! and b(l) = (-1)^l n! (n+1)! / ((n-l+1)! (l-1)!),
    # both 0 where a factorial in the denominator has a negative argument
    a_seq = [0] + [factorial(n + l) // factorial(l - 1) for l in range(1, k + 1)]
    b_seq = [
        (-1) ** l * factorial(n) * factorial(n + 1) // (factorial(n - l + 1) * factorial(l - 1))
        if 1 <= l <= n + 1
        else 0
        for l in range(k + 1)
    ]
    return a_seq, b_seq


class TestInstance:
    def test_hypothesis_bounds_enforced(self):
        with pytest.raises(ValueError):
            IdentityInstance(1, 0)
        with pytest.raises(ValueError):
            IdentityInstance(3, -1)

    def test_valid_instance(self):
        inst = IdentityInstance(2, 0)
        assert (inst.k, inst.n) == (2, 0)


class TestValueTypes:
    # one value of each of the six value types
    VALUES = [
        IdentityInstance(3, 4),
        VerificationReport(IdentityInstance(2, 1), 2, {"r1": 2}, True, {}),
        series_binomial_power(-2, 4),
        poly_from_coeffs([1, 2]),
        stirling_weighted_moment(3),
        exp_derivative_lah(2),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_attributes_cannot_be_assigned(self, value):
        with pytest.raises(AttributeError):
            setattr(value, type(value)._fields[0], None)
        with pytest.raises(AttributeError):
            value.extra = None

    def test_instance_and_report_survive_pickle(self):
        # forked workers send their reports, instances included, back by pickle
        inst = IdentityInstance(5, 7)
        report = VerificationReport(inst, 3, {"lhs_direct": 3, "r5": None}, False, {"r5": "broke"})
        for value in (inst, report):
            copy = pickle.loads(pickle.dumps(value))
            assert type(copy) is type(value)
            assert copy == value
        assert copy.route_values == {"lhs_direct": 3, "r5": None}
        assert copy.errors == {"r5": "broke"}

    def test_empty_errors_survive_pickle(self):
        report = VerificationReport(IdentityInstance(2, 1), 2, {"r1": 2}, True, {})
        copy = pickle.loads(pickle.dumps(report))
        assert copy == report and copy.errors == {}


class TestReferenceSides:
    def test_rhs_examples(self):
        assert rhs_reference(IdentityInstance(2, 0)) == 0
        assert rhs_reference(IdentityInstance(2, 1)) == 2
        assert rhs_reference(IdentityInstance(5, 4)) == -2880

    def test_lhs_examples(self):
        assert lhs_direct(IdentityInstance(2, 1)) == 2
        assert lhs_direct(IdentityInstance(4, 1)) == 0
        assert lhs_direct(IdentityInstance(3, 5)) == -14400

    def test_sides_agree_on_block(self):
        for k in range(2, 10):
            for n in range(0, 16):
                inst = IdentityInstance(k, n)
                assert lhs_direct(inst) == rhs_reference(inst)

    def test_zero_band(self):
        for k in range(2, 9):
            for n in range(0, k - 1):
                assert rhs_reference(IdentityInstance(k, n)) == 0


class TestGkpIdentity:
    def test_examples(self):
        assert gkp_identity(0, 2, 5, 3) == (1, 1)
        assert gkp_identity(1, 0, 2, 1) == (-1, -1)

    def test_substitution_reproduces_reduced_identity(self):
        # at (l, m, s) = (k-1, -1, n) the left side is S(k, n) / (k! n!)
        for k, n in ((2, 1), (3, 2), (5, 3)):
            lhs, rhs = gkp_identity(k - 1, -1, n, n)
            assert lhs == rhs
            reduced = sum(
                (-1) ** l * _pascal(n + l, n) * _pascal(k - 1, l - 1)
                for l in range(1, k + 1)
            )
            assert reduced == lhs

    @given(st.integers(2, 40), st.integers(0, 80))
    def test_left_side_is_route3_convolution(self, k, n):
        # the left side is term for term the x^k convolution that r3 forms
        assert gkp_identity(k - 1, -1, n, n)[0] == _route3_convolution_reference(k, n)

    def test_negative_l_rejected(self):
        with pytest.raises(ValueError):
            gkp_identity(-1, 0, 0, 0)

    def test_exhaustive_small(self):
        for l in range(5):
            for m in range(-4, 5):
                for s in range(-4, 5):
                    for n in range(-4, 5):
                        lhs, rhs = gkp_identity(l, m, s, n)
                        assert lhs == rhs


def _pascal(r: int, j: int) -> int:
    # local additive oracle for non-negative upper index
    if j < 0 or j > r:
        return 0
    if j == 0 or j == r:
        return 1
    return _pascal(r - 1, j - 1) + _pascal(r - 1, j)


class TestChuVandermonde:
    def test_binomial_form_spot(self):
        lhs, rhs = chu_vandermonde_binomial(4, 1, 3, 2)
        assert lhs == rhs

    def test_binomial_form_block(self):
        for r in range(7):
            for s in range(7):
                for m in range(-3, 6):
                    for n in range(-3, 6):
                        lhs, rhs = chu_vandermonde_binomial(r, m, s, n)
                        assert lhs == rhs

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            chu_vandermonde_binomial(-1, 0, 2, 1)


class TestHypergeometric:
    def test_empty_sum_is_one(self):
        for b in (-3, 0, 2, 11):
            for c in (1, 2, 7):
                assert Fraction(*hypergeom_2f1_terminating(0, b, c)) == 1
                assert Fraction(*chu_vandermonde_closed(0, b, c)) == 1

    def test_examples(self):
        assert Fraction(*hypergeom_2f1_terminating(-1, 3, 2)) == Fraction(-1, 2)
        assert Fraction(*hypergeom_2f1_terminating(-2, 3, 2)) == 0
        assert chu_vandermonde_closed(-1, 3, 2) == (-1, 2)
        assert Fraction(*chu_vandermonde_closed(-2, 3, 2)) == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            hypergeom_2f1_terminating(1, 2, 3)
        with pytest.raises(ValueError):
            hypergeom_2f1_terminating(-1, 2, 0)
        with pytest.raises(ValueError):
            chu_vandermonde_closed(2, 2, 3)
        with pytest.raises(ValueError):
            chu_vandermonde_closed(-1, 2, -2)

    @given(st.integers(-25, 0), st.integers(-40, 40), st.integers(1, 40))
    def test_matches_rising_factorial_terms(self, a, b, c):
        num, den = hypergeom_2f1_terminating(a, b, c)
        assert type(num) is type(den) is int and den > 0
        assert Fraction(num, den) == _hypergeom_reference(a, b, c)

    def test_series_matches_closed_form_block(self):
        for a in range(-8, 1):
            for b in range(-8, 9):
                for c in range(1, 9):
                    assert Fraction(*hypergeom_2f1_terminating(a, b, c)) == Fraction(*chu_vandermonde_closed(a, b, c))

    @given(st.integers(2, 40), st.integers(0, 80))
    def test_route5_pairs_match_fraction_forms(self, k, n):
        # r5's integer pairs against the Fraction sum and the Fraction closed
        # form, and its value against the value taken from the Fraction
        closed = Fraction(rising(-n, k - 1), rising(2, k - 1))
        assert Fraction(*hypergeom_2f1_terminating(1 - k, n + 2, 2)) == _hypergeom_reference(1 - k, n + 2, 2) == closed
        num, den = chu_vandermonde_closed(1 - k, n + 2, 2)
        assert type(num) is type(den) is int and den > 0 and Fraction(num, den) == closed
        value = route5_hypergeom(IdentityInstance(k, n))
        assert type(value) is int and value == -factorial(k) * factorial(n + 1) * closed


class TestBinomialInversion:
    def test_examples(self):
        assert binomial_inversion([1, 2, 3]) == [1, -1, 0]
        assert binomial_inversion([1, 0, 0]) == [1, 1, 1]

    def test_double_application_on_example(self):
        assert binomial_inversion(binomial_inversion([1, 2, 3])) == [1, 2, 3]

    def test_empty_sequence(self):
        assert binomial_inversion([]) == []

    @given(st.lists(st.integers(-10**6, 10**6), max_size=20))
    def test_involution(self, seq):
        assert binomial_inversion(binomial_inversion(seq)) == seq

    @given(st.lists(st.integers(-10**30, 10**30), max_size=30))
    def test_matches_binomial_double_sum(self, seq):
        assert binomial_inversion(seq) == _inversion_reference(seq)


class TestRoutes:
    @pytest.mark.parametrize("route", [route1_induction, route2_lah_gf, route3_convolution,
                                       route4_inversion, route5_hypergeom, route6_stirling])
    def test_spot_values(self, route):
        for (k, n), expected in SPOT_VALUES.items():
            assert route(IdentityInstance(k, n)) == expected

    @pytest.mark.parametrize("name", ROUTE_NAMES)
    def test_agreement_with_direct_sum(self, name):
        route = ROUTE_FUNCTIONS[name]
        k_top, n_top = (6, 8) if name == "r6" else (9, 14)
        for k in range(2, k_top):
            for n in range(0, n_top):
                inst = IdentityInstance(k, n)
                assert route(inst) == lhs_direct(inst)

    def test_route2_display_identity(self):
        # n! <-(n+1)>_l = (-1)^l (n+l)!, the sign flip route 2 rests on
        for n in range(8):
            for l in range(8):
                assert factorial(n) * falling(-(n + 1), l) == (-1) ** l * factorial(n + l)

    @given(st.integers(2, 40), st.integers(0, 80))
    def test_route3_matches_full_series_product(self, k, n):
        # r3 forms only the x^k coefficient of the product it checks
        product = series_mul(series_binomial_power(-(n + 1), k), series_binomial_power(k - 1, k))
        assert route3_convolution(IdentityInstance(k, n)) == product.coeff(k) * factorial(k) * factorial(n)

    @given(st.integers(2, 40), st.integers(0, 80))
    def test_route2_matches_per_l_falling(self, k, n):
        assert route2_lah_gf(IdentityInstance(k, n)) == _route2_row_sum_reference(k, n)

    @given(st.integers(2, 40), st.integers(0, 80))
    def test_route4_matches_factorial_quotient_sequences(self, k, n):
        a_seq, b_seq = _route4_sequences_reference(k, n)
        assert binomial_inversion(b_seq) == a_seq
        assert route4_inversion(IdentityInstance(k, n)) == b_seq[k] * factorial(k - 1)

    def test_route4_integer_on_block(self):
        for k in range(2, 31):
            for n in range(0, 61):
                inst = IdentityInstance(k, n)
                value = route4_inversion(inst)
                assert type(value) is int
                assert value == rhs_reference(inst), (k, n)

    def test_route6_row_matches_single_instances(self):
        # the row that every n of k reads is |s(k, 0..k)|, and its value at
        # each n is the closed form
        for k in range(2, 21):
            assert verify_mod._route6_row(k) == tuple(abs(stirling1(k, j)) for j in range(k + 1))
            for n in range(0, 41):
                inst = IdentityInstance(k, n)
                assert route6_stirling(inst) == rhs_reference(inst), (k, n)

    def test_factorial_generating_function_as_polynomials(self):
        # row identity behind route 2: x(x+1)...(x+n-1) equals the
        # Lah-weighted sum of falling factorial polynomials
        # falling_polys[k] is x(x-1)...(x-k+1)
        falling_polys = [poly_from_coeffs([1])]
        for j in range(12):
            falling_polys.append(poly_mul(falling_polys[-1], poly_from_coeffs([-j, 1])))
        for n in range(13):
            summed = [0] * (n + 1)
            for k in range(n + 1):
                for i, c in enumerate(falling_polys[k].coeffs):
                    summed[i] += lah(n, k) * c
            assert poly_from_coeffs(summed) == rising_factorial_poly(n)


class TestInternalGuards:
    def test_route5_raises_on_closed_form_disagreement(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "chu_vandermonde_closed", lambda a, b, c: (7, 1))
        with pytest.raises(ConsistencyError):
            route5_hypergeom(IdentityInstance(3, 4))

    def test_symbolic_chain_raises_on_side_mismatch(self, monkeypatch):
        import lahverify.symbolic as symbolic_mod
        from lahverify.symbolic import laurent_from_terms, route6_coefficient_chain

        monkeypatch.setattr(
            symbolic_mod, "stirling_weighted_moment", lambda m: laurent_from_terms([(1, 0)])
        )
        with pytest.raises(ConsistencyError):
            route6_coefficient_chain(3, 2)

    def test_failed_cross_check_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "chu_vandermonde_closed", lambda a, b, c: (7, 1))
        reports = verify_grid([3], range(0, 3), routes=("r1", "r5"))
        assert [r.instance.n for r in reports] == [0, 1, 2]
        for r in reports:
            assert r.route_values["r5"] is None
            assert r.route_values["r1"] == r.reference
            assert list(r.errors) == ["r5"]
            assert "hypergeometric route broke at k=3" in r.errors["r5"]
            assert not r.all_match

    def test_wrong_triangle_weight_fails_route1_alone(self, capsys, monkeypatch):
        # r1 is the one route that reads the triangle recurrence; a wrong
        # weight first changes the sum over row k-1 at k = 3, n = 0
        from lahverify.cli import run

        monkeypatch.setitem(numbers_mod._TRIANGLE_WEIGHTS, "lah", lambda n, ks: range(n + 1 + ks.start, n + 1 + ks.stop))
        code = run(["verify", "--k-min", "3", "--k-max", "3", "--n-min", "0", "--n-max", "0",
                    "--routes", "r1,r2,r6"])
        err = capsys.readouterr().err
        assert code == 1
        assert [line for line in err.splitlines() if line.startswith(("error:", "mismatch:"))] == [
            "mismatch: r1 at k=3, n=0: expected 0, got -2",
        ]

    def test_wrong_closed_form_lah_leaves_route1_right(self, monkeypatch):
        # lhs_direct and r6 read the closed form; r1 and r2 read none of it
        closed_form = numbers_mod.lah
        monkeypatch.setattr(numbers_mod, "lah", lambda n, k: closed_form(n, k) + ((n, k) == (3, 2)))
        reports = verify_grid([3], range(4), ("r1", "r2", "r6"))
        assert [r.instance.n for r in reports] == [0, 1, 2, 3]
        for r in reports:
            assert r.route_values["lhs_direct"] != r.reference
            assert r.route_values["r1"] == r.route_values["r2"] == r.reference
            assert r.route_values["r6"] is None
            assert sorted(r.errors) == ["r6"]
            assert not r.all_match

    def test_wrong_route3_coefficient_is_reported(self, monkeypatch):
        binomial = verify_mod.binomial_general

        def negative_x2_coeff_off(e, j):
            # (1+x)^-(n+1) gets its x^2 coefficient off by one; the cached
            # factor (1+x)^(k-1) and the closed form's x^3 coefficient are
            # untouched, and r1 reads no binomial
            return binomial(e, j) + (e < 0 and j == 2)

        monkeypatch.setattr(verify_mod, "binomial_general", negative_x2_coeff_off)
        for r in verify_grid([3], range(0, 4), routes=("r1", "r3")):
            assert r.route_values["r3"] is None
            assert r.errors == {"r3": f"convolution route broke at k=3, n={r.instance.n}"}
            assert r.route_values["r1"] == r.reference

    def test_wrong_route4_step_is_reported(self, monkeypatch):
        exact_quotient = verify_mod.exact_quotient
        divisors = []

        def one_step_off(num, den):
            # the first division by 3 in the row, the last step of b(l) for
            # its first instance, returns q+1
            divisors.append(den)
            return exact_quotient(num, den) + (divisors.count(3) == 1 and den == 3)

        monkeypatch.setattr(verify_mod, "exact_quotient", one_step_off)
        first, *rest = verify_grid([4], range(0, 6))
        # every step of b(l) in every column is a checked division; then r5
        # divides by (2)_3 = 24
        assert divisors == [1, 2, 3, 24] * 6
        assert first.route_values["r4"] is None
        assert first.errors == {"r4": "inversion dual identity broke at k=4, n=0"}
        assert all(v == first.reference for name, v in first.route_values.items() if name != "r4")
        assert not first.all_match
        assert all(r.all_match and r.errors == {} for r in rest)

    @pytest.mark.parametrize("k", [3, 4])
    def test_same_last_step_error_in_both_route4_products_is_reported(self, monkeypatch, k):
        exact_quotient = verify_mod.exact_quotient
        # the division by k-1 is the last step of b(l), the one running
        # product; output k of the transform carries b(k) with the sign
        # (-1)^k, so the closed form of a(k) sees the error for odd and even k
        monkeypatch.setattr(verify_mod, "exact_quotient", lambda num, den: exact_quotient(num, den) + (den == k - 1))
        reports = verify_grid([k], range(0, 6))
        for r in reports:
            assert r.route_values["r4"] is None
            assert r.errors == {"r4": f"inversion dual identity broke at k={k}, n={r.instance.n}"}
            assert all(v == r.reference for name, v in r.route_values.items() if name != "r4")
            assert not r.all_match

    def test_failed_row_check_marks_every_instance_of_the_row(self, monkeypatch):
        # a wrong product x(x+1)...(x+k-1) fails r6's one check per row, and
        # so every n of the row
        rising_poly = series_mod.rising_factorial_poly
        monkeypatch.setattr(series_mod, "rising_factorial_poly", lambda k: rising_poly(k - 1))
        reports = verify_grid(range(2, 4), range(0, 3), routes=("r1", "r6"))
        assert len(reports) == 6
        for r in reports:
            assert r.route_values["r6"] is None
            assert r.errors == {"r6": f"Stirling generating functions broke at k={r.instance.k}"}
            assert r.route_values["r1"] == r.reference
            assert not r.all_match


def _primitive_off(origin, name, make):
    # a fault in the primitive ``name`` of ``origin``, installed in every
    # module that holds the name
    def install(monkeypatch):
        primitive = getattr(origin, name)
        fault = make(primitive)
        for module in (exact_mod, numbers_mod, series_mod, verify_mod):
            if getattr(module, name, None) is primitive:
                monkeypatch.setattr(module, name, fault)

    return install


def _weight_off(kind, at):
    # a triangle recurrence whose weight at (n, k) = at is one more
    def install(monkeypatch):
        weights = numbers_mod._TRIANGLE_WEIGHTS[kind]
        monkeypatch.setitem(numbers_mod._TRIANGLE_WEIGHTS, kind,
                            lambda n, ks: [w + ((n, k) == at) for k, w in zip(ks, weights(n, ks))])

    return install


def _hypergeom_sum_off(hypergeom):
    def summed(a, b, c):
        num, den = hypergeom(a, b, c)
        return (num + den, den) if a == -3 else (num, den)

    return summed


def _rising_poly_off(rising_poly):
    return lambda k: Polynomial(tuple(c + (j == 2) for j, c in enumerate(rising_poly(k).coeffs)))


class TestFaultMatrix:
    """Which report columns see a one-entry fault in a primitive that the
    routes and the oracle share, on 2 <= k <= 11, 0 <= n <= 13. A column
    flags a fault where its value is None or differs from the closed form
    taken before the fault; the rows are the k where any column flags it.
    The matrix shows which computations a fault reaches; it cannot show
    that a route's value repeats another column's formula."""

    KS, NS = range(2, 12), range(0, 14)
    FAULTS = [
        pytest.param(_primitive_off(numbers_mod, "lah", lambda lah: lambda n, k: lah(n, k) + ((n, k) == (4, 2))),
                     {"lhs_direct", "r6"}, range(4, 5), id="lah(4,2)+1"),
        # rising(x, n) is falling(x + n - 1, n), and r5 reads rising(., k - 1)
        pytest.param(_primitive_off(exact_mod, "falling", lambda falling: lambda x, n: falling(x, n) + (n == 2)),
                     {"r5"}, range(3, 4), id="falling(x,2)+1"),
        pytest.param(_primitive_off(exact_mod, "binomial_general",
                                    lambda binomial: lambda r, j: binomial(r, j) + ((r, j) == (-4, 2))),
                     {"r3"}, range(2, 12), id="binomial_general(-4,2)+1"),
        # r2's closed side (1-x)^(n+1) at n = 4 fails that column for every
        # k; the direct sum and r6 read C(5, 2) in the closed form L(6, 3),
        # and r3 in its factor (1+x)^(k-1) at k = 6
        pytest.param(_primitive_off(exact_mod, "binomial_general",
                                    lambda binomial: lambda r, j: binomial(r, j) + ((r, j) == (5, 2))),
                     {"lhs_direct", "r2", "r3", "r6"}, range(2, 12), id="binomial_general(5,2)+1"),
        pytest.param(_primitive_off(exact_mod, "rising", lambda rising: lambda x, n: rising(x, n) + (n == 3)),
                     {"r5"}, range(4, 5), id="rising(x,3)+1"),
        # row 5 of the Lah triangle is the first built with the weight at
        # n = 4, and r1 reads row k-1
        pytest.param(_weight_off("lah", (4, 2)), {"r1"}, range(6, 12), id="lah-weight(4,2)"),
        # row 6 of the Stirling triangle is the first built with the weight
        # at n = 5, and r6 reads rows 0..k
        pytest.param(_weight_off("stirling1", (5, 2)), {"r6"}, range(6, 12), id="stirling1-weight(5,2)"),
        # every product x(x+1)...(x+k-1) with k >= 2 has a coefficient 2
        pytest.param(_primitive_off(series_mod, "rising_factorial_poly", _rising_poly_off),
                     {"r6"}, range(2, 12), id="rising_factorial_poly-coeff2+1"),
        pytest.param(_primitive_off(verify_mod, "binomial_inversion",
                                    lambda inv: lambda b: [v + (j == 4) for j, v in enumerate(inv(b))]),
                     {"r4"}, range(4, 12), id="transform-output4+1"),
        # r5 sums the series at a = 1-k
        pytest.param(_primitive_off(verify_mod, "hypergeom_2f1_terminating", _hypergeom_sum_off),
                     {"r5"}, range(4, 5), id="2f1-sum(a=-3)+1"),
        pytest.param(_primitive_off(exact_mod, "factorial", lambda factorial: lambda m: factorial(m) + (m == 7)),
                     {"lhs_direct", *ROUTE_NAMES}, range(2, 12), id="factorial(7)+1"),
    ]

    @pytest.mark.parametrize(("install", "columns", "rows"), FAULTS)
    def test_fault_is_seen_by_these_columns(self, monkeypatch, install, columns, rows):
        expected = {(k, n): rhs_reference(IdentityInstance(k, n)) for k in self.KS for n in self.NS}
        install(monkeypatch)
        flagged: dict[str, set[int]] = {}
        for r in verify_grid(self.KS, self.NS):
            for name, value in r.route_values.items():
                if value is None or value != expected[tuple(r.instance)]:
                    flagged.setdefault(name, set()).add(r.instance.k)
        assert set(flagged) == columns
        assert set().union(*flagged.values()) == set(rows)


class TestRoute4Columns:
    KS, NS = range(2, 8), range(0, 6)
    # the transform output, or the step l (division by l, making b(l+1)),
    # that a fault breaks: (k, n) must fail exactly when k >= 4
    FAULT_AT = {"transform": 4, "quotient": 3}

    def _grid(self, build, forks):
        if build == "ascending":
            # outside a grid nothing is kept, so every instance builds its
            # columns afresh
            return [verify_instance(IdentityInstance(k, n), ("r1", "r4")) for k in self.KS for n in self.NS]
        jobs = int(build[-1])
        reports = verify_grid(self.KS, self.NS, ("r1", "r4"), jobs=jobs)
        assert len(forks) == jobs - 1
        return reports

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
    @pytest.mark.parametrize("build", ["jobs-1", "jobs-2", "ascending"])
    @pytest.mark.parametrize("fault", ["transform", "quotient"])
    def test_fault_fails_every_k_that_reads_it(self, monkeypatch, forks, fault, build):
        at = self.FAULT_AT[fault]
        if fault == "transform":
            inversion = verify_mod.binomial_inversion

            def output_off(b):
                return [v + (j == at) for j, v in enumerate(inversion(b))]

            monkeypatch.setattr(verify_mod, "binomial_inversion", output_off)
            message = "inversion dual identity broke at k={k}, n={n}"
        else:
            exact_quotient = verify_mod.exact_quotient

            def step_raises(num, den):
                if den == at:
                    raise ConsistencyError("integer quotient has a non-zero remainder")
                return exact_quotient(num, den)

            monkeypatch.setattr(verify_mod, "exact_quotient", step_raises)
            message = "integer quotient has a non-zero remainder"
        reports = self._grid(build, forks)
        assert [tuple(r.instance) for r in reports] == [(k, n) for k in self.KS for n in self.NS]
        for r in reports:
            k, n = r.instance
            assert r.route_values["r1"] == r.reference
            if k >= 4:
                assert r.route_values["r4"] is None, (k, n)
                assert r.errors == {"r4": message.format(k=k, n=n)}
            else:
                assert r.all_match and r.errors == {}, (k, n)

    @staticmethod
    def _count_transforms(monkeypatch):
        # the length of every sequence r4 transforms, one per column built
        lengths = []
        inversion = verify_mod.binomial_inversion

        def counting_inversion(b):
            lengths.append(len(b))
            return inversion(b)

        monkeypatch.setattr(verify_mod, "binomial_inversion", counting_inversion)
        return lengths

    def test_ascending_caller_rebuilds_each_column_per_k(self, monkeypatch):
        lengths = self._count_transforms(monkeypatch)
        divisors = Counter()
        exact_quotient = verify_mod.exact_quotient

        def counting_quotient(num, den):
            divisors[den] += 1
            return exact_quotient(num, den)

        monkeypatch.setattr(verify_mod, "exact_quotient", counting_quotient)
        for k in range(2, 31):
            for n in range(0, 61):
                inst = IdentityInstance(k, n)
                assert route4_inversion(inst) == rhs_reference(inst), (k, n)
        # outside a grid nothing is kept, so every call builds its column
        # through b(k): one transform of b(0..k) per (k, n), and step l,
        # which divides by l, once per n and k > l
        assert lengths == [k + 1 for k in range(2, 31) for n in range(0, 61)]
        assert divisors == {l: 61 * (30 - l) for l in range(1, 30)}

    def test_columns_kept_for_one_grid(self, monkeypatch):
        # the columns of a grid's whole n-range are kept however long it
        # is, each built once, and freed when verify_grid returns or raises
        lengths = self._count_transforms(monkeypatch)
        reports = verify_grid(range(2, 6), range(0, 301), routes=("r4",))
        assert all(r.all_match for r in reports)
        assert lengths == [6] * 301
        assert verify_mod._STORE == {}

        held = []
        inversion = verify_mod.binomial_inversion

        def raising_inversion(b):
            held.append(sorted(verify_mod._STORE))
            if len(held) == 3:
                raise RuntimeError("injected")
            return inversion(b)

        monkeypatch.setattr(verify_mod, "binomial_inversion", raising_inversion)
        with pytest.raises(RuntimeError, match="injected"):
            verify_grid(range(2, 6), range(0, 4), routes=("r4",))
        # the direct sum's rows of k = 5 come first, and stay beside the columns
        rows = [("lah", 5), ("lhs", 5)]
        assert held == [rows, [*rows, ("r4", 0)], [*rows, ("r4", 0), ("r4", 1)]]
        assert verify_mod._STORE == {}


class TestRoute2Columns:
    KS, NS = range(2, 8), range(0, 6)

    @staticmethod
    def _count_builds(monkeypatch):
        # the x^top of every series r2 builds, by n
        tops: dict[int, list[int]] = {}
        build = verify_mod._lah_gf_series

        def counting_build(n, top):
            tops.setdefault(n, []).append(top)
            return build(n, top)

        monkeypatch.setattr(verify_mod, "_lah_gf_series", counting_build)
        return tops

    @given(st.integers(0, 80), st.integers(1, 40))
    def test_coefficient_is_route3_sum_in_value(self, n, top):
        # [x^k] y^l is C(k-1, l-1), so [x^k] G_n is r3's x^k convolution,
        # though r2 forms none of its terms
        series = verify_mod._lah_gf_series(n, top)
        assert series[1:] == [_route3_convolution_reference(k, n) for k in range(1, top + 1)]

    @pytest.mark.parametrize("build", ["jobs-1", "jobs-2", "ascending"])
    def test_column_fault_fails_every_k_of_that_n(self, monkeypatch, forks, build):
        build_series = verify_mod._lah_gf_series

        def entry_off(n, top):
            series = build_series(n, top)
            series[1] += n == 3
            return series

        monkeypatch.setattr(verify_mod, "_lah_gf_series", entry_off)
        if build == "ascending":
            reports = [verify_instance(IdentityInstance(k, n), ("r1", "r2")) for k in self.KS for n in self.NS]
        else:
            jobs = int(build[-1])
            reports = verify_grid(self.KS, self.NS, ("r1", "r2"), jobs=jobs)
            assert len(forks) == jobs - 1
        assert [tuple(r.instance) for r in reports] == [(k, n) for k in self.KS for n in self.NS]
        for r in reports:
            assert r.route_values["r1"] == r.reference
            if r.instance.n == 3:
                assert r.route_values["r2"] is None
                assert r.errors == {"r2": "Lah generating function broke at n=3"}
            else:
                assert r.all_match and r.errors == {}, tuple(r.instance)

    def test_fork_fallback_rebuilds_each_column_through_k(self, monkeypatch, forks):
        # no child can be made, so this process verifies its own share,
        # k = 29, 27, .., 3, and then the other one, k = 30, 28, .., 2: each
        # r2 and r4 column is built through k = 29, then rebuilt through the
        # k = 30 that is read
        tops = self._count_builds(monkeypatch)
        divisors = Counter()
        exact_quotient = verify_mod.exact_quotient

        def counting_quotient(num, den):
            divisors[den] += 1
            return exact_quotient(num, den)

        monkeypatch.setattr(verify_mod, "exact_quotient", counting_quotient)
        monkeypatch.setattr(workers_mod, "_fork_share", lambda share, ns, route_names: None)
        assert all(r.all_match for r in verify_grid(range(2, 31), range(0, 61), ("r2", "r4"), jobs=2))
        assert forks == []
        assert tops == {n: [29, 30] for n in range(0, 61)}
        # step l divides by l: one checked quotient per build of column n
        # that reaches b(l+1)
        assert divisors == {l: 2 * 61 if l <= 28 else 61 for l in range(1, 30)}

    @staticmethod
    def _count_route3_builds(monkeypatch):
        # the x^top of every column r3 builds, by n
        tops: dict[int, list[int]] = {}
        build = verify_mod._route3_column

        def counting_build(n, top):
            tops.setdefault(n, []).append(top)
            return build(n, top)

        monkeypatch.setattr(verify_mod, "_route3_column", counting_build)
        return tops

    def test_grid_builds_each_column_once(self, monkeypatch):
        # rows come largest k first, so the first build of a column is its
        # last: one r2 series and one r3 factor (1+x)^-(n+1) through x^30,
        # and one r4 transform of b(0..30), per n
        tops = self._count_builds(monkeypatch)
        route3_tops = self._count_route3_builds(monkeypatch)
        lengths = TestRoute4Columns._count_transforms(monkeypatch)
        assert all(r.all_match for r in verify_grid(range(2, 31), range(0, 61), ("r2", "r3", "r4")))
        assert tops == route3_tops == {n: [30] for n in range(0, 61)}
        assert lengths == [31] * 61

    def test_route3_column_is_the_negative_binomial_factor(self):
        column = verify_mod._route3_column(4, 6)
        assert column == [binomial_general(-5, i) for i in range(7)] == [1, -5, 15, -35, 70, -126, 210]

    def test_grid_leaves_no_column_behind(self, monkeypatch):
        assert all(r.all_match for r in verify_grid(range(2, 6), range(0, 10), ("r2", "r3", "r4")))
        assert verify_mod._STORE == {}

        route3_build = verify_mod._route3_column

        def raising_route3_build(n, top):
            if n == 2:
                raise RuntimeError("injected in r3")
            return route3_build(n, top)

        monkeypatch.setattr(verify_mod, "_route3_column", raising_route3_build)
        with pytest.raises(RuntimeError, match="injected in r3"):
            verify_grid(range(2, 6), range(0, 4), ("r3",))
        assert verify_mod._STORE == {}

        held = []
        build = verify_mod._lah_gf_series

        def raising_build(n, top):
            # each route keeps its own column n, under its own name
            held.append(sorted(verify_mod._STORE))
            if n == 2:
                raise RuntimeError("injected")
            return build(n, top)

        monkeypatch.setattr(verify_mod, "_lah_gf_series", raising_build)
        with pytest.raises(RuntimeError, match="injected"):
            verify_grid(range(2, 6), range(0, 4), ("r2", "r4"))
        rows = [("lah", 5), ("lhs", 5)]
        assert held == [rows, [*rows, ("r2", 0), ("r4", 0)], [*rows, ("r2", 0), ("r2", 1), ("r4", 0), ("r4", 1)]]
        assert verify_mod._STORE == {}


def _lhs_literal(k, n):
    # the sum over l of (-1)^l (n+l)! L(k, l), with L(k, l) = C(k-1, l-1) k!/l!
    return sum((-1) ** l * math.factorial(n + l) * math.comb(k - 1, l - 1) * math.factorial(k) // math.factorial(l)
               for l in range(1, k + 1))


class TestVerifyInstance:
    @given(st.integers(2, 40), st.integers(0, 80))
    def test_lhs_direct_is_the_literal_sum(self, k, n):
        assert lhs_direct(IdentityInstance(k, n)) == _lhs_literal(k, n)

    def test_route_names_checked_once_per_grid(self, monkeypatch):
        # the grid checks its names, and every instance takes them as checked
        checks = []
        route_names = verify_mod._route_names

        def counting_names(routes):
            names = route_names(routes)
            checks.append(names is not routes)
            return names

        monkeypatch.setattr(verify_mod, "_route_names", counting_names)
        assert all(r.all_match for r in verify_grid(range(2, 5), range(0, 4), ("r4", "r1", "r4")))
        assert checks == [True] + [False] * 12
        assert verify_instance(IdentityInstance(2, 1), ["r1"]).all_match
        assert checks[-1] is True

    def test_report_contents(self):
        report = verify_instance(IdentityInstance(2, 1), routes=("r1", "r5"))
        assert report.reference == 2
        assert list(report.route_values) == ["lhs_direct", "r1", "r5"]
        assert report.all_match

    def test_empty_route_set(self):
        report = verify_instance(IdentityInstance(4, 1), routes=())
        assert list(report.route_values) == ["lhs_direct"]
        assert report.reference == 0
        assert report.all_match

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            verify_instance(IdentityInstance(2, 1), routes=("r9",))

    def test_unknown_route_names_the_choices(self):
        with pytest.raises(ValueError, match=r"^unknown route 'r9' \(choose from r1, r2, r3, r4, r5, r6\)$"):
            verify_instance(IdentityInstance(2, 1), routes=("r9", "r1"))

    def test_one_row_grid_is_one_instance_per_n(self):
        inst = IdentityInstance(4, 6)
        assert verify_instance(inst) == verify_grid([4], [6])[0]
        assert verify_instance(inst).errors == {}


class TestVerifyGrid:
    def test_lexicographic_order_and_matches(self):
        reports = verify_grid(range(2, 4), range(0, 3), routes=ROUTE_NAMES)
        assert len(reports) == 6
        assert [(r.instance.k, r.instance.n) for r in reports] == [
            (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)
        ]
        assert all(r.all_match for r in reports)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            verify_grid(range(1, 3), range(0, 2), routes=("r1",))

    @pytest.mark.parametrize("ks, ns, message", [
        (range(1, 6), range(0, 4), "k >= 2"),
        (range(2, 6), range(-1, 4), "n >= 0"),
    ], ids=["k-below-two", "negative-n"])
    def test_bad_bounds_rejected_before_any_instance_or_fork(self, monkeypatch, forks, ks, ns, message):
        calls = self._count_instances(monkeypatch)
        with pytest.raises(ValueError, match=message):
            verify_grid(ks, ns, routes=("r1", "r4"), jobs=2)
        assert calls == []
        assert forks == []

    def test_unknown_route_rejected_before_any_fork(self, forks):
        with pytest.raises(ValueError, match="unknown route 'r9'"):
            verify_grid(range(2, 6), range(0, 4), routes=("r1", "r9"), jobs=2)
        assert forks == []

    def test_one_row_grid_sorts_ns_forks_nothing_and_keeps_no_column(self, forks):
        # the one way to verify a row: n ascending without repeats, no fork
        # at any job count, and no r2 or r4 column left behind
        reports = verify_grid([3], [4, 1, 4, 0], routes=("r2", "r4"), jobs=2)
        assert [tuple(r.instance) for r in reports] == [(3, 0), (3, 1), (3, 4)]
        assert all(r.all_match for r in reports)
        assert forks == []
        assert verify_mod._STORE == {}

    def test_jobs_do_not_change_reports(self, forks):
        serial = verify_grid(range(2, 5), range(0, 4), routes=("r1", "r4"), jobs=1)
        parallel = verify_grid(range(2, 5), range(0, 4), routes=("r1", "r4"), jobs=3)
        assert serial == parallel
        # three jobs on two CPUs
        assert len(forks) == 1

    @staticmethod
    def _count_instances(monkeypatch):
        # (k, n) of every verify_instance call made in this process
        calls = []
        verify_instance = verify_mod.verify_instance

        def counting_instance(inst, routes):
            calls.append(tuple(inst))
            return verify_instance(inst, routes)

        monkeypatch.setattr(verify_mod, "verify_instance", counting_instance)
        return calls

    def test_serial_grid_builds_each_report_in_verify_instance(self, monkeypatch):
        calls = self._count_instances(monkeypatch)
        reports = verify_grid(range(2, 6), range(0, 4), routes=("r1", "r4"), jobs=1)
        assert sorted(calls) == [tuple(r.instance) for r in reports] == [(k, n) for k in range(2, 6) for n in range(4)]

    def test_forked_grid_builds_own_share_in_verify_instance(self, monkeypatch, forks):
        calls = self._count_instances(monkeypatch)
        serial = verify_grid(range(2, 6), range(0, 4), routes=("r1", "r4"), jobs=1)
        calls.clear()
        assert verify_grid(range(2, 6), range(0, 4), routes=("r1", "r4"), jobs=2) == serial
        assert len(forks) == 1
        # rows 5, 4, 3, 2 are dealt in turn: the child verifies 5 and 3,
        # this process 4 and 2, each instance once
        assert sorted(calls) == [(k, n) for k in (2, 4) for n in range(4)]

    def test_mismatch_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setitem(ROUTE_FUNCTIONS, "r1", lambda inst: 10**9)
        reports = verify_grid(range(2, 3), range(0, 2), routes=("r1",))
        assert all(not r.all_match for r in reports)
        assert all(r.route_values["r1"] == 10**9 for r in reports)

    # the builder of each row a route keeps, by its name in the store
    ROWS = {"lah_row": "lah", "_lhs_row": "lhs", "_route1_row": "r1", "_route3_factor": "r3 factor",
            "_route6_row": "r6"}

    def test_row_caches_built_once_per_row(self, monkeypatch):
        calls = []
        closed_form = numbers_mod.lah

        def counting_lah(n, k):
            calls.append((n, k))
            return closed_form(n, k)

        monkeypatch.setattr(numbers_mod, "lah", counting_lah)
        builds, reads = Counter(), Counter()
        for builder, name in self.ROWS.items():
            def counting_build(k, build=getattr(verify_mod, builder), name=name):
                builds[name, k] += 1
                return build(k)

            monkeypatch.setattr(verify_mod, builder, counting_build)
        row = verify_mod._row

        def counting_row(name, k, build):
            reads[name, k] += 1
            return row(name, k, build)

        monkeypatch.setattr(verify_mod, "_row", counting_row)
        reports = verify_grid(range(2, 6), range(0, 8), routes=("r1", "r2", "r3", "r4", "r6"))
        assert all(r.all_match for r in reports)
        # one Lah row per k, in the order dealt, from the closed form, read by
        # the signed row of lhs_direct and by r6's row; r1 reads the triangle
        # recurrence instead, and r2 no Lah number
        assert calls == [(k, l) for k in range(5, 1, -1) for l in range(k + 1)]
        # each row is built once per k and read for every n; the Lah row is
        # read by the two rows built from it
        assert builds == {(name, k): 1 for name in self.ROWS.values() for k in range(2, 6)}
        assert reads == {(name, k): 2 if name == "lah" else 8 for name in self.ROWS.values() for k in range(2, 6)}
        assert verify_mod._STORE == {}

    def test_route6_makes_no_lah_calls_of_its_own(self, monkeypatch):
        # r6's row reads the Lah row that lhs_direct keeps for its row
        calls = []
        closed_form = numbers_mod.lah

        def counting_lah(n, k):
            calls.append((n, k))
            return closed_form(n, k)

        # every module that holds the closed form calls the counting one
        for module in (numbers_mod, verify_mod):
            if getattr(module, "lah", None) is closed_form:
                monkeypatch.setattr(module, "lah", counting_lah)
        counts = {}
        for routes in (("r1",), ("r1", "r6")):
            # each grid builds its rows afresh
            calls.clear()
            assert all(r.all_match for r in verify_grid(range(2, 6), range(0, 8), routes=routes))
            counts[routes] = len(calls)
        # one closed-form Lah row L(k, 0..k) per k
        assert counts == {("r1",): 3 + 4 + 5 + 6, ("r1", "r6"): 3 + 4 + 5 + 6}

    @pytest.mark.parametrize("name", ["lah_row", "_lhs_row", "_route1_row", "_route3_factor", "_route6_row"])
    def test_row_caches_are_bounded_and_immutable(self, monkeypatch, name):
        # the row a route keeps is a tuple of ints, shared by every n, and
        # kept only while its grid runs, which bounds the store
        build = getattr(verify_mod, name)
        held = []

        def snapshot_build(k):
            held.append(dict(verify_mod._STORE))
            return build(k)

        monkeypatch.setattr(verify_mod, name, snapshot_build)
        assert all(r.all_match for r in verify_grid([5, 6], [3]))
        # rows come largest k first, so row 6 is kept when row 5 is built
        assert len(held) == 2
        value = held[1][self.ROWS[name], 6]
        assert value == build(6)
        assert type(value) is tuple
        assert all(type(entry) is int for entry in value)
        assert verify_mod._STORE == {}

    def test_nothing_outlives_a_grid(self, monkeypatch):
        # verify and numbers define no lru_cache, found through the garbage
        # collector rather than by name: every row and column that a route
        # keeps is in the one store, under a name of its own
        modules = {numbers_mod.__name__, verify_mod.__name__}
        assert [obj for obj in gc.get_objects()
                if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ in modules] == []
        # a call made outside a grid builds what it reads and keeps nothing
        outside = verify_mod._STORE
        inst = IdentityInstance(3, 2)
        assert verify_instance(inst).all_match
        assert lhs_direct(inst) == rhs_reference(inst)
        for name, route in ROUTE_FUNCTIONS.items():
            assert route(inst) == rhs_reference(inst), name
        assert verify_mod._STORE == {}
        # a grid keeps them while it runs, and puts back the store it found
        # when it returns or raises
        held = []
        route6 = ROUTE_FUNCTIONS["r6"]

        def snapshot_route6(inst, raises=False):
            value = route6(inst)
            held.append(sorted(verify_mod._STORE))
            if raises:
                raise RuntimeError("injected")
            return value

        monkeypatch.setitem(ROUTE_FUNCTIONS, "r6", snapshot_route6)
        assert verify_grid([3], [2])[0].all_match
        assert verify_mod._STORE is outside and outside == {}
        monkeypatch.setitem(ROUTE_FUNCTIONS, "r6", lambda inst: snapshot_route6(inst, raises=True))
        with pytest.raises(RuntimeError, match="injected"):
            verify_grid([3], [2])
        assert verify_mod._STORE is outside and outside == {}
        assert held == [[("lah", 3), ("lhs", 3), ("r1", 3), ("r2", 2), ("r3", 2), ("r3 factor", 3), ("r4", 2),
                         ("r6", 3)]] * 2

    def test_overlapping_grids_leave_no_store_behind(self, monkeypatch):
        # a grid in a second thread starts while the first runs and ends
        # after it: neither may leave a dict in place, or every later call
        # outside a grid would keep what it builds
        import threading

        outside = verify_mod._STORE
        route5 = ROUTE_FUNCTIONS["r5"]

        def slow_route5(inst):
            time.sleep(0.1 if inst.k == 3 else 0.3)
            return route5(inst)

        monkeypatch.setitem(ROUTE_FUNCTIONS, "r5", slow_route5)
        done = []
        threads = [threading.Thread(target=lambda k=k: done.append(verify_grid([k], [0], ("r5",)))) for k in (3, 4)]
        threads[0].start()
        time.sleep(0.02)
        threads[1].start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(done) == 2 and all(reports[0].all_match for reports in done)
        assert verify_mod._STORE is outside
        for n in range(100):
            verify_instance(IdentityInstance(3, n), ("r2", "r4"))
        assert verify_mod._STORE == {}

    @settings(deadline=None)
    @given(st.lists(st.integers(2, 9), max_size=5), st.lists(st.integers(0, 12), max_size=6),
           st.sets(st.sampled_from(ROUTE_NAMES)))
    def test_store_changes_no_report(self, ks, ns, routes):
        # a grid shares every row and column through one store; each
        # instance verified alone, which keeps nothing, must report the same,
        # so that no row key can collide with a column key
        reports = verify_grid(ks, ns, routes)
        assert verify_mod._STORE == {}
        alone = [verify_instance(IdentityInstance(k, n), routes)
                 for k in (sorted(set(ks)) if ns else []) for n in sorted(set(ns))]
        assert reports == alone

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
    def test_interrupt_kills_the_children_before_waiting(self, monkeypatch, forks):
        # the child's route blocks far past the deadline, and this process
        # is interrupted in its own share: the grid must not wait for the
        # child's share, and must leave no child behind
        parent = os.getpid()

        def interrupted_here_blocked_there(inst):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(10)

        monkeypatch.setitem(ROUTE_FUNCTIONS, "r1", interrupted_here_blocked_there)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            verify_grid([2, 3], [0], ("r1",), jobs=2)
        assert time.monotonic() - start < 1
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
    def test_sigterm_kills_the_children_before_waiting(self, monkeypatch, forks):
        # while a grid has children, SIGTERM raises SystemExit(143) and so
        # takes the interrupt's path; the handler found before is put back,
        # here one that ignores the signal, so that a grid that set no
        # handler of its own would wait for its child
        import signal

        parent = os.getpid()

        def terminated_here_blocked_there(inst):
            if os.getpid() == parent:
                os.kill(parent, signal.SIGTERM)
                return rhs_reference(inst)
            time.sleep(10)

        def ignore(signum, frame):
            pass

        monkeypatch.setitem(ROUTE_FUNCTIONS, "r1", terminated_here_blocked_there)
        previous = signal.signal(signal.SIGTERM, ignore)
        try:
            start = time.monotonic()
            with pytest.raises(SystemExit) as caught:
                verify_grid([2, 3], [0], ("r1",), jobs=2)
            assert time.monotonic() - start < 1
            assert signal.getsignal(signal.SIGTERM) is ignore
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert caught.value.code == 128 + signal.SIGTERM == 143
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
    def test_forking_grid_runs_outside_the_main_thread(self, forks):
        # only the main thread can set a signal handler, so there a grid
        # forks and runs without one
        import threading

        serial = verify_grid(range(2, 5), range(0, 4), ("r1", "r4"))
        done = []
        thread = threading.Thread(target=lambda: done.append(verify_grid(range(2, 5), range(0, 4), ("r1", "r4"),
                                                                         jobs=2)))
        thread.start()
        thread.join(60)
        assert done == [serial]
        assert len(forks) == 1

    def test_workers_never_more_than_rows_cpus_or_work(self, monkeypatch, forks):
        def forks_for(*args, **kwargs):
            # this process does one share and forks one child per other
            # share, so a grid of w workers forks w - 1 children
            before = len(forks)
            reports = verify_grid(*args, **kwargs)
            return reports, len(forks) - before

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        serial = verify_grid(range(2, 4), range(0, 4), routes=("r1",), jobs=1)
        # two rows: the row count caps the workers below the CPU count
        assert forks_for(range(2, 4), range(0, 4), routes=("r1",), jobs=1000) == (serial, 1)
        # one row: no child at all
        assert forks_for(range(2, 3), range(0, 2), routes=("r1",), jobs=1000) == (serial[:2], 0)
        # four rows: the CPU count caps the workers
        serial_wide = verify_grid(range(2, 6), range(0, 2), routes=("r1",), jobs=1)
        assert forks_for(range(2, 6), range(0, 2), routes=("r1",), jobs=1000) == (serial_wide, 2)
        # the work caps the workers: 2 values of n times 2 + 3 + 4 + 5 is 28
        # units, the work of one worker at a grain of 15 and of two at 14
        monkeypatch.setattr(verify_mod, "_FORK_GRAIN", 15)
        assert forks_for(range(2, 6), range(0, 2), routes=("r1",), jobs=1000) == (serial_wide, 0)
        monkeypatch.setattr(verify_mod, "_FORK_GRAIN", 14)
        assert forks_for(range(2, 6), range(0, 2), routes=("r1",), jobs=1000) == (serial_wide, 1)
        # no affinity mask and no CPU count: one CPU
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert forks_for(range(2, 4), range(0, 4), routes=("r1",), jobs=1000) == (serial, 0)
        # no affinity mask: every CPU counts
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert forks_for(range(2, 6), range(0, 2), routes=("r1",), jobs=1000) == (serial_wide, 1)
        # the serial grids above forked nothing either
        assert len(forks) == 5

    def test_one_usable_cpu_forks_nothing(self, monkeypatch, forks):
        # the machine has two CPUs, but the affinity mask allows one
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = verify_grid(range(2, 6), range(0, 4), routes=("r1",), jobs=1)
        assert verify_grid(range(2, 6), range(0, 4), routes=("r1",), jobs=2) == serial
        assert forks == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_fork_only_from_twice_the_grain(self, jobs):
        # a fresh interpreter on as many usable CPUs as jobs, so that
        # whether the run imports pickle and signal shows; below twice the
        # grain no child is forked, from it on one child, whatever the jobs,
        # and neither side loads a process pool
        rows = range(2, 30)
        below = (2 * verify_mod._FORK_GRAIN - 1) // sum(rows)
        script = f"""
import os, sys
import lahverify.verify as verify_mod
os.sched_getaffinity = lambda pid: set(range({jobs}))
fork = os.fork
forks = []
def counting_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counting_fork
for n_count in ({below}, {below + 1}):
    work = n_count * sum({rows!r})
    parallel = verify_mod.verify_grid({rows!r}, range(n_count), ("r1",), jobs={jobs})
    loaded = sorted({{"pickle", "signal"}} & sys.modules.keys())
    pools = sorted({{"concurrent.futures", "multiprocessing"}} & sys.modules.keys())
    serial = verify_mod.verify_grid({rows!r}, range(n_count), ("r1",), jobs=1)
    print(work // verify_mod._FORK_GRAIN, len(forks), loaded, pools, parallel == serial)
    forks.clear()
"""
        src = os.path.dirname(os.path.dirname(verify_mod.__file__))
        out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.splitlines() == ["1 0 [] [] True", "2 1 ['pickle', 'signal'] [] True"]
