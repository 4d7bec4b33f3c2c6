from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lahverify.exact import factorial
from lahverify.numbers import stirling1
from lahverify.series import rising_factorial_poly
from lahverify.symbolic import (
    ExpLaurentExpr,
    LaurentPoly,
    _lah_bracket,
    exp_derivative_lah,
    expr_diff_t,
    expr_from_terms,
    expr_moment_u,
    expr_mul_u_poly,
    laurent_diff,
    laurent_from_terms,
    route6_coefficient_chain,
    stirling_weighted_moment,
)

EXP_KERNEL = expr_from_terms([(1, 0, 0)])  # exp(-u/t) itself


def rising_product_expr(m: int) -> ExpLaurentExpr:
    """(u+1)(u+2)...(u+m) * exp(-u/t), multiplied out one factor at a
    time: the expression whose moment the Stirling form is checked
    against."""
    e = EXP_KERNEL
    for j in range(1, m + 1):
        e = expr_mul_u_poly(e, [j, 1])
    return e


term_strategy = st.tuples(
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
    st.integers(0, 6),
    st.integers(-6, 6),
)
expr_strategy = st.builds(expr_from_terms, st.lists(term_strategy, max_size=6))


class TestConstruction:
    def test_like_terms_merge(self):
        e = expr_from_terms([(1, 2, 3), (2, 2, 3), (5, 0, 0)])
        assert e.terms == {(2, 3): 3, (0, 0): 5}

    def test_zero_coefficients_dropped(self):
        assert expr_from_terms([(1, 1, 1), (-1, 1, 1)]).terms == {}

    def test_negative_u_power_rejected(self):
        with pytest.raises(ValueError):
            expr_from_terms([(1, -1, 0)])

    def test_laurent_merge(self):
        p = laurent_from_terms([(1, -2), (Fraction(1, 2), -2), (0, 5)])
        assert p.terms == {-2: Fraction(3, 2)}


class TestDifferentiation:
    def test_first_derivative_of_kernel(self):
        assert expr_diff_t(EXP_KERNEL).terms == {(1, -2): 1}

    def test_second_derivative_of_kernel(self):
        second = expr_diff_t(expr_diff_t(EXP_KERNEL))
        assert second.terms == {(1, -3): -2, (2, -4): 1}

    def test_zero_expression(self):
        zero = expr_from_terms([])
        assert expr_diff_t(zero).terms == {}

    def test_laurent_diff(self):
        p = laurent_from_terms([(3, 2), (5, 0), (1, -1)])
        assert laurent_diff(p).terms == {1: 6, -2: -1}


def _stepwise_diff(p: LaurentPoly, times: int) -> LaurentPoly:
    # the times-th derivative as times single steps, c * t^b to c*b * t^(b-1)
    for _ in range(times):
        p = laurent_from_terms((c * b, b - 1) for b, c in p.terms.items())
    return p


laurent_strategy = st.builds(
    laurent_from_terms,
    st.lists(
        st.tuples(st.integers(-50, 50) | st.fractions(min_value=-9, max_value=9, max_denominator=5),
                  st.integers(-8, 8)),
        max_size=8,
    ),
)


class TestOnePassDerivative:
    @given(laurent_strategy, st.integers(0, 8))
    def test_equals_single_steps(self, p, times):
        assert laurent_diff(p, times) == _stepwise_diff(p, times)

    def test_zero_times_is_identity(self):
        p = laurent_from_terms([(3, 2), (Fraction(1, 2), 0), (-1, -3)])
        assert laurent_diff(p, 0) == p

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            laurent_diff(laurent_from_terms([(1, 1)]), -1)


class TestMoment:
    def test_second_moment(self):
        assert expr_moment_u(expr_from_terms([(1, 2, 0)])).terms == {3: 2}

    def test_plain_kernel_moment(self):
        assert expr_moment_u(EXP_KERNEL).terms == {1: 1}

    def test_first_moment(self):
        assert expr_moment_u(expr_from_terms([(1, 1, 0)])).terms == {2: 1}

    def test_collisions_sum(self):
        e = expr_from_terms([(1, 2, 0), (1, 0, 2)])  # both land on t^3
        assert expr_moment_u(e).terms == {3: 3}

    @given(expr_strategy)
    def test_moment_commutes_with_differentiation(self, e):
        assert expr_moment_u(expr_diff_t(e)) == laurent_diff(expr_moment_u(e))


class TestDerivativeClosedForm:
    def test_order_one(self):
        assert exp_derivative_lah(1).terms == {(1, -2): 1}

    def test_order_two(self):
        assert exp_derivative_lah(2).terms == {(2, -4): 1, (1, -3): -2}

    def test_order_three_coefficients(self):
        # L(3,3)=1, L(3,2)=6, L(3,1)=6 with alternating signs
        assert exp_derivative_lah(3).terms == {(3, -6): 1, (2, -5): -6, (1, -4): 6}

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            exp_derivative_lah(0)

    def test_matches_repeated_differentiation(self):
        e = EXP_KERNEL
        for k in range(1, 13):
            e = expr_diff_t(e)
            assert e == exp_derivative_lah(k)

    def test_terms_are_homogeneous(self):
        # every term c u^a t^b has a + b = -k, which makes route 6's side B
        # one bracket per power of t
        for k in range(1, 13):
            assert all(a + b == -k for a, b in exp_derivative_lah(k).terms)


class TestMomentChain:
    def test_rising_product_expr_small(self):
        assert rising_product_expr(0) == EXP_KERNEL
        assert rising_product_expr(1).terms == {(0, 0): 1, (1, 0): 1}  # u+1
        assert rising_product_expr(2).terms == {(0, 0): 2, (1, 0): 3, (2, 0): 1}  # (u+1)(u+2)

    def test_moment_matches_stirling_form(self):
        for m in range(13):
            assert expr_moment_u(rising_product_expr(m)) == stirling_weighted_moment(m)

    def test_derivatives_of_moment_match_factorial_ratio_form(self):
        # k = m+2 differentiates every term away
        for m in range(13):
            for k in range(1, m + 3):
                derived = stirling_weighted_moment(m)
                for _ in range(k):
                    derived = laurent_diff(derived)
                expected = laurent_from_terms(
                    (
                        (-1 if (m - i) % 2 else 1)
                        * (factorial(i) * factorial(i + 1) // factorial(i - k + 1))
                        * stirling1(m + 1, i + 1),
                        i - k + 1,
                    )
                    for i in range(k - 1, m + 1)
                )
                assert derived == expected

    def test_grouped_side_b_matches_moment_of_product(self):
        # the chain's side B, one bracket per power of t, against the moment
        # of the derivative times (u+1)(u+2)...(u+m), multiplied out term
        # by term; each value returned times its rising coefficient is there
        for m in range(13):
            rising_coeffs = rising_factorial_poly(m + 1).coeffs[1:]
            for k in range(1, m + 3):
                derivative = exp_derivative_lah(k)
                product_moment = expr_moment_u(expr_mul_u_poly(derivative, rising_coeffs))
                grouped = laurent_from_terms(
                    (r * _lah_bracket(derivative, i), i - k + 1) for i, r in enumerate(rising_coeffs)
                )
                assert grouped == product_moment
                brackets = route6_coefficient_chain(m, k)
                assert sorted(brackets) == list(range(m + 1))
                for i in range(m + 1):
                    assert brackets[i] * rising_coeffs[i] == product_moment.coeff(i - k + 1)

    def test_chain_hand_example(self):
        # m=1, k=1: moment of (u+1) * exp(-u/t) is t + t^2 and its
        # derivative is 1 + 2t; the k=1 brackets are (i+1)!
        assert stirling_weighted_moment(1).terms == {1: 1, 2: 1}
        brackets = route6_coefficient_chain(1, 1)
        assert brackets == {0: 1, 1: 2}

    def test_chain_m2_k1_consistent(self):
        brackets = route6_coefficient_chain(2, 1)
        assert brackets == {i: factorial(i + 1) for i in range(3)}

    def test_extracted_bracket_matches_reference_value(self):
        # the bracket at (k=2, i=1) is the unsigned value of the identity at
        # k=2, n=1, which is 2
        assert route6_coefficient_chain(2, 2)[1] == 2

    def test_bad_arguments_rejected(self):
        # m = 0 and k > m+1 are in the domain: the zero band reads 0
        assert route6_coefficient_chain(0, 1) == {0: 1}
        assert route6_coefficient_chain(3, 5) == {0: 0, 1: 0, 2: 0, 3: 0}
        with pytest.raises(ValueError):
            route6_coefficient_chain(3, 0)
        with pytest.raises(ValueError):
            route6_coefficient_chain(-1, 1)


class TestLaurentHelpers:
    def test_coeff_accessor(self):
        p = laurent_from_terms([(Fraction(7, 3), -1)])
        assert p.coeff(-1) == Fraction(7, 3)
        assert p.coeff(99) == 0

    def test_types(self):
        assert isinstance(stirling_weighted_moment(2), LaurentPoly)
        assert isinstance(exp_derivative_lah(2), ExpLaurentExpr)

    def test_stirling_moment_terms_are_int(self):
        assert all(type(c) is int for c in stirling_weighted_moment(6).terms.values())


class TestUPolynomialMultiply:
    def test_shift_by_u(self):
        e = expr_from_terms([(1, 1, -2)])
        assert expr_mul_u_poly(e, [0, 1]).terms == {(2, -2): 1}

    def test_distributes(self):
        e = expr_from_terms([(2, 0, 0), (1, 1, 1)])
        out = expr_mul_u_poly(e, [1, 1])  # multiply by (1 + u)
        assert out.terms == {(0, 0): 2, (1, 0): 2, (1, 1): 1, (2, 1): 1}
