from __future__ import annotations

import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lahverify.exact import ConsistencyError, binomial_general, factorial, falling, rising
from lahverify.numbers import lah, lah_row, lah_triangle
from lahverify.series import (
    falling_factorial_poly,
    poly_add,
    poly_from_coeffs,
    poly_scale,
    rising_factorial_poly,
    series_binomial_power,
    series_mul,
    POLY_ZERO,
)
from lahverify.symbolic import exp_derivative_lah, stirling_weighted_moment
from lahverify.verify import (
    ROUTE_FUNCTIONS,
    ROUTE_NAMES,
    IdentityInstance,
    VerificationReport,
    binomial_inversion,
    chu_vandermonde_binomial,
    chu_vandermonde_closed,
    gkp_identity,
    hypergeom_2f1_terminating,
    lhs_direct,
    rhs_reference,
    route1_gkp,
    route2_factorial_gf,
    route3_convolution,
    route4_inversion,
    route5_hypergeom,
    route6_row,
    route6_stirling,
    verify_grid,
    verify_instance,
    verify_row,
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
# row sum, r1's reduced sum and r4's factorial-quotient sequences, kept as
# references: the properties below require exact equality with them


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


def _route1_reduced_reference(k, n):
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
    # one value of each of the seven value types
    VALUES = [
        IdentityInstance(3, 4),
        VerificationReport(IdentityInstance(2, 1), 2, {"r1": 2}, True),
        lah_triangle(3),
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

    def test_default_errors_empty_and_read_only(self):
        first = VerificationReport(IdentityInstance(2, 1), 2, {"r1": 2}, True)
        second = VerificationReport(IdentityInstance(2, 2), 0, {"r1": 0}, True)
        assert first.errors == {}
        with pytest.raises(TypeError):
            first.errors["r1"] = "broke"
        assert second.errors == {}
        copy = pickle.loads(pickle.dumps(first))
        assert copy == first and copy.errors == {}


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
        # (l, m, s) = (k-1, -1, n) is the specialization route 1 relies on
        for k, n in ((2, 1), (3, 2), (5, 3)):
            lhs, rhs = gkp_identity(k - 1, -1, n, n)
            assert lhs == rhs
            reduced = sum(
                (-1) ** l * _pascal(n + l, n) * _pascal(k - 1, l - 1)
                for l in range(1, k + 1)
            )
            assert reduced == lhs

    @given(st.integers(2, 40), st.integers(0, 80))
    def test_left_side_is_route1_reduced_sum(self, k, n):
        assert gkp_identity(k - 1, -1, n, n)[0] == _route1_reduced_reference(k, n)

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
                assert hypergeom_2f1_terminating(0, b, c) == 1
                assert chu_vandermonde_closed(0, b, c) == 1

    def test_examples(self):
        assert hypergeom_2f1_terminating(-1, 3, 2) == Fraction(-1, 2)
        assert hypergeom_2f1_terminating(-2, 3, 2) == 0
        assert chu_vandermonde_closed(-1, 3, 2) == Fraction(-1, 2)
        assert chu_vandermonde_closed(-2, 3, 2) == 0

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
        value = hypergeom_2f1_terminating(a, b, c)
        assert type(value) is Fraction
        assert value == _hypergeom_reference(a, b, c)

    def test_series_matches_closed_form_block(self):
        for a in range(-8, 1):
            for b in range(-8, 9):
                for c in range(1, 9):
                    assert hypergeom_2f1_terminating(a, b, c) == chu_vandermonde_closed(a, b, c)


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
    @pytest.mark.parametrize("route", [route1_gkp, route2_factorial_gf, route3_convolution,
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
        assert route2_factorial_gf(IdentityInstance(k, n)) == _route2_row_sum_reference(k, n)

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
        # one chain per row, at the largest order the row needs, reads the
        # same brackets as a chain at each instance's own order
        for k in range(2, 21):
            row = route6_row(k, range(0, 41))
            assert sorted(row) == list(range(0, 41))
            for n, value in row.items():
                inst = IdentityInstance(k, n)
                assert value == route6_stirling(inst) == rhs_reference(inst), (k, n)

    def test_factorial_generating_function_as_polynomials(self):
        # row identity behind route 2: x(x+1)...(x+n-1) equals the
        # Lah-weighted sum of falling factorial polynomials
        for n in range(13):
            acc = POLY_ZERO
            for k in range(n + 1):
                acc = poly_add(acc, poly_scale(falling_factorial_poly(k), lah(n, k)))
            assert acc == rising_factorial_poly(n)


class TestInternalGuards:
    def test_route5_raises_on_closed_form_disagreement(self, monkeypatch):
        import lahverify.verify as verify_mod

        monkeypatch.setattr(verify_mod, "chu_vandermonde_closed", lambda a, b, c: Fraction(7))
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
        import lahverify.verify as verify_mod

        monkeypatch.setattr(verify_mod, "chu_vandermonde_closed", lambda a, b, c: Fraction(7))
        reports = verify_row(3, range(0, 3), routes=("r1", "r5"))
        assert [r.instance.n for r in reports] == [0, 1, 2]
        for r in reports:
            assert r.route_values["r5"] is None
            assert r.route_values["r1"] == r.reference
            assert list(r.errors) == ["r5"]
            assert "hypergeometric route broke at k=3" in r.errors["r5"]
            assert not r.all_match

    @pytest.mark.parametrize("side", [0, 1])
    def test_wrong_route1_side_is_reported(self, monkeypatch, side):
        import lahverify.verify as verify_mod

        gkp = verify_mod.gkp_identity

        def one_side_off(l, m, s, n):
            sides = list(gkp(l, m, s, n))
            sides[side] += 1
            return tuple(sides)

        monkeypatch.setattr(verify_mod, "gkp_identity", one_side_off)
        for r in verify_row(3, range(0, 4), routes=("r1", "r3")):
            assert r.route_values["r1"] is None
            assert r.errors == {"r1": f"binomial-identity route broke at k=3, n={r.instance.n}"}
            assert r.route_values["r3"] == r.reference

    def test_wrong_route3_coefficient_is_reported(self, monkeypatch):
        import lahverify.verify as verify_mod

        power = verify_mod.series_binomial_power

        def last_negative_coeff_off(e, order):
            # (1+x)^-(n+1) gets its x^k coefficient off by one; the cached
            # factor (1+x)^(k-1) is untouched
            series = power(e, order)
            return series._replace(coeffs=(*series.coeffs[:-1], series.coeffs[-1] + (e < 0)))

        monkeypatch.setattr(verify_mod, "series_binomial_power", last_negative_coeff_off)
        for r in verify_row(3, range(0, 4), routes=("r1", "r3")):
            assert r.route_values["r3"] is None
            assert r.errors == {"r3": f"convolution route broke at k=3, n={r.instance.n}"}
            assert r.route_values["r1"] == r.reference

    def test_wrong_route4_step_is_reported(self, monkeypatch):
        import lahverify.verify as verify_mod

        exact_quotient = verify_mod.exact_quotient
        divisors = []

        def one_step_off(num, den):
            # the first division by 3 in the row, the last step of one of
            # the two sequences of its first instance, returns q+1
            divisors.append(den)
            return exact_quotient(num, den) + (divisors.count(3) == 1 and den == 3)

        monkeypatch.setattr(verify_mod, "exact_quotient", one_step_off)
        first, *rest = verify_row(4, range(0, 6))
        # every step of both sequences of every instance is a checked division
        assert divisors == [1, 2, 3] * 2 * 6
        assert first.route_values["r4"] is None
        assert first.errors == {"r4": "inversion dual identity broke at k=4, n=0"}
        assert all(v == first.reference for name, v in first.route_values.items() if name != "r4")
        assert not first.all_match
        assert all(r.all_match and r.errors == {} for r in rest)

    def test_same_last_step_error_in_both_route4_products_is_reported(self, monkeypatch):
        import lahverify.verify as verify_mod

        exact_quotient = verify_mod.exact_quotient
        # at k=4 the division by 3 is the last step of a(l) and of b(l);
        # the difference table alone passes this fault for even k
        monkeypatch.setattr(verify_mod, "exact_quotient", lambda num, den: exact_quotient(num, den) + (den == 3))
        reports = verify_row(4, range(0, 6))
        for r in reports:
            assert r.route_values["r4"] is None
            assert r.errors == {"r4": f"inversion dual identity broke at k=4, n={r.instance.n}"}
            assert all(v == r.reference for name, v in r.route_values.items() if name != "r4")
            assert not r.all_match

    def test_failed_chain_marks_every_instance_of_the_row(self, monkeypatch):
        import lahverify.verify as verify_mod

        def broken_chain(m, k):
            raise ConsistencyError(f"moment chain mismatch at m={m}, k={k}")

        monkeypatch.setattr(verify_mod, "route6_coefficient_chain", broken_chain)
        reports = verify_grid(range(2, 4), range(0, 3), routes=("r1", "r6"))
        assert len(reports) == 6
        for r in reports:
            assert r.route_values["r6"] is None
            assert r.errors == {"r6": f"moment chain mismatch at m=3, k={r.instance.k}"}
            assert r.route_values["r1"] == r.reference
            assert not r.all_match


class TestVerifyInstance:
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

    def test_one_n_case_of_verify_row(self):
        inst = IdentityInstance(4, 6)
        assert verify_instance(inst) == verify_row(4, [6])[0]
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

    def test_jobs_do_not_change_reports(self):
        serial = verify_grid(range(2, 5), range(0, 4), routes=("r1", "r4"), jobs=1)
        parallel = verify_grid(range(2, 5), range(0, 4), routes=("r1", "r4"), jobs=3)
        assert serial == parallel

    def test_mismatch_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setitem(ROUTE_FUNCTIONS, "r1", lambda inst: 10**9)
        reports = verify_grid(range(2, 3), range(0, 2), routes=("r1",))
        assert all(not r.all_match for r in reports)
        assert all(r.route_values["r1"] == 10**9 for r in reports)

    def test_one_chain_per_row(self, monkeypatch):
        import lahverify.verify as verify_mod

        calls = []
        chain = verify_mod.route6_coefficient_chain

        def counting_chain(m, k):
            calls.append((m, k))
            return chain(m, k)

        monkeypatch.setattr(verify_mod, "route6_coefficient_chain", counting_chain)
        reports = verify_grid(range(2, 6), range(0, 8), routes=("r6",))
        assert all(r.all_match for r in reports)
        assert calls == [(8, 2), (8, 3), (8, 4), (8, 5)]

    def test_row_caches_built_once_per_row(self, monkeypatch):
        import lahverify.numbers as numbers_mod
        import lahverify.verify as verify_mod

        calls = []
        closed_form = numbers_mod.lah

        def counting_lah(n, k):
            calls.append((n, k))
            return closed_form(n, k)

        monkeypatch.setattr(numbers_mod, "lah", counting_lah)
        caches = (lah_row, verify_mod._route3_factor)
        for cache in caches:
            cache.cache_clear()
        reports = verify_grid(range(2, 6), range(0, 8), routes=("r2", "r3", "r4"))
        assert all(r.all_match for r in reports)
        # one Lah row per k, from the closed form, read by lhs_direct and r2
        assert calls == [(k, l) for k in range(2, 6) for l in range(k + 1)]
        # (hits, misses): each cache is built once per row and read for every n
        assert {cache: cache.cache_info()[:2] for cache in caches} == {
            lah_row: (4 * 8 * 2 - 4, 4),
            verify_mod._route3_factor: (4 * 8 - 4, 4),
        }

    @pytest.mark.parametrize("name", ["lah_row", "_route3_factor"])
    def test_row_caches_are_bounded_and_immutable(self, name):
        import lahverify.verify as verify_mod

        cache = getattr(verify_mod, name)
        assert type(cache.cache_parameters()["maxsize"]) is int
        value = cache(6)
        assert type(value) is tuple
        assert all(type(entry) in (int, tuple) for entry in value)

    def test_pool_never_larger_than_instances_or_cpus(self, monkeypatch):
        import lahverify.verify as verify_mod

        real_fork = verify_mod.os.fork
        forks = []

        def counting_fork():
            # this process does one share and forks one child per other
            # share, so a grid of w workers forks w - 1 children
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        def forks_for(*args, **kwargs):
            before = len(forks)
            reports = verify_grid(*args, **kwargs)
            return reports, len(forks) - before

        monkeypatch.setattr(verify_mod.os, "fork", counting_fork)
        monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 3)
        serial = verify_grid(range(2, 4), range(0, 4), routes=("r1",), jobs=1)
        # two rows: the row count caps the workers below the CPU count
        assert forks_for(range(2, 4), range(0, 4), routes=("r1",), jobs=1000) == (serial, 1)
        # one row: no child at all
        assert forks_for(range(2, 3), range(0, 2), routes=("r1",), jobs=1000) == (serial[:2], 0)
        # four rows: the CPU count caps the workers
        serial_wide = verify_grid(range(2, 6), range(0, 2), routes=("r1",), jobs=1)
        assert forks_for(range(2, 6), range(0, 2), routes=("r1",), jobs=1000) == (serial_wide, 2)
        monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: None)
        assert forks_for(range(2, 4), range(0, 4), routes=("r1",), jobs=1000) == (serial, 0)
        # the serial grids above forked nothing either
        assert len(forks) == 3
