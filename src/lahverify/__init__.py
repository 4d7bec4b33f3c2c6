"""Exact-arithmetic Lah and Stirling number toolkit.

Computes Lah numbers and signed Stirling numbers of the first kind with
unbounded integer arithmetic, and verifies the alternating factorial-Lah
sum identity through six independent computation routes that must agree
exactly.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# every public name and the submodule that defines it; a name is imported
# on first access, so a command loads only the submodules it uses
_SUBMODULE = {
    name: module
    for module, names in (
        ("exact", "ConsistencyError as_integer binomial_general exact_quotient factorial falling "
                  "reciprocal_factorial_weight rising"),
        ("numbers", "BRUTEFORCE_MAX_N Triangle lah lah_bruteforce lah_triangle ordered_block_partitions "
                    "stirling1 stirling1_from_log_series stirling1_from_rising_poly stirling1_triangle"),
        ("series", "Polynomial TruncatedSeries falling_factorial_poly poly_add poly_eval poly_from_coeffs "
                   "poly_mul poly_scale rising_factorial_poly series_binomial_power series_from_coeffs "
                   "series_log1p series_mul series_scale"),
        ("symbolic", "ExpLaurentExpr LaurentPoly exp_derivative_lah expr_diff_t expr_from_terms expr_moment_u "
                     "expr_mul_u_poly laurent_add laurent_diff laurent_from_terms rising_product_expr "
                     "route6_coefficient_chain stirling_weighted_moment"),
        ("verify", "ROUTE_FUNCTIONS ROUTE_NAMES IdentityInstance VerificationReport binomial_inversion "
                   "chu_vandermonde_binomial chu_vandermonde_closed gkp_identity hypergeom_2f1_terminating "
                   "lhs_direct rhs_reference route1_gkp route2_factorial_gf route3_convolution "
                   "route4_inversion route5_hypergeom route6_row route6_stirling verify_grid "
                   "verify_instance verify_row"),
    )
    for name in names.split()
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
