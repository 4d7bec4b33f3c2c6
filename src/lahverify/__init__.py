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
        ("exact", "ConsistencyError binomial_general exact_quotient factorial falling "
                  "reciprocal_factorial_weight rising"),
        ("numbers", "BRUTEFORCE_MAX_N lah lah_bruteforce lah_triangle ordered_block_partitions "
                    "stirling1 stirling1_from_log_series stirling1_from_rising_poly stirling1_triangle"),
        ("series", "Polynomial TruncatedSeries poly_from_coeffs poly_mul rising_factorial_poly "
                   "series_from_coeffs series_log1p series_mul series_scale"),
        ("symbolic", "ExpLaurentExpr LaurentPoly exp_derivative_lah expr_diff_t expr_from_terms "
                     "laurent_diff laurent_from_terms route6_coefficient_chain stirling_weighted_moment"),
        ("verify", "ROUTE_FUNCTIONS ROUTE_NAMES IdentityInstance VerificationReport binomial_inversion "
                   "chu_vandermonde_binomial chu_vandermonde_closed gkp_identity hypergeom_2f1_terminating "
                   "lhs_direct rhs_reference route1_induction route2_factorial_gf route3_convolution "
                   "route4_inversion route5_hypergeom route6_stirling verify_grid "
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
