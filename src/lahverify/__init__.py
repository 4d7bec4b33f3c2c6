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
        ("numbers", "lah stirling1"),
        ("oracles", "BRUTEFORCE_MAX_N TruncatedSeries chu_vandermonde_binomial gkp_identity lah_bruteforce "
                    "lah_triangle ordered_block_partitions series_from_coeffs series_log1p series_mul series_scale "
                    "stirling1_from_log_series stirling1_from_rising_poly stirling1_triangle"),
        ("series", "Polynomial poly_from_coeffs poly_mul rising_factorial_poly"),
        ("symbolic", "ExpLaurentExpr LaurentPoly exp_derivative_lah expr_diff_t expr_from_terms "
                     "laurent_diff laurent_from_terms route6_coefficient_chain stirling_weighted_moment"),
        ("verify", "ROUTE_FUNCTIONS ROUTE_NAMES IdentityInstance VerificationReport binomial_inversion "
                   "chu_vandermonde_closed hypergeom_2f1_terminating "
                   "lhs_direct rhs_reference route1_induction route2_lah_gf route3_convolution "
                   "route4_inversion route5_hypergeom route6_stirling verify_grid "
                   "verify_instance"),
    )
    for name in names.split()
}

__all__ = sorted(_SUBMODULE)


def _forward(module: str, moved: set[str]):
    """The PEP 562 ``__getattr__`` of the submodule ``module``: each name of
    ``moved``, which that module once defined and ``oracles`` defines now,
    resolves there as the same object, so its old import path still works."""

    def forward(name: str):
        if name in moved:
            return getattr(import_module(".oracles", __name__), name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return forward


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
