"""Exact arithmetic, shadow bounds, and oracles for cross-intersecting families.

``import crossint`` loads no submodule: the first use of a public name
imports the submodule that defines it (PEP 562).
"""

import importlib

_EXPORTS = {
    "cascade": (
        "CascadeForm", "TruncatedCascade", "cascade_decompose", "fractional_cascade",
        "kk_cross_bound", "lovasz_bound", "shadow_lower_bound", "truncate_cascade",
    ),
    "errors": (
        "BracketingError", "CapacityError", "CrossIntError", "InvalidTruncationError",
        "NotFoundError",
    ),
    "exactarith": ("DEFAULT_TOL", "binom", "binom_ratio", "gen_binom", "solve_binom_x"),
    "families": (
        "UniformFamily", "a_family_uniform", "b_family_uniform", "colex_segment",
        "from_text", "is_cross_intersecting", "measure_aj", "measure_bj",
        "star_uniform", "to_text",
    ),
    "oracle": (
        "OracleResult", "conjecture_scan", "max_product_cascade",
        "max_product_enumeration", "measure_oracle",
    ),
    "regions": (
        "condition_c1", "condition_c2", "curve_samples", "cusp_constants",
        "delta_boundary", "delta_prime_boundary", "delta_report", "delta_sample",
        "e_crossing", "e_j", "i0", "in_delta", "in_delta_prime", "in_omega",
        "in_omega_prime", "product_bound_condition", "tail_bound",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
