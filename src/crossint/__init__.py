"""Exact arithmetic, shadow bounds, and oracles for cross-intersecting families."""

from .cascade import (
    CascadeForm,
    TruncatedCascade,
    cascade_decompose,
    fractional_cascade,
    kk_cross_bound,
    lovasz_bound,
    shadow_lower_bound,
    truncate_cascade,
)
from .errors import (
    BracketingError,
    CapacityError,
    CertificationError,
    CrossIntError,
    InvalidTruncationError,
    NonBinomialSizeError,
    NotFoundError,
    UndecidableAtTolerance,
)
from .exactarith import DEFAULT_TOL, binom, binom_ratio, gen_binom, solve_binom_x
from .families import (
    GeneralFamily,
    UniformFamily,
    a_family_measure,
    a_family_uniform,
    b_family_measure,
    b_family_uniform,
    colex_segment,
    complement_family,
    from_text,
    is_cross_intersecting,
    is_shadow_tight,
    lift,
    measure,
    measure_aj,
    measure_bj,
    shadow,
    star_uniform,
    to_text,
)
from .oracle import (
    OracleResult,
    achieving_pair,
    conjecture_scan,
    max_product_cascade,
    max_product_enumeration,
    measure_oracle,
    uniqueness_check,
)
from .regions import (
    ProductBound,
    boundary_condition,
    condition_c1,
    condition_c2,
    curve_samples,
    cusp_constants,
    delta_boundary,
    delta_prime_boundary,
    delta_report,
    delta_sample,
    e_crossing,
    e_j,
    i0,
    in_delta,
    in_delta_prime,
    in_omega,
    in_omega_prime,
    product_bound_condition,
    tail_bound,
)

__version__ = "0.1.0"
