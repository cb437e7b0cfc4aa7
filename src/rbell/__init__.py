"""Exact r-Stirling and r-Bell numbers and polynomials, the classical
identities connecting them, and numeric cross-checks with certified or
estimated error bounds.

All combinatorial values are exact (int / Fraction / integer-coefficient
polynomials); the analytic module converts to float only at the boundary and
reports an error bound alongside every approximate value.
"""

from .algebra import (
    ApproxReal,
    IntPolynomial,
    falling_factorial_poly,
    fraction_free_det,
    pochhammer,
    sturm_root_count,
)
from .analytic import (
    MaxIndexReport,
    QuadratureResult,
    RootednessReport,
    cesaro_integral,
    dobinski_eval,
    dobinski_series_sum,
    egf_coeffs,
    hypergeom_1f1,
    kummer_residual,
    max_index,
    ogf_coefficient_pair,
    real_rootedness_report,
    sin_moment,
)
from .bell import (
    carlitz_compositions,
    carlitz_inversions,
    cross_r_printed,
    cross_r_steps,
    rbell_number,
    rbell_poly,
    rbell_polys_from_bell,
    rbell_polys_rec,
    rbell_table,
    whitehead_row_sum,
    whitehead_steps,
)
from .errors import ConvergenceError, DomainError, InconsistencyError
from .oracle import GridCounts, PartitionCounts, enumerate_grid, enumerate_restricted_partitions
from .stirling import (
    binomial,
    horizontal_checks,
    stirling1r,
    stirling2r,
    stirling2r_explicit,
)
from .transforms import (
    binomial_transform,
    cigler_closed_form,
    cigler_d,
    cigler_minors,
    hankel_transform_rbell,
    inverse_binomial_transform,
    log_convexity_check,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "ApproxReal",
    "CheckResult",
    "ConvergenceError",
    "DomainError",
    "GridCounts",
    "InconsistencyError",
    "IntPolynomial",
    "MaxIndexReport",
    "PartitionCounts",
    "QuadratureResult",
    "RootednessReport",
    "binomial",
    "binomial_transform",
    "carlitz_compositions",
    "carlitz_inversions",
    "cesaro_integral",
    "cigler_closed_form",
    "cigler_d",
    "cigler_minors",
    "cross_r_printed",
    "cross_r_steps",
    "dobinski_eval",
    "dobinski_series_sum",
    "egf_coeffs",
    "enumerate_grid",
    "enumerate_restricted_partitions",
    "falling_factorial_poly",
    "fraction_free_det",
    "hankel_transform_rbell",
    "horizontal_checks",
    "hypergeom_1f1",
    "inverse_binomial_transform",
    "kummer_residual",
    "log_convexity_check",
    "max_index",
    "ogf_coefficient_pair",
    "pochhammer",
    "rbell_number",
    "rbell_poly",
    "rbell_polys_from_bell",
    "rbell_polys_rec",
    "rbell_table",
    "real_rootedness_report",
    "run_suite",
    "sin_moment",
    "stirling1r",
    "stirling2r",
    "stirling2r_explicit",
    "sturm_root_count",
    "whitehead_row_sum",
    "whitehead_steps",
    "__version__",
]
