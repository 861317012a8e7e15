"""effcone: exact lattice-point counts, Ehrhart quasi-polynomial
coefficients, and expected effective-threshold bounds for weighted
projective planes P(a,b,c).

Everything is computed in exact rational arithmetic; no floating point
enters any result.  See the README for the mathematical conventions.
"""

__version__ = "0.1.0"

from .ehrhart import EhrhartCoeffs, c0_middle_terms, c0_upper_bound, coefficients
from .families import SCAN_LIMIT, FamilyRequest, solve_family
from .fracsum import (
    DELTA_POLICIES,
    ReductionChain,
    ReductionStep,
    ReductionTrace,
    StepErrorBounds,
    calibrated_delta,
    ceil_sum,
    deficit,
    floor_sum,
    frac_sum,
    full_sum,
    paper_delta,
    reduce_chain,
    standard_chain,
    step_error,
    step_error_bounds,
)
from .lattice import (
    RationalPoint,
    RationalTriangle,
    contains_point,
    count_points_pick,
    count_points_rowscan,
    point,
    triangle,
)
from .numerics import as_rational, floor_sum_linear
from .surface import (
    FAMILY_AZ,
    FAMILY_B,
    FAMILY_C,
    FAMILIES,
    DivisorSpec,
    WeightedSurface,
    h0,
    make_surface,
    polytope,
)
from .threshold import (
    BRANCHES,
    Classification,
    GammaSearchResult,
    branch_interval,
    classify,
    classify_surface,
    expected_count_large,
    expected_count_small,
    family_supremum,
    gamma_search,
    lower_bound_small_a,
    nu,
    nu_from_h0,
    outer_bound,
    reference_triangle,
)
from .verify import (
    CalibrationError,
    aggregate_sweep,
    attainment_step,
    calibrate_delta,
    margin_at_multiple,
    margin_general,
    sweep,
    sweep_one,
)

__all__ = [
    "__version__",
    # numerics
    "as_rational", "floor_sum_linear",
    # lattice
    "RationalPoint", "RationalTriangle", "point", "triangle",
    "count_points_rowscan", "count_points_pick", "contains_point",
    # surface
    "FAMILY_B", "FAMILY_C", "FAMILY_AZ", "FAMILIES", "WeightedSurface", "DivisorSpec",
    "make_surface", "polytope", "h0",
    # ehrhart
    "EhrhartCoeffs", "coefficients", "c0_middle_terms", "c0_upper_bound",
    # fracsum
    "frac_sum", "deficit", "floor_sum", "ceil_sum", "full_sum", "step_error",
    "step_error_bounds", "StepErrorBounds", "paper_delta", "calibrated_delta",
    "DELTA_POLICIES", "ReductionChain", "ReductionStep", "ReductionTrace",
    "reduce_chain", "standard_chain",
    # threshold
    "BRANCHES", "Classification", "GammaSearchResult", "nu_from_h0", "nu",
    "outer_bound", "branch_interval", "classify", "classify_surface",
    "gamma_search", "family_supremum", "lower_bound_small_a",
    "reference_triangle", "expected_count_large", "expected_count_small",
    # families
    "FamilyRequest", "solve_family", "SCAN_LIMIT",
    # verify
    "CalibrationError", "attainment_step", "margin_general", "margin_at_multiple",
    "sweep_one", "sweep", "aggregate_sweep", "calibrate_delta",
]
