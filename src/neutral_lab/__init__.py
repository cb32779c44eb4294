"""Neutral coated inclusions in 2D conductivity.

Boundary-integral solver for the two-interface transmission problem,
closed-form design of coatings that make confocal-ellipse inclusions
invisible to uniform fields, and three independent verifications (potential
identities, a free boundary problem, Laurent mode analysis plus direct
shape optimization) that confocal ellipses are the only shapes admitting
such coatings.
"""

from .errors import (
    DesignError,
    GeometryError,
    NearEvaluationError,
    NeutralLabError,
    SolverError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .geometry import (
    CoatedInclusion,
    Curve,
    Discretization,
    LaurentMap,
    area,
    confocal_pair,
    discretize,
    laurent_domain,
    make_ellipse,
)
from .layerpot import (
    feature_size,
    kstar_matrix,
    min_target_distance,
    normal_derivative_coupling,
    single_layer_grad_near,
    single_layer_grad_off,
    single_layer_off,
    single_layer_on_boundary,
)
from .transmission import (
    ConductivityProfile,
    ContrastParams,
    DensityPair,
    HarmonicPoly,
    NeutralityReport,
    contrasts,
    decay_exponent,
    eval_u,
    neutrality_report,
    solve_harmonic,
)
from .designer import (
    DesignResult,
    check_area_relation,
    confocal_design,
    disk_matrix_conductivity,
    reciprocal_dual,
    sigma_from_mu,
)
from .newtonian import (
    CombinedIdentityReport,
    FreeBvpReport,
    QuadraticFit,
    combined_identity_check,
    fit_quadratic,
    free_bvp_residual,
    newtonian_gradient,
    newtonian_potential,
)
from .laurent import (
    LaurentClassification,
    classify,
    neutrality_factor,
)
from .shapesearch import (
    SearchConfig,
    SearchResult,
    ShapeParams,
    perturbation_study,
    search,
)

__version__ = "0.1.0"

__all__ = [
    "NeutralLabError",
    "ValidationError",
    "GeometryError",
    "NearEvaluationError",
    "SolverError",
    "DesignError",
    "UnsupportedConfigurationError",
    "Curve",
    "Discretization",
    "LaurentMap",
    "CoatedInclusion",
    "make_ellipse",
    "confocal_pair",
    "laurent_domain",
    "discretize",
    "area",
    "feature_size",
    "min_target_distance",
    "single_layer_off",
    "single_layer_on_boundary",
    "single_layer_grad_off",
    "single_layer_grad_near",
    "kstar_matrix",
    "normal_derivative_coupling",
    "ConductivityProfile",
    "ContrastParams",
    "contrasts",
    "HarmonicPoly",
    "DensityPair",
    "solve_harmonic",
    "eval_u",
    "neutrality_report",
    "NeutralityReport",
    "decay_exponent",
    "DesignResult",
    "confocal_design",
    "disk_matrix_conductivity",
    "sigma_from_mu",
    "reciprocal_dual",
    "check_area_relation",
    "QuadraticFit",
    "CombinedIdentityReport",
    "fit_quadratic",
    "newtonian_potential",
    "newtonian_gradient",
    "combined_identity_check",
    "FreeBvpReport",
    "free_bvp_residual",
    "neutrality_factor",
    "LaurentClassification",
    "classify",
    "SearchConfig",
    "ShapeParams",
    "SearchResult",
    "search",
    "perturbation_study",
]
