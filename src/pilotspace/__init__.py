"""Cramer-Rao bounds, identifiability and optimal pilot design for parametric channels."""

from .rlinalg import (
    NotSkewSymmetricError,
    RankDeficientError,
    RBasis,
    compression_matrix,
    project_r,
    r_inner,
    r_orthonormalize,
    skew_canonical_form,
)
from .variation import (
    CanonicalDecomposition,
    ParametricChannelModel,
    canonical_decompose,
    variation_space,
    verify_eigenspace_property,
)
from .crb import (
    CrbMinResult,
    CrbReport,
    IdentifiabilityReport,
    NoiseModel,
    check_identifiability,
    crb_direct,
    crb_min,
    crb_via_variation_space,
    fim,
)
from .pilot import (
    OracleResult,
    PilotDesign,
    brute_force_optimal_crb,
    design_observation_matrix,
    verify_optimality_certificates,
)
from .models import (
    PathSet,
    UlaGeometry,
    angle_constrained_model,
    estimated_variation_space,
    ls_model,
    physical_model,
    physical_variation_space,
    steering_derivative,
    steering_matrix,
    steering_vector,
)
from .experiments import (
    AC_STRATEGY,
    PROPOSED_STRATEGY,
    CurveRow,
    CurveTable,
    ExperimentConfig,
    ac_strategy_bound,
    generate_clustered_channel,
    proposed_strategy_bound,
    relative_bias,
    run_multipath,
    run_single_path,
)

__version__ = "0.1.0"
