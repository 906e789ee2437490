"""Finite frame and fusion-frame analysis toolkit."""

__version__ = "0.1.0"

from .errors import (
    DegenerateInputError,
    DimensionError,
    FramekitError,
    GenerationError,
    NumericError,
    PreconditionError,
)
from .linalg import orthonormalize
from .frames import (
    BoundsReport,
    Frame,
    RedundancyProfile,
    is_riesz_basis,
    optimal_frame_bounds,
    redundancy_at,
    redundancy_bounds,
)
from .fusion import (
    FusionFrame,
    Subspace,
    full_space,
    is_orthonormal_fusion_basis,
    subspace_from_spanning,
    vector_span,
)
from .perturb import (
    PerturbationReport,
    frame_perturbation_mu,
    fusion_perturbation_mu,
    generate_perturbed_frame,
    generate_perturbed_fusion,
)
from .angles import (
    AngleReport,
    check_rs_relation,
    cosine_angles,
    gap_direct,
    orthogonal_complement,
)
from .theorems import (
    SuiteConfig,
    SuiteReport,
    TheoremVerdict,
    replay_instance,
    run_random_suite,
    verify_angle_sums,
    verify_fusion_perturbed_bounds,
    verify_fusion_redundancy_perturbation,
    verify_normalized_perturbation,
    verify_perturbed_frame_bounds,
    verify_redundancy_perturbation,
    verify_riesz_redundancy,
)
