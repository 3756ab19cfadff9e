"""Pointwise-Lipschitz selections of convex-valued correspondences over
sampled metric spaces, and positively homogeneous right inverses of linear
surjections built from them."""

from .bartle_graves import (
    build_right_inverse,
    sphere_sample,
    verify_right_inverse,
)
from .convex import AffineFlat, Ball, ConvexBody, Polytope
from .correspondence import (
    AnchoredPairs,
    Correspondence,
    LinearSurjection,
    anchored_selection,
    inverse_image_correspondence,
    local_strong_selection,
)
from .errors import (
    ConvergenceError,
    LipselectError,
    PreconditionError,
    RateError,
    SchemaError,
)
from .iteration import (
    IterationConfig,
    RoundRecord,
    SelectionSequence,
    blend_round,
    compute_delta,
    run_iteration,
    verify_round_properties,
    verify_sequence,
)
from .lipschitz import (
    PlipProfiles,
    default_radii,
    homogeneous_extension,
    plip_profile,
    verify_homogeneous_plip,
)
from .metric import (
    SampledMetricSpace,
    as_table,
    build_separation_hierarchy,
    covering_radius,
    greedy_maximal_separation,
    round_members,
)

__version__ = "0.1.0"
