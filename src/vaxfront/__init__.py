"""Effective reproduction numbers and Pareto vaccination frontiers for
metapopulation next-generation matrices."""

from .convexity import (
    ConvexityVerdict,
    SylvesterReport,
    SymmetrizabilityResult,
    Witness,
    classify_convexity,
    probe_convexity,
    sylvester_check,
    symmetrize,
)
from .errors import (
    ComplexSpectrum,
    DimensionMismatch,
    NonConvergence,
    NonSimple,
    NotDisconnecting,
    ParseError,
    PreconditionFailed,
    ValidationError,
    VaxfrontError,
    ZeroRadius,
)
from .frontier import (
    AssembledFrontiers,
    FrontierCurve,
    FrontierPoint,
    OptimalPoint,
    RayCheckReport,
    anti_pareto_frontier,
    assemble_reducible,
    feasible_region_sample,
    inefficiency_ceiling,
    optimal_loss,
    optimal_loss_max,
    optimal_ray_check,
    pareto_frontier,
)
from .independent import (
    EradicationResult,
    IndependentSetResult,
    eradication_cost,
    has_symmetric_support,
    max_independent_set,
)
from .model import (
    CostFunction,
    GridKernelSpec,
    MetapopModel,
    Strategy,
    c_max,
    cost,
    double_norm,
    grid_to_model,
    load_grid,
    load_model,
    save_model,
)
from .spectral import (
    EigenPair,
    Spectrum,
    dominant_pair,
    effective_re,
    effective_re_batch,
    full_spectrum,
    inertia,
    re_gradient,
    spectral_radius,
)
from .structure import (
    Classification,
    CordonCertificate,
    FrobeniusDecomposition,
    classify,
    cordon_improvement,
    frobenius_decompose,
    is_disconnecting,
    is_invariant,
    support_digraph,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
