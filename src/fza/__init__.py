"""Solvers, generators, and benchmarks for revenue-optimal fare zone
assignment on tree networks."""

from .density import (
    DensityClassification,
    bernoulli_candidate,
    classify_by_density,
    offset_candidate,
    simplified_single_density,
    single_density,
    single_density_base,
    single_density_path,
)
from .exact import (
    GeneralizedCommodity,
    GeneralizedPathInstance,
    brute_force,
    generalized_from_instance,
    generalized_rooted_path_dp,
    rooted_dp,
)
from .generators import (
    Formula2CNF,
    GenSpec,
    ReductionTarget,
    gen_path_from_2sat,
    gen_random,
    gen_star_from_2sat,
    max2sat_optimum,
)
from .model import (
    CapacityError,
    Commodity,
    FzaError,
    Instance,
    InvalidInstanceError,
    Parameters,
    PricingFunction,
    SolveResult,
    Tree,
    normalize,
    parameters,
    resolve_path,
    revenue_for,
    revenue_of_commodity,
    total_revenue,
)
from .param_path import dp_congestion, dp_pmax, dp_umax
from .sublog import (
    CommodityAssignment,
    Decomposition,
    SkeletonInfo,
    almost_balanced_decomposition,
    build_aux_instance,
    build_decomposition,
    classify_commodities,
    compute_skeleton,
    non_skeleton_solve,
    skeleton_solve,
    sublog,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
