"""Solvers, generators, and benchmarks for revenue-optimal fare zone
assignment on tree networks.

The package exports the solvers, the model types, the generators and the
errors. The sublog approximation is `fza.sublog.sublog`: the package does not
bind the name `sublog`, so `fza.sublog` stays the module. Everything else is
reached through its own module.
"""

from .density import (
    simplified_single_density,
    single_density,
    single_density_base,
    single_density_path,
)
from .exact import (
    GeneralizedCommodity,
    GeneralizedPathInstance,
    brute_force,
    gen_rooted_path,
    generalized_rooted_path_dp,
    rooted_dp,
)
from .generators import (
    Formula2CNF,
    GenSpec,
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
    PricingFunction,
    SolveResult,
    Tree,
    normalize,
    parameters,
    total_revenue,
)
from .param_path import dp_congestion, dp_pmax, dp_umax

__all__ = [
    # solvers
    "brute_force", "rooted_dp", "gen_rooted_path", "generalized_rooted_path_dp",
    "single_density", "single_density_path", "single_density_base",
    "simplified_single_density", "dp_umax", "dp_pmax", "dp_congestion",
    # model
    "Tree", "PricingFunction", "Commodity", "Instance", "SolveResult",
    "GeneralizedCommodity", "GeneralizedPathInstance", "normalize", "parameters",
    "total_revenue",
    # generators
    "GenSpec", "gen_random", "Formula2CNF", "gen_star_from_2sat", "gen_path_from_2sat",
    "max2sat_optimum",
    # errors
    "FzaError", "InvalidInstanceError", "CapacityError",
]
__version__ = "0.1.0"
