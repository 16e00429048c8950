"""Large and moderate deviation estimates for heterogeneous portfolios
of independent bounded losses.

The package computes limit cumulant generating functions and their
Fenchel-Legendre transforms for portfolios of centered, bounded,
finite-support loss classes, checks them against an exact finite-n
lattice oracle and tilted Monte Carlo, and demonstrates numerically
that two density-oscillating interlacements of loss classes produce
distinct subsequential tail decay rates.
"""

__version__ = "0.1.0"

from .model import (
    AssumptionBounds,
    BlockSchedule,
    LossClass,
    MemoryBudgetError,
    PortfolioModel,
    RoundRobin,
    check_assumptions,
    density_profile,
    loads_model,
)
from .cgf import empirical_cgf, limit_cgf
from .legendre import (
    legendre_transform,
    rate_I1,
    rate_I2,
    rate_upper_bound,
)
from .exact import (
    IncommensurableSupportError,
    enumerate_tail,
    exact_log_tail,
    exact_log_tail_rate,
    exact_tail,
)
from .mc import TiltingRangeError, sample_plain, sample_tilted
from .moderate import (
    CltRegimeError,
    MdQuery,
    md_log_prob_prediction,
    md_threshold,
    variance_sum,
)
from .counterexample import (
    build_counterexample,
    subsequence_rates,
)

__all__ = [
    "AssumptionBounds",
    "BlockSchedule",
    "CltRegimeError",
    "IncommensurableSupportError",
    "LossClass",
    "MdQuery",
    "MemoryBudgetError",
    "PortfolioModel",
    "RoundRobin",
    "TiltingRangeError",
    "build_counterexample",
    "check_assumptions",
    "density_profile",
    "empirical_cgf",
    "enumerate_tail",
    "exact_log_tail",
    "exact_log_tail_rate",
    "exact_tail",
    "legendre_transform",
    "limit_cgf",
    "loads_model",
    "md_log_prob_prediction",
    "md_threshold",
    "rate_I1",
    "rate_I2",
    "rate_upper_bound",
    "sample_plain",
    "sample_tilted",
    "subsequence_rates",
    "variance_sum",
]
