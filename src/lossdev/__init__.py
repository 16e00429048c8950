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
    PortfolioModel,
    RoundRobin,
    Violation,
    density_profile,
    load_model,
    loads_model,
    validate_model,
)
from .cgf import CgfPoint, class_mgf, cumulants, empirical_cgf, limit_cgf
from .legendre import (
    RatePoint,
    legendre_transform,
    rate_I1,
    rate_I2,
    rate_expansion_check,
    rate_upper_bound,
)
from .exact import (
    IncommensurableSupportError,
    LatticeDistribution,
    MemoryBudgetError,
    enumerate_tail,
    exact_distribution,
    exact_log_tail,
    exact_log_tail_rate,
    exact_tail,
    latticize,
)
from .mc import TailEstimate, TiltingRangeError, sample_plain, sample_tilted, tilted_class
from .moderate import (
    CltRegimeError,
    MdPrediction,
    MdQuery,
    MdThresholds,
    PetrovConstants,
    gaussian_upper_tail,
    md_log_prob_prediction,
    md_threshold,
    petrov_constants,
    variance_sum,
)
from .counterexample import (
    SubsequenceReport,
    build_counterexample,
    sandwich_check,
    section_mean_tail,
    subsequence_rates,
)

__all__ = [
    "AssumptionBounds",
    "BlockSchedule",
    "CgfPoint",
    "CltRegimeError",
    "IncommensurableSupportError",
    "LatticeDistribution",
    "LossClass",
    "MdPrediction",
    "MdQuery",
    "MdThresholds",
    "MemoryBudgetError",
    "PetrovConstants",
    "PortfolioModel",
    "RatePoint",
    "RoundRobin",
    "SubsequenceReport",
    "TailEstimate",
    "TiltingRangeError",
    "Violation",
    "build_counterexample",
    "class_mgf",
    "cumulants",
    "density_profile",
    "empirical_cgf",
    "enumerate_tail",
    "exact_distribution",
    "exact_log_tail",
    "exact_log_tail_rate",
    "exact_tail",
    "gaussian_upper_tail",
    "latticize",
    "legendre_transform",
    "limit_cgf",
    "load_model",
    "loads_model",
    "md_log_prob_prediction",
    "md_threshold",
    "petrov_constants",
    "rate_I1",
    "rate_I2",
    "rate_expansion_check",
    "rate_upper_bound",
    "sample_plain",
    "sample_tilted",
    "sandwich_check",
    "section_mean_tail",
    "subsequence_rates",
    "tilted_class",
    "validate_model",
    "variance_sum",
]
