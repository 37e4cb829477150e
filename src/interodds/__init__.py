"""Additive odds-scale measures of joint effects and interaction.

Estimates the excess odds ratio, attributable proportion and synergy
index among binary risk factors from case-control data: a saturated
logistic model is fitted by maximum likelihood, odds ratios are expanded
additively into marginal and interaction increments, and confidence
intervals come from the delta method with analytic gradients (with a
stratified percentile bootstrap as an independent alternative).
"""

from .errors import (
    BootstrapFailureError,
    ConvergenceError,
    CsvParseError,
    EmptyClassError,
    InterOddsError,
    NegativeVarianceError,
    NonBinaryFactorError,
    OrderRangeError,
    PrevalenceError,
    SeparationError,
    SingularDesignError,
    TransformRangeError,
    UndefinedSynergyError,
)
from .measures import (
    MeasureSpec,
    StructuralParams,
    measure,
    measure_parts,
    odds_ratio,
    or_increment,
)
from .logit import (
    CaseControlDataset,
    FitResult,
    fit_logit,
)
from .inference import (
    EstimateReport,
    bootstrap_ci,
    bootstrap_replicates,
    delta_ci,
)
from .simulate import ConfounderModel, SimDesign, simulate, true_measure
from .dataio import (
    load_csv,
    psi_coordinate_names,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapFailureError",
    "CaseControlDataset",
    "ConfounderModel",
    "ConvergenceError",
    "CsvParseError",
    "EmptyClassError",
    "EstimateReport",
    "FitResult",
    "InterOddsError",
    "MeasureSpec",
    "NegativeVarianceError",
    "NonBinaryFactorError",
    "OrderRangeError",
    "PrevalenceError",
    "SeparationError",
    "SimDesign",
    "SingularDesignError",
    "StructuralParams",
    "TransformRangeError",
    "UndefinedSynergyError",
    "bootstrap_ci",
    "bootstrap_replicates",
    "delta_ci",
    "fit_logit",
    "load_csv",
    "measure",
    "measure_parts",
    "odds_ratio",
    "or_increment",
    "psi_coordinate_names",
    "simulate",
    "true_measure",
    "write_csv",
]
