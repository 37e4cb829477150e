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
from .patterns import (
    MAX_FACTORS,
    PatternIndex,
    pattern_index,
)
from .measures import (
    KINDS,
    MeasureParts,
    MeasureSpec,
    StructuralParams,
    canonical_kind,
    excess_or,
    measure,
    measure_parts,
    odds_ratio,
    or_increment,
    predicted_or,
)
from .logit import (
    CaseControlDataset,
    FitResult,
    FullParams,
    fit_design,
    fit_logit,
)
from .inference import (
    EstimateReport,
    bootstrap_ci,
    bootstrap_replicates,
    delta_ci,
    measure_gradient,
)
from .simulate import ConfounderModel, SimDesign, simulate, true_measure
from .dataio import (
    load_csv,
    parse_design_file,
    parse_measure_token,
    psi_coordinate_names,
    write_csv,
)
from .selfcheck import run_all as run_self_checks

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
    "FullParams",
    "InterOddsError",
    "KINDS",
    "MAX_FACTORS",
    "MeasureParts",
    "MeasureSpec",
    "NegativeVarianceError",
    "NonBinaryFactorError",
    "OrderRangeError",
    "PatternIndex",
    "PrevalenceError",
    "SeparationError",
    "SimDesign",
    "SingularDesignError",
    "StructuralParams",
    "TransformRangeError",
    "UndefinedSynergyError",
    "bootstrap_ci",
    "bootstrap_replicates",
    "canonical_kind",
    "delta_ci",
    "excess_or",
    "fit_design",
    "fit_logit",
    "load_csv",
    "measure",
    "measure_gradient",
    "measure_parts",
    "odds_ratio",
    "or_increment",
    "parse_design_file",
    "parse_measure_token",
    "pattern_index",
    "predicted_or",
    "psi_coordinate_names",
    "run_self_checks",
    "simulate",
    "true_measure",
    "write_csv",
]
