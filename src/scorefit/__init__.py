"""Fit diagnostics for the covariance models implied by computed scores.

A library plus CLI ("scorefit") that reproduces the covariance matrices implied
by factor score estimates and unit-weighted scales, measures their discrepancy
from an observed covariance/correlation matrix via the SRMR, provides the
closed form of that SRMR for parallel measurements (with its inversions), and
runs the accompanying Monte Carlo design.
"""

from .datasets import stai_correlation_matrix, stai_loadings
from .errors import (
    DimensionError,
    MatrixParseError,
    NearSingularMatrixWarning,
    NoSolutionError,
    ScorefitError,
    SingularMatrixError,
    ValidationError,
)
from .fileio import parse_loadings, parse_matrix, write_matrix
from .fit import (
    FitReport,
    RequiredRCurve,
    min_p_for_srmr,
    required_r_curve,
    solve_r_for_srmr,
    srmr,
    srmr_parallel_closed_form,
)
from .model import (
    CorrelationMatrix,
    FactorModel,
    build_parallel_sigma,
    factor_implied_sigma,
)
from .report import OutputFormat, ReportDocument
from .scoring import (
    bartlett_weights,
    fs_implied_sigma,
    regression_weights,
    score_model_implied_sigma,
)
from .simulation import (
    LoadingPattern,
    SimulationCell,
    SimulationConfig,
    population_correlation,
    population_loadings,
    run_simulation,
    sample_correlation,
)

__version__ = "0.14.0"

__all__ = [
    "CorrelationMatrix",
    "DimensionError",
    "FactorModel",
    "FitReport",
    "LoadingPattern",
    "MatrixParseError",
    "NearSingularMatrixWarning",
    "NoSolutionError",
    "OutputFormat",
    "ReportDocument",
    "RequiredRCurve",
    "ScorefitError",
    "SimulationCell",
    "SimulationConfig",
    "SingularMatrixError",
    "ValidationError",
    "bartlett_weights",
    "build_parallel_sigma",
    "factor_implied_sigma",
    "fs_implied_sigma",
    "min_p_for_srmr",
    "parse_loadings",
    "parse_matrix",
    "population_correlation",
    "population_loadings",
    "regression_weights",
    "required_r_curve",
    "run_simulation",
    "sample_correlation",
    "score_model_implied_sigma",
    "solve_r_for_srmr",
    "srmr",
    "srmr_parallel_closed_form",
    "stai_correlation_matrix",
    "stai_loadings",
    "write_matrix",
]
