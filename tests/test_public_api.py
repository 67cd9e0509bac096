"""Pins of the public surface: the package exports, the names the benchmark's
tracer wraps, and the package version."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import scorefit

ROOT = Path(__file__).resolve().parents[1]

VERSION = "0.6.0"

PUBLIC_NAMES = [
    "CorrelationMatrix",
    "DimensionError",
    "FactorModel",
    "FitReport",
    "LoadingPattern",
    "MatrixParseError",
    "NearSingularMatrixWarning",
    "NoSolutionError",
    "OutputFormat",
    "ParallelSpec",
    "ReportDocument",
    "RequiredRCurve",
    "ScoreWeights",
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


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert scorefit.__all__ == PUBLIC_NAMES
    for name in scorefit.__all__:
        assert hasattr(scorefit, name), name


def test_traced_names_resolve(monkeypatch):
    # The tracer wraps these by name; a deleted or renamed one would break
    # `bench/run.py --trace 1`.  Loading it leaves no bytecode under bench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for span, (module, attr) in spans.TRACED.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
    assert match is not None
    assert scorefit.__version__ == match.group(1) == VERSION
