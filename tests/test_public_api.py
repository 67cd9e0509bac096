"""Pins of the public surface: the package exports, the names the benchmark's
tracer wraps, the package version and the README's Library example."""

import contextlib
import importlib
import io
import re

import scorefit

from conftest import ROOT, bench_module

VERSION = "0.14.0"

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


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert scorefit.__all__ == PUBLIC_NAMES
    for name in scorefit.__all__:
        assert hasattr(scorefit, name), name


def test_traced_names_resolve():
    # The tracer wraps these by name; a deleted or renamed one would break
    # `bench/run.py --trace 1`.
    spans = bench_module("spans")
    assert spans.TRACED
    for span, (module, attr) in spans.TRACED.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
    assert match is not None
    assert scorefit.__version__ == match.group(1) == VERSION


def test_readme_library_example_prints_what_its_comments_say(tmp_path, monkeypatch):
    # Each print in the README's Library example carries its value as a
    # comment, to the precision shown ("# 0.1969", "# ~0.816").
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, flags=re.DOTALL).group(1)
    shown = [line.split("#", 1)[1].strip().lstrip("~") for line in code.splitlines()
             if line.startswith("print(")]
    assert shown
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().split()
    assert len(printed) == len(shown)
    for value, comment in zip(printed, shown):
        decimals = len(comment.partition(".")[2])
        assert f"{float(value):.{decimals}f}" == comment
