"""Bundled example data: a 20-indicator state-anxiety questionnaire (STAI).

The inter-correlations (lower triangle, 3 decimals) and the completely
standardized one-factor loadings of a published 191-case student sample ship
with the package as two text files, read by the same parsers as any input file,
so the demo and the acceptance checks run without input files.
"""

from __future__ import annotations

from pathlib import Path

from ._numpy import np
from .fileio import parse_loadings, parse_matrix
from .model import CorrelationMatrix

STAI_MATRIX_PATH = Path(__file__).with_name("data") / "stai-matrix.txt"
STAI_LOADINGS_PATH = Path(__file__).with_name("data") / "stai-loadings.txt"


def stai_correlation_matrix() -> CorrelationMatrix:
    """The bundled 20 x 20 indicator correlation matrix."""
    return parse_matrix(STAI_MATRIX_PATH)


def stai_loadings() -> np.ndarray:
    """The bundled completely standardized one-factor loadings (length 20)."""
    return parse_loadings(STAI_LOADINGS_PATH)
