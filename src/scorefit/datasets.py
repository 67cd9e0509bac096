"""Bundled example data: a 20-indicator state-anxiety questionnaire (STAI).

The inter-correlations (lower triangle, 3 decimals) and the completely
standardized one-factor loadings of a published 191-case student sample ship
with the package so the demo and the acceptance checks run without input files.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .fileio import MatrixFile, _assemble, _tokenize
from .model import CorrelationMatrix

# Lower triangle including the diagonal; row i holds i entries.
STAI_LOWER_TRIANGLE = """\
1.000
0.159, 1.000
0.295, 0.245, 1.000
0.457, 0.317, 0.447, 1.000
0.130, 0.176, 0.072, 0.199, 1.000
0.279, 0.410, 0.194, 0.304, 0.147, 1.000
0.278, 0.227, 0.426, 0.283, 0.017, 0.429, 1.000
0.323, 0.314, 0.421, 0.505, 0.192, 0.320, 0.418, 1.000
0.261, 0.286, 0.410, 0.369, 0.325, 0.189, 0.381, 0.430, 1.000
0.575, 0.244, 0.343, 0.550, 0.180, 0.345, 0.326, 0.478, 0.350, 1.000
0.379, 0.260, 0.423, 0.500, 0.193, 0.216, 0.415, 0.509, 0.551, 0.509, 1.000
0.356, 0.257, 0.392, 0.454, 0.306, 0.157, 0.310, 0.403, 0.419, 0.454, 0.578, 1.000
0.429, 0.198, 0.236, 0.491, 0.141, 0.285, 0.315, 0.501, 0.290, 0.617, 0.426, 0.390, 1.000
0.281, 0.308, 0.340, 0.409, 0.239, 0.204, 0.328, 0.406, 0.539, 0.404, 0.552, 0.481, 0.384, 1.000
0.465, 0.313, 0.507, 0.464, 0.152, 0.224, 0.283, 0.540, 0.370, 0.480, 0.474, 0.346, 0.301, 0.392, 1.000
0.486, 0.209, 0.443, 0.559, 0.239, 0.338, 0.368, 0.546, 0.413, 0.704, 0.555, 0.502, 0.599, 0.441, 0.463, 1.000
0.329, 0.330, 0.473, 0.459, 0.195, 0.248, 0.432, 0.505, 0.701, 0.500, 0.650, 0.414, 0.398, 0.569, 0.462, 0.496, 1.000
0.365, 0.138, 0.525, 0.450, 0.266, 0.253, 0.349, 0.378, 0.403, 0.459, 0.507, 0.420, 0.360, 0.522, 0.385, 0.556, 0.540, 1.000
0.393, 0.371, 0.432, 0.463, 0.192, 0.414, 0.600, 0.518, 0.452, 0.487, 0.537, 0.428, 0.536, 0.447, 0.419, 0.541, 0.495, 0.405, 1.000
0.141, 0.219, 0.418, 0.398, 0.182, 0.202, 0.380, 0.515, 0.367, 0.291, 0.409, 0.294, 0.276, 0.377, 0.396, 0.404, 0.383, 0.355, 0.443, 1.000
"""

STAI_LOADINGS = (
    0.553, 0.400, 0.602, 0.691, 0.292, 0.415, 0.555, 0.701, 0.641, 0.723,
    0.757, 0.632, 0.632, 0.653, 0.634, 0.771, 0.742, 0.658, 0.720, 0.548,
)


def stai_correlation_matrix() -> CorrelationMatrix:
    """The bundled 20 x 20 indicator correlation matrix, read by the file parser."""
    source = MatrixFile("demo:stai")
    lines = list(enumerate(STAI_LOWER_TRIANGLE.splitlines(), start=1))
    return CorrelationMatrix(_assemble(source, _tokenize(source, lines)))


def stai_loadings() -> np.ndarray:
    """The bundled completely standardized one-factor loadings (length 20)."""
    return np.array(STAI_LOADINGS)


def stai_checksums() -> dict[str, str]:
    """SHA-256 of the canonical text of each bundled array, for report echoes."""
    loadings_text = "\n".join(f"{x:.3f}" for x in STAI_LOADINGS) + "\n"
    return {
        "matrix": hashlib.sha256(STAI_LOWER_TRIANGLE.encode()).hexdigest(),
        "loadings": hashlib.sha256(loadings_text.encode()).hexdigest(),
    }
