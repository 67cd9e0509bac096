"""Independent reference answers the benchmark checks scorefit's CLI output against.

Nothing here imports scorefit: every value is recomputed with plain numpy.linalg
or exact rational arithmetic, so a defect in the package cannot hide in its own
reference.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Published simulation results at print precision, copied from tests/conftest.py:
# (n, l, p) -> (pop_const, mean_const, sd_const, pop_var, mean_var, sd_var)
TABLE2 = {
    (150, 0.2, 6): (0.45, 0.45, 0.011, 0.45, 0.45, 0.011),
    (150, 0.2, 12): (0.35, 0.36, 0.005, 0.35, 0.36, 0.005),
    (150, 0.2, 24): (0.26, 0.27, 0.003, 0.26, 0.27, 0.003),
    (150, 0.4, 6): (0.39, 0.40, 0.015, 0.39, 0.40, 0.015),
    (150, 0.4, 12): (0.31, 0.31, 0.009, 0.31, 0.31, 0.008),
    (150, 0.4, 24): (0.23, 0.24, 0.005, 0.23, 0.24, 0.005),
    (150, 0.6, 6): (0.30, 0.30, 0.018, 0.30, 0.30, 0.017),
    (150, 0.6, 12): (0.24, 0.24, 0.012, 0.24, 0.24, 0.011),
    (150, 0.6, 24): (0.18, 0.18, 0.008, 0.18, 0.18, 0.008),
    (150, 0.8, 6): (0.17, 0.17, 0.015, 0.18, 0.18, 0.015),
    (150, 0.8, 12): (0.13, 0.14, 0.011, 0.14, 0.14, 0.010),
    (150, 0.8, 24): (0.10, 0.10, 0.008, 0.11, 0.11, 0.007),
    (300, 0.2, 6): (0.45, 0.45, 0.008, 0.45, 0.45, 0.008),
    (300, 0.2, 12): (0.35, 0.36, 0.004, 0.35, 0.36, 0.004),
    (300, 0.2, 24): (0.26, 0.27, 0.002, 0.26, 0.27, 0.002),
    (300, 0.4, 6): (0.39, 0.39, 0.011, 0.39, 0.39, 0.011),
    (300, 0.4, 12): (0.31, 0.31, 0.006, 0.31, 0.31, 0.006),
    (300, 0.4, 24): (0.23, 0.23, 0.004, 0.23, 0.23, 0.004),
    (300, 0.6, 6): (0.30, 0.30, 0.012, 0.30, 0.30, 0.012),
    (300, 0.6, 12): (0.24, 0.24, 0.008, 0.24, 0.24, 0.008),
    (300, 0.6, 24): (0.18, 0.18, 0.006, 0.18, 0.18, 0.005),
    (300, 0.8, 6): (0.17, 0.17, 0.011, 0.18, 0.18, 0.011),
    (300, 0.8, 12): (0.13, 0.13, 0.008, 0.14, 0.14, 0.007),
    (300, 0.8, 24): (0.10, 0.10, 0.005, 0.11, 0.11, 0.005),
    (900, 0.2, 6): (0.45, 0.45, 0.005, 0.45, 0.45, 0.005),
    (900, 0.2, 12): (0.35, 0.35, 0.002, 0.35, 0.35, 0.002),
    (900, 0.2, 24): (0.26, 0.26, 0.001, 0.26, 0.26, 0.001),
    (900, 0.4, 6): (0.39, 0.39, 0.006, 0.39, 0.39, 0.006),
    (900, 0.4, 12): (0.31, 0.31, 0.004, 0.31, 0.31, 0.003),
    (900, 0.4, 24): (0.23, 0.23, 0.002, 0.23, 0.23, 0.002),
    (900, 0.6, 6): (0.30, 0.30, 0.007, 0.30, 0.30, 0.007),
    (900, 0.6, 12): (0.24, 0.24, 0.005, 0.24, 0.24, 0.005),
    (900, 0.6, 24): (0.18, 0.18, 0.003, 0.18, 0.18, 0.003),
    (900, 0.8, 6): (0.17, 0.17, 0.006, 0.18, 0.18, 0.006),
    (900, 0.8, 12): (0.13, 0.13, 0.004, 0.14, 0.14, 0.004),
    (900, 0.8, 24): (0.10, 0.10, 0.003, 0.11, 0.11, 0.003),
}
# Acceptance bounds of the desk-scale Table 2 check.
TABLE2_MEAN_TOL = 0.01
TABLE2_SD_TOL = 0.005

# The bundled STAI example at table precision: unit-weighted, factor-score, reflective.
STAI_GOLDENS = {"unit_weighted": "0.1969", "factor_score": "0.1975", "reflective": "0.0668"}

# Acceptance inversions at table precision.
SOLVE_R_GOLDENS = {(0.06, 16): 0.8164, (0.09, 60): 0.4967}
MIN_P_GOLDENS = {(0.09, 0.199): 156}


def closed_form(r: float, p: int) -> float:
    """Parallel-measurement SRMR, factorised as (1 - r) * sqrt((p-1)(2p-1)/(p+1)) / p."""
    return (1.0 - r) * math.sqrt((p - 1) * (2 * p - 1) / (p + 1)) / p


def closed_form_ratio(r: float, p: int, target: float) -> float:
    """closed_form(r, p) / target, computed exactly so that any integer p works."""
    squared = (1 - Fraction(r)) ** 2 * Fraction((p - 1) * (2 * p - 1), (p + 1) * p * p)
    return math.sqrt(float(squared / Fraction(target) ** 2))


def srmr(sigma: np.ndarray, implied: np.ndarray) -> float:
    """SRMR with a double-weighted diagonal."""
    resid = sigma - implied
    p = sigma.shape[0]
    return math.sqrt((np.sum(resid * resid) + np.sum(np.diag(resid) ** 2)) / (p * (p + 1)))


def to_correlation(sigma: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.diag(sigma))
    return sigma / np.outer(scale, scale)


def unit_weighted_implied(sigma: np.ndarray) -> np.ndarray:
    cross = sigma.sum(axis=1)
    return np.outer(cross, cross) / cross.sum()


def factor_score_implied(sigma: np.ndarray, lam: np.ndarray) -> np.ndarray:
    gram = lam @ np.linalg.solve(sigma, lam)
    return np.outer(lam, lam) / gram


def reflective_implied(lam: np.ndarray) -> np.ndarray:
    implied = np.outer(lam, lam)
    np.fill_diagonal(implied, 1.0)
    return implied


def fit_check_srmrs(matrix: np.ndarray, lam: np.ndarray | None) -> dict[str, float]:
    """Standardized SRMR of each model fit-check reports, on the correlation-rescaled matrix."""
    corr = to_correlation(matrix)
    values = {"unit_weighted": srmr(corr, unit_weighted_implied(corr))}
    if lam is not None:
        values["factor_score"] = srmr(corr, factor_score_implied(corr, lam))
        values["reflective"] = srmr(corr, reflective_implied(lam))
    return values


def population_srmr(l: float, p: int, variable: bool) -> float:
    """Unit-weighted SRMR of a one-factor population (constant or +/- .10 loadings)."""
    lam = np.full(p, l)
    if variable:
        lam[: p // 2] += 0.10
        lam[p // 2 :] -= 0.10
    corr = reflective_implied(lam)
    return srmr(corr, unit_weighted_implied(corr))
