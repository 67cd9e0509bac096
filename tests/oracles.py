"""Matrix-free SRMRs of a standardized one-factor population, in plain Python floats.

For ``Sigma = lambda lambda' + Psi`` with ``psi_i = 1 - lambda_i^2``, each
model's residual has a sum of squared entries and a diagonal that are sums of
O(p) terms, so no matrix is formed and no numpy routine is shared with the
library.  With ``total`` the sum of all squared residuals and ``diagonal`` the
sum of the squared diagonal residuals, the SRMR is
``sqrt((total + diagonal) / (p (p + 1)))``: the diagonal is double-weighted.

- Unit-weighted scale: with ``S = sum(lambda)``, ``c = S lambda + psi`` and
  ``s = S^2 + sum(psi)``, the residual is ``lambda lambda' + Psi - c c'/s``.
- Regression factor score: with ``a = sum(lambda^2 / psi)``, Sherman-Morrison
  gives ``lambda' Sigma^-1 lambda = a / (1 + a)``, so the residual is
  ``Psi - lambda lambda'/a``.
- Reflective: the residual is 0.

The sums cancel as the SRMR nears 0, so these are oracles for loadings away
from 1.  Loadings must lie in (0, 1): with positive loadings the unit weights
are all +1.
"""

from __future__ import annotations

import math


def _checked(loadings) -> list[float]:
    lam = [float(value) for value in loadings]
    if len(lam) < 2 or not all(0.0 < value < 1.0 for value in lam):
        raise ValueError("need two or more loadings in (0, 1)")
    return lam


def _srmr(total: float, diagonal: float, p: int) -> float:
    return math.sqrt((total + diagonal) / (p * (p + 1)))


def unit_weighted_srmr(loadings) -> float:
    """SRMR of the single unit-weighted scale on ``lambda lambda' + Psi``."""
    lam = _checked(loadings)
    psi = [1.0 - value * value for value in lam]
    total_loading = math.fsum(lam)
    c = [total_loading * value + uniqueness for value, uniqueness in zip(lam, psi)]
    s = total_loading * total_loading + math.fsum(psi)
    lam_lam = math.fsum(value * value for value in lam)
    lam_c = math.fsum(value * ci for value, ci in zip(lam, c))
    c_c = math.fsum(ci * ci for ci in c)
    total = math.fsum([
        lam_lam * lam_lam,
        -2.0 * lam_c * lam_c / s,
        c_c * c_c / (s * s),
        2.0 * math.fsum(q * (v * v - ci * ci / s) for v, q, ci in zip(lam, psi, c)),
        math.fsum(q * q for q in psi),
    ])
    diagonal = math.fsum((1.0 - ci * ci / s) ** 2 for ci in c)
    return _srmr(total, diagonal, len(lam))


def factor_score_srmr(loadings) -> float:
    """SRMR of the regression factor score on ``lambda lambda' + Psi``."""
    lam = _checked(loadings)
    psi = [1.0 - value * value for value in lam]
    a = math.fsum(v * v / q for v, q in zip(lam, psi))
    lam_lam = math.fsum(v * v for v in lam)
    total = math.fsum([
        (lam_lam / a) ** 2,
        -2.0 * math.fsum(q * v * v for v, q in zip(lam, psi)) / a,
        math.fsum(q * q for q in psi),
    ])
    diagonal = math.fsum((q - v * v / a) ** 2 for v, q in zip(lam, psi))
    return _srmr(total, diagonal, len(lam))


def population_matrix(loadings) -> list[list[float]]:
    """``lambda lambda' + Psi`` as rows: ``lambda_i lambda_j`` off the diagonal, 1 on it."""
    lam = _checked(loadings)
    return [[1.0 if i == j else vi * vj for j, vj in enumerate(lam)] for i, vi in enumerate(lam)]
