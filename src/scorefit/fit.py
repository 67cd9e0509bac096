"""SRMR discrepancy, its closed form for parallel measurements, and inversions.

The closed form factorises as ``(1 - r) * K(p)``, so the r required for a target
SRMR is an exact expression, and the minimal scale length follows from
``K(p)^2 ~ 2/p`` plus an integer fix-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, NoSolutionError, ValidationError
from .model import CorrelationMatrix, ParallelSpec

class ModelKind(Enum):
    FACTOR_SCORE = "factor_score"
    UNIT_WEIGHTED = "unit_weighted"
    REFLECTIVE_FACTOR = "reflective_factor"
    CLOSED_FORM_PARALLEL = "closed_form_parallel"


@dataclass(frozen=True)
class FitReport:
    """SRMR value plus the residual matrix it was computed from."""

    srmr: float
    residuals: np.ndarray
    model_kind: ModelKind | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        resid = np.array(self.residuals, dtype=float)
        resid.setflags(write=False)
        object.__setattr__(self, "residuals", resid)
        object.__setattr__(self, "warnings", tuple(self.warnings))


def _srmr_from_residuals(resid: np.ndarray) -> np.ndarray:
    # SRMR of each residual matrix of a (..., p, p) stack.  Diagonal residuals
    # are double-weighted: all p^2 squared entries plus the p squared diagonal
    # entries, averaged over p(p+1) and square-rooted.
    p = resid.shape[-1]
    diag = np.diagonal(resid, axis1=-2, axis2=-1)
    total = (resid * resid).sum(axis=(-2, -1)) + (diag * diag).sum(axis=-1)
    return np.sqrt(total / (p * (p + 1)))


def srmr(
    sigma: CorrelationMatrix,
    sigma_model: CorrelationMatrix,
    model_kind: ModelKind | None = None,
    warnings: Iterable[str] = (),
) -> FitReport:
    """Standardized root mean square residual between two covariance matrices.

    The residual is ``sigma - sigma_model``; swapping the arguments leaves the
    value unchanged.  Identical matrices give exactly zero.
    """
    if sigma.p != sigma_model.p:
        raise DimensionError(
            f"matrix sizes differ: {sigma.p} vs {sigma_model.p}"
        )
    if sigma.p == 0:
        raise DimensionError("SRMR needs at least one indicator, got 0x0 matrices")
    resid = sigma.values - sigma_model.values
    return FitReport(float(_srmr_from_residuals(resid)), resid, model_kind, tuple(warnings))


def srmr_parallel_closed_form(r: float, p: int) -> float:
    """SRMR of the single unit-weighted scale on parallel measurements.

    The residual has p(p-1) off-diagonal entries of size (1-r)/p and a
    double-weighted diagonal of size (1-r)(1-1/p), which factorises exactly as
    ``(1-r) * K(p)`` with ``K(p) = sqrt((p-1)(2p-1)/(p+1)) / p``.  Exactly zero
    at r = 1; K rises from p=2 to p=3, then decreases towards zero.
    """
    spec = ParallelSpec(r, p)
    k = math.sqrt((spec.p - 1) * (2 * spec.p - 1) / (spec.p + 1)) / spec.p
    return (1.0 - spec.r) * k


def solve_r_for_srmr(target_srmr: float, p: int) -> float:
    """Inter-correlation r at which the parallel-scale SRMR hits the target.

    Exact inverse of the closed form: ``r = 1 - target / K(p)``, where K(p) is
    the r=0 value.  Targets above K(p) raise :class:`NoSolutionError`.
    """
    if not (math.isfinite(target_srmr) and target_srmr > 0.0):
        raise ValidationError(f"target SRMR must be positive, got {target_srmr!r}")
    ceiling = srmr_parallel_closed_form(0.0, p)
    if target_srmr > ceiling:
        raise NoSolutionError(
            f"target SRMR {target_srmr:g} exceeds the r=0 value {ceiling:.6f} "
            f"for p={p}; no r in [0, 1] attains it"
        )
    return 1.0 - target_srmr / ceiling


def min_p_for_srmr(target_srmr: float, r: float) -> int:
    """Smallest scale length p >= 2 whose parallel-scale SRMR is <= the target.

    Since ``K(p)^2 = 2/p - O(1/p^2)``, the answer lies within a few steps of
    ``2 (1-r)^2 / target^2``; the closed form, decreasing for p >= 3, fixes it
    up one step at a time.  Targets that need more than 2**53 indicators raise
    :class:`NoSolutionError`: beyond that binary64 cannot tell p from p-1.
    """
    if not (math.isfinite(target_srmr) and target_srmr > 0.0):
        raise ValidationError(f"target SRMR must be positive, got {target_srmr!r}")
    if not (math.isfinite(r) and 0.0 <= r < 1.0):
        raise ValidationError(f"need r in [0, 1), got {r!r}")
    if srmr_parallel_closed_form(r, 2) <= target_srmr:
        return 2
    # Plain multiplication overflows to inf where ** would raise.
    x = (1.0 - r) / target_srmr
    estimate = 2.0 * x * x
    if estimate > 2**53:
        raise NoSolutionError(
            f"target SRMR {target_srmr:g} at r={r:g} needs more than 2**53 "
            "indicators, where binary64 cannot tell p from p-1"
        )
    # p=2 failed, so the estimate exceeds 8, and the downward walk stops by p=4
    # because the value at p=3 lies above the value at p=2.
    p = math.ceil(estimate)
    while srmr_parallel_closed_form(r, p) > target_srmr:
        p += 1
    while srmr_parallel_closed_form(r, p - 1) <= target_srmr:
        p -= 1
    return p


@dataclass(frozen=True)
class CurvePoint:
    """Required inter-correlation for one (scale length, SRMR level) pair.

    ``required_r`` is None when no r in [0, 1] attains the level.
    """

    p: int
    srmr_level: float
    required_r: float | None


def required_r_curve(
    srmr_levels: Sequence[float], p_range: Iterable[int]
) -> list[CurvePoint]:
    """Required r for each (p, level) pair, in ascending (p, level) order.

    Unattainable combinations are emitted as data points with
    ``required_r=None`` rather than raised as errors.  An empty level list or
    p range raises :class:`ValidationError`.
    """
    levels = sorted(float(level) for level in srmr_levels)
    if not levels:
        raise ValidationError("the curve needs at least one SRMR level")
    for level in levels:
        if not (math.isfinite(level) and level > 0.0):
            raise ValidationError(f"SRMR levels must be positive, got {level!r}")
    ps = sorted(set(int(p) for p in p_range))
    if not ps:
        raise ValidationError("the curve needs a non-empty p range")
    points = []
    for p in ps:
        for level in levels:
            try:
                required = solve_r_for_srmr(level, p)
            except NoSolutionError:
                required = None
            points.append(CurvePoint(p, level, required))
    return points
