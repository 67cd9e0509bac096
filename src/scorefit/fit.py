"""SRMR discrepancy, its closed form for parallel measurements, and inversions.

The closed form factorises as ``(1 - r) * K(p)``, so the r required for a target
SRMR is an exact expression, and the minimal scale length follows from
``K(p)^2 ~ 2/p`` plus an integer fix-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ._numpy import np
from .errors import DimensionError, NoSolutionError, ValidationError
from .model import CorrelationMatrix, _parallel_design


@dataclass(frozen=True)
class FitReport:
    """SRMR value plus its residual matrix: a float64 array is kept and made read-only."""

    srmr: float
    residuals: np.ndarray

    def __post_init__(self):
        resid = np.asarray(self.residuals, dtype=float)
        resid.setflags(write=False)
        object.__setattr__(self, "residuals", resid)


def _srmr_from_squares(squares: np.ndarray) -> np.ndarray:
    # SRMR of each residual matrix of a (..., p, p) stack, given its squared
    # residuals, so that a caller that owns its residuals can square them in
    # place.  Diagonal residuals are double-weighted: all p^2 squared entries
    # plus the p squared diagonal entries, averaged over p(p+1) and square-rooted.
    p = squares.shape[-1]
    diag = np.diagonal(squares, axis1=-2, axis2=-1)
    total = squares.sum(axis=(-2, -1)) + diag.sum(axis=-1)
    return np.sqrt(total / (p * (p + 1)))


def _standardized(values: np.ndarray, variances: np.ndarray, where: str = "") -> np.ndarray:
    """``values_ij * s_i * s_j``, left to right, with ``s = 1/sqrt(variances)``.

    No product of two variances is formed, so entries near 1e308 stay finite;
    one far above its variances may overflow, for the caller to reject.  A
    variance that is not positive raises, naming its indicator after ``where``.
    """
    if not (variances > 0.0).all():
        i = int(np.argmin(variances > 0.0))
        raise ValidationError(f"{where}variance of indicator {i} is {variances[i]:g}, not positive")
    s = 1.0 / np.sqrt(variances)
    with np.errstate(over="ignore"):
        return values * s[:, None] * s


def srmr(sigma: CorrelationMatrix, sigma_model: CorrelationMatrix) -> FitReport:
    """Standardized root mean square residual between two covariance matrices.

    ``sigma`` is the observed matrix.  The residual ``sigma - sigma_model`` is
    standardized by its variances, as Hu and Bentler (1999) define the SRMR:
    entry (i, j) is scaled by ``s_i s_j``, ``s = 1/sqrt(diag(sigma))``, so the
    value is invariant to the units of each indicator, and on a correlation
    matrix the scale is exactly 1.  Swapping the arguments leaves the value
    unchanged when the two diagonals match.  Identical matrices give exactly
    zero.  A variance that is not positive, or standardized residuals too
    large to square in binary64, raise :class:`ValidationError`.
    """
    if sigma.p != sigma_model.p:
        raise DimensionError(
            f"matrix sizes differ: {sigma.p} vs {sigma_model.p}"
        )
    if sigma.p == 0:
        raise DimensionError("SRMR needs at least one indicator, got 0x0 matrices")
    with np.errstate(over="ignore"):
        resid = _standardized(sigma.values - sigma_model.values, np.diagonal(sigma.values))
        value = float(_srmr_from_squares(resid * resid))
    if not math.isfinite(value):
        raise ValidationError("the SRMR is not finite: the residuals are too large to square")
    return FitReport(value, resid)


def srmr_parallel_closed_form(r: float, p: int) -> float:
    """SRMR of the single unit-weighted scale on parallel measurements.

    The residual has p(p-1) off-diagonal entries of size (1-r)/p and a
    double-weighted diagonal of size (1-r)(1-1/p), which factorises exactly as
    ``(1-r) * K(p)`` with ``K(p) = sqrt((p-1)(2p-1)/(p+1)) / p``.  Exactly zero
    at r = 1; K rises from p=2 to p=3, then decreases towards zero.  Beyond
    about p = 9e307 the radicand leaves the binary64 range, and such a p raises
    :class:`ValidationError`.
    """
    r, p = _parallel_design(r, p)
    try:
        k = math.sqrt((p - 1) * (2 * p - 1) / (p + 1)) / p
    except OverflowError:
        raise ValidationError(
            f"p is too large: (p-1)(2p-1)/(p+1) exceeds the binary64 range "
            f"for this {p.bit_length()}-bit p"
        ) from None
    return (1.0 - r) * k


def solve_r_for_srmr(target_srmr: float, p: int) -> float:
    """Inter-correlation r at which the parallel-scale SRMR hits the target.

    Exact inverse of the closed form: ``r = 1 - target / K(p)``, where K(p) is
    the r=0 value.  Targets above K(p) raise :class:`NoSolutionError`.
    """
    if not (math.isfinite(target_srmr) and target_srmr > 0.0):
        raise ValidationError(f"target SRMR must be positive and finite, got {target_srmr!r}")
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
        raise ValidationError(f"target SRMR must be positive and finite, got {target_srmr!r}")
    if not (math.isfinite(r) and 0.0 <= r < 1.0):
        raise ValidationError(f"need r in [0, 1), got {r!r}")
    if srmr_parallel_closed_form(r, 2) <= target_srmr:
        return 2
    # Plain multiplication overflows to inf where ** would raise.
    x = (1.0 - r) / target_srmr
    estimate = 2.0 * x * x
    if estimate > 2**53:
        raise NoSolutionError(
            f"target SRMR {target_srmr!r} at r={r!r} needs more than 2**53 "
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


# Cap on the points of one curve, checked before any point is made.  A point
# costs about 1 KB while its JSON report is built, so 2**20 points stay near
# 1 GiB; CSV and table reports take about a quarter of that.
MAX_CURVE_POINTS = 2**20


@dataclass(frozen=True)
class RequiredRCurve:
    """Required inter-correlation over a grid of scale lengths and SRMR levels.

    ``levels`` and ``ps`` ascend; ``required_r[i][k]`` is the r that ``ps[i]``
    indicators need for ``levels[k]``, and None where no r in [0, 1] attains it.
    """

    levels: tuple[float, ...]
    ps: tuple[int, ...]
    required_r: tuple[tuple[float | None, ...], ...]


def required_r_curve(
    srmr_levels: Sequence[float], p_range: Iterable[int]
) -> RequiredRCurve:
    """Required r for each (p, level) pair, one row per p, in ascending (p, level) order.

    Unattainable combinations are entries of None rather than raised as
    errors.  An empty level list or p range, or more than
    :data:`MAX_CURVE_POINTS` points (levels times distinct p), raises
    :class:`ValidationError`.
    """
    levels = tuple(sorted(float(level) for level in srmr_levels))
    if not levels:
        raise ValidationError("the curve needs at least one SRMR level")
    for level in levels:
        if not (math.isfinite(level) and level > 0.0):
            raise ValidationError(f"SRMR levels must be positive and finite, got {level!r}")
    most_ps = MAX_CURVE_POINTS // len(levels)
    too_many = (
        f"the curve is capped at {MAX_CURVE_POINTS} points: {len(levels)} SRMR "
        f"level(s) allow at most {most_ps} distinct p"
    )
    # A range is measured in O(1) (a slice of a range is a range), before any
    # p is made; other iterables are measured once their distinct p are known.
    if isinstance(p_range, range) and p_range[most_ps:]:
        raise ValidationError(too_many)
    ps = tuple(sorted(set(int(p) for p in p_range)))
    if not ps:
        raise ValidationError("the curve needs a non-empty p range")
    if len(ps) > most_ps:
        raise ValidationError(too_many)
    rows = []
    for p in ps:
        ceiling = srmr_parallel_closed_form(0.0, p)  # solve_r_for_srmr's, once per p
        rows.append(tuple(1.0 - level / ceiling if level <= ceiling else None for level in levels))
    return RequiredRCurve(levels, ps, tuple(rows))
