"""Core domain types and the linear-algebra kernels every other module builds on.

Holds the covariance/correlation container, the common-factor model, the
equicorrelation ("parallel measurements") constructor, and Cholesky-based
positive-definite inversion with an explicit pivot tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    NearSingularMatrixWarning,
    SingularMatrixError,
    ValidationError,
)

# Tolerances used throughout: symmetry / unit-diagonal checks, Cholesky pivot
# rejection, and the pivot band that is accepted but flagged as near-singular.
SYMMETRY_TOL = 1e-10
PIVOT_TOL = 1e-10
NEAR_SINGULAR_TOL = 1e-6


def _as_float_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be a square 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    A pivot at or below ``PIVOT_TOL`` raises :class:`SingularMatrixError`
    naming the failing pivot index.  Factorization never warns: a caller that
    only checks or draws from the factor gets it silently, and the inversions
    below flag a near-singular matrix.
    """
    n = a.shape[0]
    lower = np.zeros((n, n))
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= PIVOT_TOL:
            raise SingularMatrixError(
                f"Cholesky pivot {j} is {pivot:.3e} (tolerance {PIVOT_TOL:g}); "
                "matrix is singular or not positive definite",
                pivot_index=j,
                pivot=pivot,
            )
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def _inversion_factor(a: np.ndarray) -> np.ndarray:
    """``cholesky_lower(a)``, warning when its smallest pivot is below ``NEAR_SINGULAR_TOL``."""
    lower = cholesky_lower(a)
    min_pivot = np.diag(lower).min(initial=math.inf) ** 2
    if min_pivot < NEAR_SINGULAR_TOL:
        warnings.warn(
            f"smallest Cholesky pivot {min_pivot:.3e} is below {NEAR_SINGULAR_TOL:g}; "
            "results may be unstable",
            NearSingularMatrixWarning,
            stacklevel=2,
        )
    return lower


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a`` via Cholesky.

    Raises :class:`SingularMatrixError` as :func:`cholesky_lower` does, and
    emits :class:`NearSingularMatrixWarning` for a pivot inside the band
    ``(PIVOT_TOL, NEAR_SINGULAR_TOL)``.
    """
    lower = _inversion_factor(a)
    return np.linalg.solve(lower.T, np.linalg.solve(lower, b))


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky.

    Raises and warns as :func:`spd_solve` does.
    """
    lower = _inversion_factor(a)
    lower_inv = np.linalg.solve(lower, np.eye(a.shape[0]))
    inv = lower_inv.T @ lower_inv
    return (inv + inv.T) / 2.0


@dataclass(frozen=True)
class CorrelationMatrix:
    """A p x p symmetric matrix of indicator inter-correlations or covariances.

    Inputs are symmetrized as ``(M + M') / 2`` on ingestion; asymmetry beyond
    ``SYMMETRY_TOL`` is rejected.  ``is_standardized`` is detected from the
    data: true when the diagonal is all ones and every off-diagonal entry lies
    in [-1, 1] (within tolerance).  Positive definiteness is not required at
    construction; operations that invert the matrix enforce it.

    Instances are immutable: the stored array is a read-only copy.
    """

    values: np.ndarray
    is_standardized: bool = field(init=False)

    def __post_init__(self):
        arr = _as_float_matrix(self.values, "correlation matrix")
        asym = np.abs(arr - arr.T).max() if arr.size else 0.0
        if asym > SYMMETRY_TOL:
            raise ValidationError(
                f"matrix is asymmetric: max |m[i,j] - m[j,i]| = {asym:.3e} "
                f"exceeds {SYMMETRY_TOL:g}"
            )
        arr = (arr + arr.T) / 2.0
        diag = np.diag(arr)
        off = arr - np.diag(diag)
        standardized = bool(
            np.abs(diag - 1.0).max(initial=0.0) <= SYMMETRY_TOL
            and np.abs(off).max(initial=0.0) <= 1.0 + SYMMETRY_TOL
        )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "is_standardized", standardized)

    @property
    def p(self) -> int:
        """Number of indicators."""
        return self.values.shape[0]


@dataclass(frozen=True)
class FactorModel:
    """Common factor model: loadings, factor correlations and unique variances.

    Parameters
    ----------
    loadings : array-like, shape (p, q)
        Factor loading matrix.  A 1-d array is treated as a single column.
    factor_correlations : array-like, shape (q, q)
        Factor inter-correlations; symmetric, unit diagonal, positive definite.
    uniquenesses : array-like, length p
        Diagonal of the error covariance; every entry must be positive.
    """

    loadings: np.ndarray
    factor_correlations: np.ndarray
    uniquenesses: np.ndarray

    def __post_init__(self):
        lam = np.array(self.loadings, dtype=float)
        if lam.ndim == 1:
            lam = lam[:, None]
        if lam.ndim != 2:
            raise DimensionError(f"loadings must be 1-d or 2-d, got ndim={lam.ndim}")
        if not np.isfinite(lam).all():
            raise ValidationError("loadings contain non-finite entries")
        p, q = lam.shape
        if q < 1 or p < q:
            raise DimensionError(f"need p >= q >= 1, got p={p}, q={q}")

        phi = _as_float_matrix(self.factor_correlations, "factor correlations")
        if phi.shape != (q, q):
            raise DimensionError(
                f"factor correlations are {phi.shape}, expected ({q}, {q}) "
                f"to match {q} loading columns"
            )
        if np.abs(phi - phi.T).max() > SYMMETRY_TOL:
            raise ValidationError("factor correlations are asymmetric")
        phi = (phi + phi.T) / 2.0
        if np.abs(np.diag(phi) - 1.0).max() > SYMMETRY_TOL:
            raise ValidationError("factor correlations must have a unit diagonal")
        try:
            cholesky_lower(phi)
        except SingularMatrixError as exc:
            raise ValidationError(f"factor correlations are not positive definite: {exc}") from exc

        psi2 = np.array(self.uniquenesses, dtype=float).ravel()
        if psi2.size != p:
            raise DimensionError(
                f"got {psi2.size} uniquenesses for {p} indicators"
            )
        if not np.isfinite(psi2).all() or (psi2 <= 0.0).any():
            raise ValidationError("every uniqueness must be a positive finite number")

        for name, arr in (("loadings", lam), ("factor_correlations", phi), ("uniquenesses", psi2)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return self.loadings.shape[0]

    @property
    def q(self) -> int:
        return self.loadings.shape[1]

    @classmethod
    def from_standardized_loadings(cls, loadings, factor_correlations=None) -> "FactorModel":
        """Model with unit implied variances: uniquenesses = 1 - diag(L Phi L').

        Requires completely standardized loadings, i.e. every implied communality
        must stay below one.
        """
        lam = np.array(loadings, dtype=float)
        if lam.ndim == 1:
            lam = lam[:, None]
        q = lam.shape[1]
        phi = np.eye(q) if factor_correlations is None else np.array(factor_correlations, dtype=float)
        communalities = np.diag(lam @ phi @ lam.T)
        uniq = 1.0 - communalities
        if (uniq <= 0.0).any():
            worst = int(np.argmin(uniq))
            raise ValidationError(
                f"communality of indicator {worst} is {communalities[worst]:.4f} >= 1; "
                "loadings are not completely standardized"
            )
        return cls(lam, phi, uniq)


@dataclass(frozen=True)
class ParallelSpec:
    """Equicorrelation design: p indicators sharing one inter-correlation r."""

    r: float
    p: int

    def __post_init__(self):
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 2):
            raise ValidationError(f"need an integer p >= 2, got {self.p!r}")
        if not (math.isfinite(self.r) and 0.0 <= self.r <= 1.0):
            raise ValidationError(f"need r in [0, 1], got {self.r!r}")
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "p", int(self.p))


def factor_implied_sigma(model: FactorModel) -> CorrelationMatrix:
    """Covariance matrix implied by a common factor model: L Phi L' + Psi^2."""
    lam = model.loadings
    sigma = lam @ model.factor_correlations @ lam.T + np.diag(model.uniquenesses)
    return CorrelationMatrix(sigma)


def build_parallel_sigma(spec: ParallelSpec) -> CorrelationMatrix:
    """Correlation matrix of parallel measurements: unit diagonal, r elsewhere."""
    sigma = np.full((spec.p, spec.p), spec.r)
    np.fill_diagonal(sigma, 1.0)
    return CorrelationMatrix(sigma)


def invert_spd(m: CorrelationMatrix) -> CorrelationMatrix:
    """Inverse of a symmetric positive definite matrix.

    Uses a Cholesky factorization with pivot tolerance ``PIVOT_TOL``; a failing
    pivot raises :class:`SingularMatrixError` naming its index.
    """
    return CorrelationMatrix(spd_inverse(m.values))
