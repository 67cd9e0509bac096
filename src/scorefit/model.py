"""Core domain types and the linear-algebra kernels every other module builds on.

Holds the covariance/correlation container, the common-factor model, the
parallel-measurements matrix built from plain r and p, and the Cholesky
factorization and positive-definite solve, with an explicit pivot tolerance.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

from ._numpy import np
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
    # No copy of a float64 array: every caller replaces or only reads it.
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be a square 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _as_columns(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 1-d or 2-d, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contain non-finite entries")
    return arr


def _factor_correlations(values, q: int) -> np.ndarray:
    phi = _as_float_matrix(values, "factor correlations")
    if phi.shape != (q, q):
        raise DimensionError(
            f"factor correlations are {phi.shape}, expected ({q}, {q}) "
            f"to match {q} loading columns"
        )
    return phi


def _symmetrized(arr: np.ndarray, subject: str) -> np.ndarray:
    """``M/2 + M'/2``: the one place that checks or applies symmetry.

    Entry (i, j) must satisfy ``|m_ij - m_ji| <= SYMMETRY_TOL * max(1, sqrt|m_ii m_jj|)``,
    its own scale, so one large variance does not loosen the check elsewhere.
    ``M/2 + M'/2`` cannot overflow and equals ``(M + M')/2`` in the normal range.
    Where no entry differs from its mirror by more than ``SYMMETRY_TOL``, at
    most two new p x p arrays are held at once: ``|M - M'|`` in one buffer,
    dropped before halving, then ``M/2`` and the result.
    """
    with np.errstate(over="ignore"):  # +-1e308 pairs: inf, and rejected below
        diff = np.subtract(arr, arr.T)
        np.abs(diff, out=diff)
    if diff.size and diff.max() > SYMMETRY_TOL:
        # At or below SYMMETRY_TOL every entry passes.  The outer product cannot overflow.
        root = np.sqrt(np.abs(np.diagonal(arr)))
        bound = SYMMETRY_TOL * np.maximum(1.0, np.outer(root, root))
        i, j = np.unravel_index(np.argmax(diff / bound), diff.shape)
        if diff[i, j] > bound[i, j]:
            raise ValidationError(
                f"{subject} asymmetric: |m[{i},{j}] - m[{j},{i}]| = {diff[i, j]:.3e} exceeds "
                f"{SYMMETRY_TOL:g} * max(1, sqrt|m[{i},{i}] m[{j},{j}]|) = {bound[i, j]:.3e}"
            )
    del diff
    half = arr / 2.0
    return half + half.T


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Only the lower triangle of ``a`` is read.  LAPACK factors the matrix.
    Where it fails, or its smallest pivot ``diag(L)**2`` is at or below
    ``PIVOT_TOL``, :func:`_cholesky_loop` factors it again to name the pivot:
    a pivot at or below ``PIVOT_TOL`` raises :class:`SingularMatrixError`
    naming the failing pivot index, and a matrix the loop passes gets the
    loop's factor.  Factorization never warns: a caller that only checks or
    draws from the factor gets it silently, and :func:`spd_solve` flags a
    near-singular matrix.
    """
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return _cholesky_loop(a)
    diag = np.diagonal(lower)
    # A NaN pivot fails this test too, and the loop decides.
    if (diag * diag > PIVOT_TOL).all():
        return lower
    return _cholesky_loop(a)


def _cholesky_loop(a: np.ndarray) -> np.ndarray:
    """Column-by-column Cholesky that raises at the first pivot at or below ``PIVOT_TOL``.

    :func:`cholesky_lower` runs it only where LAPACK fails or leaves a pivot at
    or below the tolerance, so that the error names the pivot.  An entry too large to square gives a pivot of
    ``-inf``, refused like any other, not a numpy warning.
    """
    n = a.shape[0]
    lower = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
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


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a`` via Cholesky.

    Only the lower triangle of ``a`` is read.

    Raises :class:`SingularMatrixError` as :func:`cholesky_lower` does, and
    emits :class:`NearSingularMatrixWarning` for a pivot inside the band
    ``(PIVOT_TOL, NEAR_SINGULAR_TOL)``.
    """
    lower = cholesky_lower(a)
    min_pivot = np.diag(lower).min(initial=math.inf) ** 2
    if min_pivot < NEAR_SINGULAR_TOL:
        warnings.warn(
            f"smallest Cholesky pivot {min_pivot:.3e} is below {NEAR_SINGULAR_TOL:g}; "
            "results may be unstable",
            NearSingularMatrixWarning,
            stacklevel=2,
        )
    return np.linalg.solve(lower.T, np.linalg.solve(lower, b))


@dataclass(frozen=True)
class CorrelationMatrix:
    """A p x p symmetric matrix of indicator inter-correlations or covariances.

    Inputs are symmetrized on ingestion, and an asymmetry beyond the scale of
    its entry is rejected (see :func:`_symmetrized`), so model products at any
    scale can be passed in as computed.  Positive definiteness is not required
    at construction; operations that invert the matrix enforce it.

    Instances are immutable: the stored array is a read-only copy.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _symmetrized(_as_float_matrix(self.values, "correlation matrix"), "matrix is")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

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
        lam = _as_columns(self.loadings, "loadings")
        p, q = lam.shape
        if q < 1 or p < q:
            raise DimensionError(f"need p >= q >= 1, got p={p}, q={q}")

        phi = _factor_correlations(self.factor_correlations, q)
        phi = _symmetrized(phi, "factor correlations are")
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
        must stay below one.  Loadings and factor correlations are checked for
        shape and finiteness before the algebra; the constructor checks the rest.
        """
        lam = _as_columns(loadings, "loadings")
        q = lam.shape[1]
        phi = np.eye(q) if factor_correlations is None else factor_correlations
        phi = _factor_correlations(phi, q)
        # Only the diagonal of L Phi L' is needed: O(pq), and for one factor
        # each entry is exactly lambda_i^2.  A loading too large to square
        # gives an inf communality, refused below, not a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            communalities = ((lam @ phi) * lam).sum(axis=1)
        uniq = 1.0 - communalities
        if not (uniq > 0.0).all():
            worst = int(np.argmin(uniq))
            raise ValidationError(
                f"communality of indicator {worst} is {communalities[worst]:.4f} >= 1; "
                "loadings are not completely standardized"
            )
        return cls(lam, phi, uniq)


def _parallel_design(r, p) -> tuple[float, int]:
    """Checked ``(float(r), int(p))``: a Python int p keeps ``(p-1)(2p-1)`` from overflowing."""
    # numpy registers its integer types as numbers.Integral; int comes
    # first because a plain int then skips the slower ABC check.
    if not (isinstance(p, (int, numbers.Integral)) and p >= 2):
        raise ValidationError(f"need an integer p >= 2, got {p!r}")
    if not (math.isfinite(r) and 0.0 <= r <= 1.0):
        raise ValidationError(f"need r in [0, 1], got {r!r}")
    return float(r), int(p)


def factor_implied_sigma(model: FactorModel) -> CorrelationMatrix:
    """Covariance matrix implied by a common factor model: L Phi L' + Psi^2."""
    lam = model.loadings
    sigma = lam @ model.factor_correlations @ lam.T + np.diag(model.uniquenesses)
    return CorrelationMatrix(sigma)


def build_parallel_sigma(r: float, p: int) -> CorrelationMatrix:
    """Correlation matrix of p parallel measurements: unit diagonal, r elsewhere."""
    r, p = _parallel_design(r, p)
    sigma = np.full((p, p), r)
    np.fill_diagonal(sigma, 1.0)
    return CorrelationMatrix(sigma)

