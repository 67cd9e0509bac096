"""Factor-score-estimator weights, unit-weighted scales and their implied covariances.

Score weights are plain arrays: a p x q matrix B, one column per composite,
or a length-p vector for a single one such as a unit-weighted scale
(``np.ones(p)``).  The weights are the whole score model; its implied
covariance is ``Sigma B (B' Sigma B)^-1 B' Sigma``.

Two independent routes to a score-implied covariance are exposed on purpose:
``fs_implied_sigma`` evaluates the factor-score form directly from the model,
while ``score_model_implied_sigma`` projects through an explicit weight matrix.
Their agreement on regression weights is a cross-check, not a shared code path.
"""

from __future__ import annotations

from ._numpy import np
from .errors import DimensionError, ValidationError
from .model import CorrelationMatrix, FactorModel, _as_columns, spd_solve


def _check_same_p(sigma: CorrelationMatrix, other_p: int, what: str) -> None:
    if sigma.p != other_p:
        raise DimensionError(f"{what} has {other_p} rows but the matrix has {sigma.p}")


def regression_weights(sigma: CorrelationMatrix, model: FactorModel) -> np.ndarray:
    """Regression (Thurstone) factor score weights ``Sigma^-1 L Phi``, a p x q array."""
    _check_same_p(sigma, model.p, "loading matrix")
    return spd_solve(sigma.values, model.loadings @ model.factor_correlations)


def bartlett_weights(model: FactorModel) -> np.ndarray:
    """Bartlett factor score weights ``Psi^-2 L (L' Psi^-2 L)^-1``, a p x q array.

    Satisfies ``B' L = I`` (conditionally unbiased scores).
    """
    lam = model.loadings
    lam_w = lam / model.uniquenesses[:, None]  # Psi^-2 L
    gram = lam.T @ lam_w
    return spd_solve(gram, lam_w.T).T


def fs_implied_sigma(sigma: CorrelationMatrix, model: FactorModel) -> CorrelationMatrix:
    """Covariance reproduced by common factor score estimates: L (L' Sigma^-1 L)^-1 L'.

    The same matrix is reproduced by the regression, Bartlett and McDonald
    estimators, so no weight matrix is needed here.
    """
    _check_same_p(sigma, model.p, "loading matrix")
    lam = model.loadings
    gram = lam.T @ spd_solve(sigma.values, lam)  # L' Sigma^-1 L
    implied = lam @ spd_solve(gram, lam.T)
    return CorrelationMatrix(implied)


def score_model_implied_sigma(sigma: CorrelationMatrix, weights) -> CorrelationMatrix:
    """Covariance reproduced by composite scores: Sigma B (B' Sigma B)^-1 B' Sigma.

    ``weights`` is B: a length-p vector (one composite) or a p x q array-like
    of finite entries, q >= 1.  Works for any weight matrix; invariant to rescaling of
    the weights.  The result is an oblique projection of Sigma, so applying
    the operation to its own output with the same weights reproduces it.
    """
    weights = _as_columns(weights, "weights")
    _check_same_p(sigma, weights.shape[0], "weight matrix")
    if not weights.shape[1]:
        raise DimensionError("weight matrix has no columns: a score model needs a composite")
    # Sums of entries near the binary64 limit overflow here.  Such a B' Sigma B
    # or product is rejected below, so numpy's overflow warning would only
    # precede that error.
    with np.errstate(over="ignore", invalid="ignore"):
        cross = sigma.values @ weights  # Sigma B
        gram = weights.T @ cross  # B' Sigma B
        if not np.isfinite(gram).all():
            raise ValidationError("B' Sigma B is not finite: the entries are too large to sum")
        implied = cross @ spd_solve(gram, cross.T)
        if not np.isfinite(implied).all():
            raise ValidationError(
                "Sigma B (B' Sigma B)^-1 B' Sigma is not finite: "
                "the entries are too large to multiply"
            )
    return CorrelationMatrix(implied)

