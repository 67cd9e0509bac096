"""Factor-score-estimator weights, unit-weighted scales and their implied covariances.

Two independent routes to a score-implied covariance are exposed on purpose:
``fs_implied_sigma`` evaluates the factor-score form directly from the model,
while ``score_model_implied_sigma`` projects through an explicit weight matrix.
Their agreement on regression weights is a cross-check, not a shared code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._numpy import np
from .errors import DimensionError
from .model import CorrelationMatrix, FactorModel, _as_columns, spd_solve


@dataclass(frozen=True)
class ScoreWeights:
    """A p x q matrix of score weights; every entry must be finite.

    ``unit`` builds the weights of one unit-weighted scale.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_columns(self.values, "weights")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @classmethod
    def unit(cls, p: int) -> "ScoreWeights":
        """All-ones weights for a single unit-weighted scale over p indicators."""
        return cls(np.ones((p, 1)))


def _check_same_p(sigma: CorrelationMatrix, other_p: int, what: str) -> None:
    if sigma.p != other_p:
        raise DimensionError(f"{what} has {other_p} rows but the matrix has {sigma.p}")


def regression_weights(sigma: CorrelationMatrix, model: FactorModel) -> ScoreWeights:
    """Regression (Thurstone) factor score weights ``Sigma^-1 L Phi``."""
    _check_same_p(sigma, model.p, "loading matrix")
    weights = spd_solve(sigma.values, model.loadings @ model.factor_correlations)
    return ScoreWeights(weights)


def bartlett_weights(model: FactorModel) -> ScoreWeights:
    """Bartlett factor score weights ``Psi^-2 L (L' Psi^-2 L)^-1``.

    Satisfies ``B' L = I`` (conditionally unbiased scores).
    """
    lam = model.loadings
    lam_w = lam / model.uniquenesses[:, None]  # Psi^-2 L
    gram = lam.T @ lam_w
    weights = spd_solve(gram, lam_w.T).T
    return ScoreWeights(weights)


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


def score_model_implied_sigma(sigma: CorrelationMatrix, weights: ScoreWeights) -> CorrelationMatrix:
    """Covariance reproduced by composite scores: Sigma B (B' Sigma B)^-1 B' Sigma.

    Works for any weight matrix; invariant to rescaling of the weights.  The
    result is an oblique projection of Sigma, so applying the operation to its
    own output with the same weights reproduces it.
    """
    _check_same_p(sigma, weights.p, "weight matrix")
    cross = sigma.values @ weights.values  # Sigma B
    gram = weights.values.T @ cross  # B' Sigma B
    implied = cross @ spd_solve(gram, cross.T)
    return CorrelationMatrix(implied)

