import warnings

import numpy as np
import pytest

from scorefit import (
    CorrelationMatrix,
    DimensionError,
    FactorModel,
    NearSingularMatrixWarning,
    SingularMatrixError,
    ValidationError,
    bartlett_weights,
    build_parallel_sigma,
    fs_implied_sigma,
    population_correlation,
    regression_weights,
    score_model_implied_sigma,
)


def one_factor_parallel(l, p):
    sigma = build_parallel_sigma(l * l, p)
    model = FactorModel.from_standardized_loadings(np.full(p, l))
    return sigma, model


class TestRegressionWeights:
    @pytest.mark.parametrize("l,p", [(0.3, 4), (0.6, 6), (0.8, 12)])
    def test_parallel_closed_form(self, l, p):
        # For equal loadings l the weights collapse to l / (1 + (p-1) l^2).
        sigma, model = one_factor_parallel(l, p)
        w = regression_weights(sigma, model)
        assert np.allclose(w, l / (1 + (p - 1) * l * l), atol=1e-12)

    def test_identity_everything(self):
        sigma = CorrelationMatrix(np.eye(3))
        model = FactorModel(np.eye(3), np.eye(3), np.full(3, 0.5))
        assert np.allclose(regression_weights(sigma, model), np.eye(3))

    def test_stai_downstream_matches_fs_route(self, stai_sigma, stai_lam):
        model = FactorModel.from_standardized_loadings(stai_lam)
        w = regression_weights(stai_sigma, model)
        assert w.shape == (20, 1)
        via_weights = score_model_implied_sigma(stai_sigma, w)
        direct = fs_implied_sigma(stai_sigma, model)
        assert np.abs(via_weights.values - direct.values).max() < 1e-8

    def test_singular_sigma_raises(self):
        sigma = build_parallel_sigma(1.0, 3)
        model = FactorModel(np.full(3, 0.5), np.eye(1), np.full(3, 0.75))
        with pytest.raises(SingularMatrixError):
            regression_weights(sigma, model)


class TestBartlettWeights:
    def test_identity_model(self):
        model = FactorModel(np.eye(3), np.eye(3), np.ones(3))
        assert np.allclose(bartlett_weights(model), np.eye(3))

    @pytest.mark.parametrize("l,p", [(0.4, 4), (0.6, 6), (0.8, 10)])
    def test_parallel_closed_form(self, l, p):
        _, model = one_factor_parallel(l, p)
        w = bartlett_weights(model)
        assert np.allclose(w, 1.0 / (p * l), atol=1e-12)

    def test_unbiasedness_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p, q = int(rng.integers(3, 9)), int(rng.integers(1, 3))
            q = min(q, p)
            lam = rng.uniform(0.2, 0.8, size=(p, q)) * rng.choice([0.0, 1.0], size=(p, q), p=[0.3, 0.7])
            lam[np.arange(q), np.arange(q)] = 0.7  # keep full column rank
            model = FactorModel(lam, np.eye(q), rng.uniform(0.2, 1.0, size=p))
            w = bartlett_weights(model)
            assert np.abs(w.T @ model.loadings - np.eye(q)).max() < 1e-8


class TestFsImpliedSigma:
    def test_identity_loadings_reproduce_sigma(self, stai_sigma):
        model = FactorModel(np.eye(20), np.eye(20), np.full(20, 0.5))
        implied = fs_implied_sigma(stai_sigma, model)
        assert np.abs(implied.values - stai_sigma.values).max() < 1e-10

    def test_parallel_equals_unit_weight_projection(self):
        for l, p in [(0.4, 5), (0.7, 8)]:
            sigma, model = one_factor_parallel(l, p)
            r = l * l
            expected = np.full((p, p), r + (1 - r) / p)
            assert np.allclose(fs_implied_sigma(sigma, model).values, expected, atol=1e-12)

    def test_rank_is_at_most_q(self, stai_sigma, stai_lam):
        model = FactorModel.from_standardized_loadings(stai_lam)
        implied = fs_implied_sigma(stai_sigma, model)
        assert np.linalg.matrix_rank(implied.values, tol=1e-8) == 1

    def test_rank_deficient_loadings_raise(self, stai_sigma):
        lam = np.column_stack([np.full(20, 0.5), np.full(20, 0.5)])  # collinear columns
        model = FactorModel(lam, np.eye(2), np.full(20, 0.5))
        with pytest.raises(SingularMatrixError):
            fs_implied_sigma(stai_sigma, model)


class TestLargeCovariance:
    # A model product's rounding asymmetry grows with its entries and exceeds
    # SYMMETRY_TOL at these scales.  CorrelationMatrix judges it against each
    # entry's own variances, so the raw product is accepted and symmetrized.
    LOADINGS = np.linspace(0.3, 0.8, 30)

    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e8, 1e12])
    def test_unit_weighted_scale_at_any_scale(self, scale):
        sigma = CorrelationMatrix(population_correlation(self.LOADINGS).values * scale)
        implied = score_model_implied_sigma(sigma, np.ones(30))
        bits = implied.values.view(np.uint64)
        assert np.array_equal(bits, bits.T)
        cross = sigma.values.sum(axis=1)  # Sigma 1
        expected = np.outer(cross, cross) / cross.sum()  # Sigma 1 1' Sigma / 1' Sigma 1
        assert np.allclose(implied.values, expected, rtol=1e-12, atol=0.0)

    def test_scores_without_an_asymmetry_error(self):
        sigma = CorrelationMatrix(population_correlation(self.LOADINGS).values * 1e8)
        # Sigma^-1 scales as 1e-8, so L' Sigma^-1 L has a near-singular pivot.
        with pytest.warns(NearSingularMatrixWarning):
            implied = fs_implied_sigma(sigma, FactorModel.from_standardized_loadings(self.LOADINGS))
        assert np.array_equal(implied.values, implied.values.T)

    def test_entries_that_overflow_raise_without_a_numpy_warning(self):
        # B' Sigma B overflows at 1e308; numpy's overflow warning is silenced
        # where it starts, and the sum is rejected: scored as computed, it
        # gives an all-zero implied matrix, whose standardized SRMR is finite.
        sigma = CorrelationMatrix([[1e308, 0.5, 0.2], [0.5, 1e308, 0.3], [0.2, 0.3, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^B' Sigma B is not finite"):
                score_model_implied_sigma(sigma, np.ones(3))

    def test_a_product_that_overflows_is_named_without_a_numpy_warning(self):
        # Unit variances and B' Sigma B finite, but Sigma 1 holds sums near
        # 1e308, so Sigma 1 (1' Sigma 1)^-1 1' Sigma overflows: the error names
        # that product, not the input matrix.
        sigma = CorrelationMatrix([
            [1.0, 1e308, -1e308, 0.5],
            [1e308, 1.0, 0.0, 0.5],
            [-1e308, 0.0, 1.0, 0.5],
            [0.5, 0.5, 0.5, 1.0],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^Sigma B \(B' Sigma B\)\^-1 B' Sigma is not finite"):
                score_model_implied_sigma(sigma, np.ones(4))


class TestScoreModelImpliedSigma:
    @pytest.mark.parametrize("r,p", [(0.0, 3), (0.36, 6), (0.64, 24)])
    def test_parallel_unit_weights_closed_form(self, r, p):
        sigma = build_parallel_sigma(r, p)
        implied = score_model_implied_sigma(sigma, np.ones(p))
        assert np.allclose(implied.values, np.full((p, p), r + (1 - r) / p), atol=1e-13)

    def test_weight_rows_must_match_the_matrix(self, stai_sigma):
        with pytest.raises(DimensionError, match="^weight matrix has 19 rows but the matrix has 20$"):
            score_model_implied_sigma(stai_sigma, np.ones(19))

    def test_weights_must_be_finite(self, stai_sigma):
        weights = np.ones(20)
        weights[3] = np.inf
        with pytest.raises(ValidationError, match="^weights contain non-finite entries$"):
            score_model_implied_sigma(stai_sigma, weights)

    def test_rejects_three_dim_weights(self, stai_sigma):
        with pytest.raises(DimensionError, match="^weights must be 1-d or 2-d, got ndim=3$"):
            score_model_implied_sigma(stai_sigma, np.ones((20, 1, 1)))

    def test_a_list_a_vector_and_a_column_give_the_same_bits(self, stai_sigma):
        weights = [0.5, -1.0, 2.0] + [1.0] * 17
        as_list, as_vector, as_column = (
            score_model_implied_sigma(stai_sigma, w).values.view(np.uint64)
            for w in (weights, np.array(weights), np.array(weights)[:, None])
        )
        assert np.array_equal(as_vector, as_list)
        assert np.array_equal(as_column, as_list)

    def test_single_indicator_returns_sigma(self):
        sigma = CorrelationMatrix([[2.5]])
        implied = score_model_implied_sigma(sigma, np.ones(1))
        assert implied.values[0, 0] == pytest.approx(2.5, abs=1e-14)

    def test_projection_idempotence(self, stai_sigma):
        w = np.ones(20)
        once = score_model_implied_sigma(stai_sigma, w)
        twice = score_model_implied_sigma(once, w)
        assert np.abs(once.values - twice.values).max() < 1e-8

    def test_invariant_to_weight_rescaling(self, stai_sigma):
        base = score_model_implied_sigma(stai_sigma, np.ones(20))
        other = score_model_implied_sigma(stai_sigma, np.full((20, 1), -3.7))
        assert np.abs(base.values - other.values).max() < 1e-10

    def test_collinear_scales_raise(self, stai_sigma):
        with pytest.raises(SingularMatrixError):
            score_model_implied_sigma(stai_sigma, np.ones((20, 2)))  # identical scales

    def test_nearly_collinear_scales_warn(self, stai_sigma):
        values = np.ones((20, 2))
        values[0, 1] = 1.0 + 2e-5
        with pytest.warns(NearSingularMatrixWarning):
            score_model_implied_sigma(stai_sigma, values)

    def test_residual_diag_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(2, 10))
            a = rng.normal(size=(p + 3, p))
            sigma = CorrelationMatrix(a.T @ a / (p + 3) + 0.2 * np.eye(p))
            implied = score_model_implied_sigma(sigma, np.ones(p))
            resid = sigma.values - implied.values
            assert np.diag(resid).min() >= -1e-10
            assert np.linalg.eigvalsh(resid).min() >= -1e-8


class TestEstimatorInvariance:
    def test_regression_bartlett_and_direct_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p, q = int(rng.integers(4, 10)), int(rng.integers(1, 3))
            lam = np.zeros((p, q))
            for j in range(q):
                block = slice(j * (p // q), (j + 1) * (p // q) if j < q - 1 else p)
                lam[block, j] = rng.uniform(0.4, 0.8, size=lam[block, j].shape)
            phi = np.eye(q)
            if q == 2:
                phi[0, 1] = phi[1, 0] = rng.uniform(-0.5, 0.5)
            model = FactorModel.from_standardized_loadings(lam, phi)
            sigma = CorrelationMatrix(
                model.loadings @ phi @ model.loadings.T + np.diag(model.uniquenesses)
            )
            direct = fs_implied_sigma(sigma, model)
            via_reg = score_model_implied_sigma(sigma, regression_weights(sigma, model))
            via_bart = score_model_implied_sigma(sigma, bartlett_weights(model))
            assert np.abs(direct.values - via_reg.values).max() < 1e-8
            assert np.abs(direct.values - via_bart.values).max() < 1e-8
