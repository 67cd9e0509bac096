import warnings

import numpy as np
import pytest

from scorefit import (
    CorrelationMatrix,
    DimensionError,
    FactorModel,
    NearSingularMatrixWarning,
    ParallelSpec,
    SingularMatrixError,
    ValidationError,
    build_parallel_sigma,
    factor_implied_sigma,
    invert_spd,
)
from scorefit.model import cholesky_lower


class TestCorrelationMatrix:
    def test_symmetrizes_float_noise(self):
        m = np.array([[1.0, 0.3 + 4e-11], [0.3, 1.0]])
        cm = CorrelationMatrix(m)
        assert np.array_equal(cm.values, cm.values.T)
        assert cm.values[0, 1] == pytest.approx(0.3 + 2e-11, abs=1e-15)

    def test_rejects_real_asymmetry(self):
        with pytest.raises(ValidationError, match="asymmetric"):
            CorrelationMatrix([[1.0, 0.3], [0.4, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            CorrelationMatrix(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            CorrelationMatrix([[1.0, np.nan], [np.nan, 1.0]])

    def test_standardized_detection(self):
        assert CorrelationMatrix([[1.0, 0.5], [0.5, 1.0]]).is_standardized
        assert not CorrelationMatrix([[2.0, 0.5], [0.5, 1.0]]).is_standardized
        # Unit diagonal but an impossible off-diagonal entry.
        assert not CorrelationMatrix([[1.0, 1.5], [1.5, 1.0]]).is_standardized

    def test_values_are_read_only(self):
        cm = CorrelationMatrix(np.eye(3))
        with pytest.raises(ValueError):
            cm.values[0, 0] = 2.0


class TestFactorModel:
    def test_validates_shapes(self):
        with pytest.raises(DimensionError):
            FactorModel(np.ones((3, 2)), np.eye(2), np.ones(4))
        with pytest.raises(DimensionError):
            FactorModel(np.ones((3, 2)), np.eye(3), np.ones(3))
        with pytest.raises(DimensionError, match="p >= q"):
            FactorModel(np.ones((2, 3)), np.eye(3), np.ones(2))

    def test_validates_factor_correlations(self):
        with pytest.raises(ValidationError, match="unit diagonal"):
            FactorModel(np.ones((3, 2)) * 0.5, np.eye(2) * 2.0, np.ones(3))
        with pytest.raises(ValidationError, match="positive definite"):
            FactorModel(np.ones((3, 2)) * 0.5, np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(3))

    def test_validates_uniquenesses(self):
        with pytest.raises(ValidationError, match="positive"):
            FactorModel(np.full(3, 0.5), np.eye(1), [0.75, 0.0, 0.75])

    def test_from_standardized_loadings(self):
        model = FactorModel.from_standardized_loadings([0.6, 0.8])
        assert model.uniquenesses == pytest.approx([0.64, 0.36])
        with pytest.raises(ValidationError, match="standardized"):
            FactorModel.from_standardized_loadings([1.0, 0.5])

    def test_one_dim_loadings_become_column(self):
        model = FactorModel(np.full(4, 0.5), np.eye(1), np.full(4, 0.75))
        assert model.loadings.shape == (4, 1)
        assert (model.p, model.q) == (4, 1)


class TestFactorImpliedSigma:
    def test_one_factor_parallel_expansion(self):
        l = 0.7
        model = FactorModel.from_standardized_loadings(np.full(5, l))
        sigma = factor_implied_sigma(model)
        expected = np.full((5, 5), l * l)
        np.fill_diagonal(expected, 1.0)
        assert np.allclose(sigma.values, expected, atol=1e-15)
        assert sigma.is_standardized

    def test_null_model_gives_identity(self):
        model = FactorModel(np.zeros(4), np.eye(1), np.ones(4))
        assert np.array_equal(factor_implied_sigma(model).values, np.eye(4))

    def test_symmetric_for_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p, q = rng.integers(2, 8), rng.integers(1, 3)
            q = min(p, q)
            lam = rng.uniform(-0.7, 0.7, size=(p, q))
            phi = np.eye(q)
            model = FactorModel(lam, phi, rng.uniform(0.1, 1.0, size=p))
            sigma = factor_implied_sigma(model)
            assert np.array_equal(sigma.values, sigma.values.T)

    def test_stai_reflective_fit_regression_value(self, stai_sigma, stai_lam):
        # Frozen from the elementwise pipeline; the coarse published value is
        # covered by the acceptance suite.
        from scorefit import srmr

        model = FactorModel.from_standardized_loadings(stai_lam)
        report = srmr(stai_sigma, factor_implied_sigma(model))
        assert report.srmr == pytest.approx(0.0668386529147048, abs=1e-9)


class TestBuildParallelSigma:
    def test_zero_r_is_identity(self):
        assert np.array_equal(build_parallel_sigma(ParallelSpec(0.0, 4)).values, np.eye(4))

    def test_unit_r_is_all_ones(self):
        assert np.array_equal(build_parallel_sigma(ParallelSpec(1.0, 3)).values, np.ones((3, 3)))

    def test_table_cell_values(self):
        sigma = build_parallel_sigma(ParallelSpec(0.36, 6))
        off = sigma.values[~np.eye(6, dtype=bool)]
        assert np.all(off == 0.36)
        assert np.all(np.diag(sigma.values) == 1.0)
        assert sigma.is_standardized

    def test_rejects_bad_spec(self):
        with pytest.raises(ValidationError):
            ParallelSpec(0.5, 1)
        with pytest.raises(ValidationError):
            ParallelSpec(-0.1, 4)
        with pytest.raises(ValidationError):
            ParallelSpec(1.2, 4)

    @pytest.mark.parametrize("r", [0.0, 0.2, 0.5, 0.9])
    @pytest.mark.parametrize("p", [2, 5, 12])
    def test_two_distinct_eigenvalues(self, r, p):
        eig = np.linalg.eigvalsh(build_parallel_sigma(ParallelSpec(r, p)).values)
        expected = np.sort(np.r_[np.full(p - 1, 1.0 - r), 1.0 + (p - 1) * r])
        assert np.allclose(eig, expected, atol=1e-12)


class TestInvertSpd:
    def test_identity(self):
        assert np.allclose(invert_spd(CorrelationMatrix(np.eye(4))).values, np.eye(4))

    def test_two_by_two_closed_form(self):
        inv = invert_spd(build_parallel_sigma(ParallelSpec(0.5, 2)))
        assert np.allclose(inv.values, [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]], atol=1e-14)

    def test_stai_product_is_identity(self, stai_sigma):
        inv = invert_spd(stai_sigma)
        assert np.abs(stai_sigma.values @ inv.values - np.eye(stai_sigma.p)).max() < 1e-8

    def test_involution(self, stai_sigma):
        twice = invert_spd(invert_spd(stai_sigma))
        assert np.abs(twice.values - stai_sigma.values).max() < 1e-7

    def test_singular_names_pivot(self):
        singular = build_parallel_sigma(ParallelSpec(1.0, 3))
        with pytest.raises(SingularMatrixError, match="pivot 1") as excinfo:
            invert_spd(singular)
        assert excinfo.value.pivot_index == 1

    def test_near_singular_warns(self):
        r = 1.0 - 5e-7  # second pivot ~1e-6, above cutoff but inside warn band
        sigma = build_parallel_sigma(ParallelSpec(r, 2))
        with pytest.warns(NearSingularMatrixWarning):
            inv = invert_spd(sigma)
        assert np.abs(sigma.values @ inv.values - np.eye(2)).max() < 1e-6

    def test_only_inversion_warns_on_a_near_singular_matrix(self):
        sigma = build_parallel_sigma(ParallelSpec(1.0 - 5e-7, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower = cholesky_lower(sigma.values)
        assert np.allclose(lower @ lower.T, sigma.values, rtol=0.0, atol=1e-15)
        with pytest.warns(NearSingularMatrixWarning, match=r"smallest Cholesky pivot 1\.000e-06"):
            invert_spd(sigma)


def test_stai_matrix_is_positive_definite(stai_sigma):
    lower = cholesky_lower(stai_sigma.values)
    assert np.all(np.diag(lower) > 0)
