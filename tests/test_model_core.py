import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scorefit import (
    CorrelationMatrix,
    DimensionError,
    FactorModel,
    NearSingularMatrixWarning,
    SingularMatrixError,
    ValidationError,
    build_parallel_sigma,
    factor_implied_sigma,
    srmr_parallel_closed_form,
)
import scorefit.model
from scorefit.model import PIVOT_TOL, _cholesky_loop, cholesky_lower, spd_solve


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

    def test_opposite_huge_entries_are_asymmetric_without_overflow(self):
        with pytest.raises(ValidationError, match="asymmetric.*= inf"):
            CorrelationMatrix([[1.0, 1e308], [-1e308, 1.0]])

    def test_huge_entries_symmetrize_without_overflow(self):
        values = CorrelationMatrix([[1e308, 1.7e308], [1.7e308, 1e308]]).values
        assert np.array_equal(values, [[1e308, 1.7e308], [1.7e308, 1e308]])

    def test_accepts_rounding_asymmetry_relative_to_a_large_scale(self):
        # 1e-12 relative at 1e6 is 1e-6 absolute: far above SYMMETRY_TOL, far
        # below the entry's own scale.
        m = np.array([[1e6, 5e5], [5e5 * (1 + 1e-12), 1e6]])
        values = CorrelationMatrix(m).values
        assert np.array_equal(values, values.T)
        assert values[0, 1] == m[0, 1] / 2 + m[1, 0] / 2

    def test_rejects_asymmetry_beyond_the_tolerance_at_correlation_scale(self):
        with pytest.raises(ValidationError, match=r"= 2\.000e-10 exceeds .* = 1\.000e-10$"):
            CorrelationMatrix([[1.0, 0.3 + 2e-10], [0.3, 1.0]])

    def test_a_large_variance_does_not_loosen_the_check_elsewhere(self):
        # A 0.05 typo between two unit-variance items next to a 1e9 variance:
        # a bound set by the largest entry (1e-10 * 1e9 = 0.1) would pass it.
        m = [[1e9, 3e3, 1e3], [3e3, 1.0, 0.3], [1e3, 0.35, 1.0]]
        with pytest.raises(ValidationError, match=r"\|m\[1,2\] - m\[2,1\]\| = 5\.000e-02 "):
            CorrelationMatrix(m)

    def test_values_are_read_only(self):
        cm = CorrelationMatrix(np.eye(3))
        with pytest.raises(ValueError):
            cm.values[0, 0] = 2.0

    def test_a_build_holds_two_new_arrays_at_most(self):
        # M/2 is made first, then |M/2 - M'/2| in one buffer that then takes
        # the result; a third p x p array at once (as a separate abs() of the
        # gap, or a result in a buffer of its own) fails this.
        p = 256
        upper = np.triu(_seeded_correlation(p))
        values = upper + np.triu(upper, 1).T  # bitwise symmetric
        CorrelationMatrix(values[:2, :2])  # warm-up
        tracemalloc.start()
        try:
            built = CorrelationMatrix(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(built.values, values)
        assert 2 * p * p * 8 <= peak < 2.5 * p * p * 8


_NORMAL_HALVES = 2.0 * np.finfo(float).tiny  # below this, x / 2 rounds


@st.composite
def _near_symmetric(draw):
    """A square matrix whose upper triangle mirrors the lower one up to 5e-11."""
    p = draw(st.integers(1, 5))
    entry = st.floats(allow_nan=False, allow_infinity=False)
    lower = np.array(draw(st.lists(entry, min_size=p * p, max_size=p * p))).reshape(p, p)
    noise = np.array(draw(st.lists(
        st.floats(-5e-11, 5e-11) | st.sampled_from([0.0, -0.0, 5e-324]),
        min_size=p * p, max_size=p * p,
    ))).reshape(p, p)
    return np.tril(lower) + np.triu(lower.T, 1) + np.triu(noise, 1)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(m=_near_symmetric())
def test_symmetrization_matches_the_mean_form_for_normal_entries(m):
    """``M/2 + M'/2`` is exactly symmetric and never overflows, and equals the
    old ``(M + M')/2`` bit for bit wherever both entries halve exactly."""
    values = CorrelationMatrix(m).values
    bits = values.view(np.uint64)
    assert np.array_equal(bits, bits.T)
    assert np.isfinite(values).all()
    with np.errstate(over="ignore"):
        old = (m + m.T) / 2.0
    halves_exactly = (m == 0.0) | (np.abs(m) >= _NORMAL_HALVES)
    same = np.isfinite(old) & halves_exactly & halves_exactly.T
    assert np.array_equal(bits[same], old.view(np.uint64)[same])


def _plain_bound(m: list, i: int, j: int) -> float:
    """The symmetry bound of pair (i, j), in plain Python floats."""
    return 1e-10 * max(1.0, math.sqrt(abs(m[i][i])) * math.sqrt(abs(m[j][j])))


def _first_asymmetric_pair(m: list) -> tuple[int, int] | None:
    """The first (i, j), i < j in row-major order, whose pair fails the symmetry
    bound.  A difference too large for a float is inf, and fails it."""
    for i in range(len(m)):
        for j in range(i + 1, len(m)):
            if abs(m[i][j] - m[j][i]) > _plain_bound(m, i, j):
                return i, j
    return None


@st.composite
def _pushed_past_the_bound(draw):
    """A symmetric matrix at one scale, from subnormal to 1.7e308, with some
    entries moved off their mirror by a multiple of the pair's bound, or by far."""
    p = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([5e-324, 1e-310, 1e-300, 1e-150, 1e-10, 1.0, 1e10, 1e300, 1.7e308]))
    unit = st.floats(-1.0, 1.0)
    m = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1):
            m[i][j] = m[j][i] = draw(unit) * scale
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        factor = draw(st.sampled_from([0.5, 1.0, 1.0 + 2**-40, 2.0, 1e300]) | st.floats(0.0, 4.0))
        moved = m[j][i] + draw(st.sampled_from([1.0, -1.0])) * factor * _plain_bound(m, i, j)
        m[i][j] = moved if math.isfinite(moved) else -m[j][i]
    return m


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=_pushed_past_the_bound())
@example(m=[[1.0, 1e308], [0.0, 1.0]])  # a difference whose ratio to its bound overflows
def test_asymmetry_is_refused_where_the_plain_bound_fails_and_never_warns(m):
    first = _first_asymmetric_pair(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if first is None:
            CorrelationMatrix(m)
            return
        i, j = first
        with pytest.raises(ValidationError) as raised:
            CorrelationMatrix(m)
    assert str(raised.value) == (
        f"matrix is asymmetric: |m[{i},{j}] - m[{j},{i}]| = {abs(m[i][j] - m[j][i]):.3e} exceeds "
        f"1e-10 * max(1, sqrt|m[{i},{i}] m[{j},{j}]|) = {_plain_bound(m, i, j):.3e}"
    )


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

    @pytest.mark.parametrize("build", [
        lambda lam: FactorModel(lam, np.eye(1), np.full(3, 0.75)),
        FactorModel.from_standardized_loadings,
    ], ids=["constructor", "from_standardized"])
    @pytest.mark.parametrize("loadings, error, message", [
        (np.full((3, 1, 1), 0.5), DimensionError, "^loadings must be 1-d or 2-d, got ndim=3$"),
        ([0.5, np.nan, 0.5], ValidationError, "^loadings contain non-finite entries$"),
    ], ids=["3-d", "non-finite"])
    def test_rejects_bad_loadings(self, build, loadings, error, message):
        with pytest.raises(error, match=message):
            build(loadings)

    def test_rejects_asymmetric_factor_correlations(self):
        with pytest.raises(
            ValidationError,
            match=r"^factor correlations are asymmetric: \|m\[0,1\] - m\[1,0\]\| = 1\.000e-01 exceeds ",
        ):
            FactorModel(np.full((3, 2), 0.5), [[1.0, 0.2], [0.3, 1.0]], np.ones(3))

    def test_from_standardized_loadings_checks_factor_correlation_shape(self):
        with pytest.raises(DimensionError, match=r"are \(2, 2\), expected \(1, 1\)"):
            FactorModel.from_standardized_loadings([0.5, 0.6], np.eye(2))


class TestFactorImpliedSigma:
    def test_one_factor_parallel_expansion(self):
        l = 0.7
        model = FactorModel.from_standardized_loadings(np.full(5, l))
        sigma = factor_implied_sigma(model)
        expected = np.full((5, 5), l * l)
        np.fill_diagonal(expected, 1.0)
        assert np.allclose(sigma.values, expected, atol=1e-15)
        assert np.allclose(np.diag(sigma.values), 1.0, rtol=0.0, atol=1e-15)

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
        assert np.array_equal(build_parallel_sigma(0.0, 4).values, np.eye(4))

    def test_unit_r_is_all_ones(self):
        assert np.array_equal(build_parallel_sigma(1.0, 3).values, np.ones((3, 3)))

    def test_table_cell_values(self):
        sigma = build_parallel_sigma(0.36, 6)
        off = sigma.values[~np.eye(6, dtype=bool)]
        assert np.all(off == 0.36)
        assert np.all(np.diag(sigma.values) == 1.0)

    def test_rejects_bad_spec(self):
        # The matrix and the closed form check (r, p) alike, with the same texts.
        for build in (build_parallel_sigma, srmr_parallel_closed_form):
            with pytest.raises(ValidationError, match=r"^need an integer p >= 2, got 1$"):
                build(0.5, 1)
            with pytest.raises(ValidationError, match=r"^need r in \[0, 1\], got -0\.1$"):
                build(-0.1, 4)
            with pytest.raises(ValidationError, match=r"^need r in \[0, 1\], got 1\.2$"):
                build(1.2, 4)

    @pytest.mark.parametrize("r", [0.0, 0.2, 0.5, 0.9])
    @pytest.mark.parametrize("p", [2, 5, 12])
    def test_two_distinct_eigenvalues(self, r, p):
        eig = np.linalg.eigvalsh(build_parallel_sigma(r, p).values)
        expected = np.sort(np.r_[np.full(p - 1, 1.0 - r), 1.0 + (p - 1) * r])
        assert np.allclose(eig, expected, atol=1e-12)


class TestSpdSolve:
    def test_stai_solve_for_identity(self, stai_sigma):
        x = spd_solve(stai_sigma.values, np.eye(stai_sigma.p))
        assert np.abs(stai_sigma.values @ x - np.eye(stai_sigma.p)).max() < 1e-8

    def test_singular_names_pivot(self):
        singular = build_parallel_sigma(1.0, 3)
        with pytest.raises(SingularMatrixError, match="pivot 1") as excinfo:
            spd_solve(singular.values, np.eye(3))
        assert excinfo.value.pivot_index == 1

    def test_near_singular_warns(self):
        r = 1.0 - 5e-7  # second pivot ~1e-6, above cutoff but inside warn band
        sigma = build_parallel_sigma(r, 2)
        with pytest.warns(NearSingularMatrixWarning):
            x = spd_solve(sigma.values, np.eye(2))
        assert np.abs(sigma.values @ x - np.eye(2)).max() < 1e-6

    def test_only_solve_warns_on_a_near_singular_matrix(self):
        sigma = build_parallel_sigma(1.0 - 5e-7, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower = cholesky_lower(sigma.values)
        assert np.allclose(lower @ lower.T, sigma.values, rtol=0.0, atol=1e-15)
        with pytest.warns(NearSingularMatrixWarning, match=r"smallest Cholesky pivot 1\.000e-06"):
            spd_solve(sigma.values, np.eye(2))


def test_stai_matrix_is_positive_definite(stai_sigma):
    lower = cholesky_lower(stai_sigma.values)
    assert np.all(np.diag(lower) > 0)


def _seeded_correlation(p: int) -> np.ndarray:
    # One common factor plus noise, over twice as many cases as variables.
    rng = np.random.default_rng(p)
    x = rng.standard_normal((2 * p + 10, 1)) + rng.standard_normal((2 * p + 10, p))
    return np.corrcoef(x, rowvar=False)


def _above_diagonal(a: np.ndarray, value: float) -> np.ndarray:
    out = a.copy()
    out[np.triu_indices_from(out, 1)] = value
    return out


class TestCholeskyLower:
    """LAPACK factors; the loop, kept as the reference, runs only to name a pivot."""

    @pytest.mark.parametrize("p", [2, 27, 150])
    def test_lapack_agrees_with_the_loop(self, p):
        a = _seeded_correlation(p)
        lower = cholesky_lower(a)
        assert np.array_equal(lower, np.linalg.cholesky(a))
        assert np.abs(lower - _cholesky_loop(a)).max() <= 1e-14

    def test_lapack_agrees_with_the_loop_on_stai(self, stai_sigma):
        lower = cholesky_lower(stai_sigma.values)
        assert np.abs(lower - _cholesky_loop(stai_sigma.values)).max() <= 1e-14

    def test_a_positive_definite_matrix_never_runs_the_loop(self, monkeypatch, stai_sigma):
        def loop(a):
            raise AssertionError("the loop ran")

        monkeypatch.setattr(scorefit.model, "_cholesky_loop", loop)
        cholesky_lower(stai_sigma.values)
        spd_solve(stai_sigma.values, np.eye(stai_sigma.p))

    def test_a_small_pivot_that_lapack_accepts_is_still_refused(self):
        # LAPACK factors this matrix; its last pivot is 5e-11, below PIVOT_TOL.
        a = build_parallel_sigma(1.0 - 2.5e-11, 2).values
        assert 0.0 < np.linalg.cholesky(a)[1, 1] ** 2 < PIVOT_TOL
        expected = r"^Cholesky pivot 1 is 5\.000e-11 "
        with pytest.raises(SingularMatrixError, match=expected) as excinfo:
            cholesky_lower(a)
        assert excinfo.value.pivot_index == 1

    def test_a_failure_has_the_loops_message_index_and_pivot(self):
        a = build_parallel_sigma(1.0, 3).values
        with pytest.raises(SingularMatrixError) as lapack:
            cholesky_lower(a)
        with pytest.raises(SingularMatrixError) as loop:
            _cholesky_loop(a)
        assert str(lapack.value) == str(loop.value)
        assert (lapack.value.pivot_index, lapack.value.pivot) == (1, 0.0)
        assert (loop.value.pivot_index, loop.value.pivot) == (1, 0.0)

    def test_an_entry_too_large_to_square_is_refused_without_a_warning(self):
        a = np.array([[1.0, 1e200], [1e200, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError, match=r"^Cholesky pivot 1 is -inf ") as exc:
                cholesky_lower(a)
        assert (exc.value.pivot_index, exc.value.pivot) == (1, -np.inf)

    def test_entries_above_the_diagonal_are_not_read(self):
        a = _seeded_correlation(27)
        for value in (7e300, -1.0, 0.0):
            assert np.array_equal(cholesky_lower(_above_diagonal(a, value)), cholesky_lower(a))
            assert np.array_equal(_cholesky_loop(_above_diagonal(a, value)), _cholesky_loop(a))
        singular = build_parallel_sigma(1.0 - 2.5e-11, 2).values
        with pytest.raises(SingularMatrixError) as expected:
            cholesky_lower(singular)
        for value in (7e300, -1.0, 0.0):
            with pytest.raises(SingularMatrixError) as excinfo:
                cholesky_lower(_above_diagonal(singular, value))
            assert str(excinfo.value) == str(expected.value)
            assert excinfo.value.pivot_index == expected.value.pivot_index
            assert excinfo.value.pivot == expected.value.pivot

    def test_an_empty_matrix_has_an_empty_factor(self):
        assert cholesky_lower(np.zeros((0, 0))).shape == (0, 0)
        assert spd_solve(np.zeros((0, 0)), np.zeros((0, 1))).shape == (0, 1)
